"""A benchmark of Blaeu's interaction loop (see README.md)."""
