"""Out-of-process end-to-end serving benchmark (see README.md)."""
