"""End-to-end benchmark of the LAACAD reproduction (see README.md)."""
