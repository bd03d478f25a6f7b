"""End-to-end benchmark of the paper reproduction (see README.md)."""
