"""End-to-end benchmark of the repro simulator (see perfbench/README.md)."""
