"""End-to-end and per-layer benchmark for rbott; see README.md."""
