"""End-to-end + per-layer benchmark of the three PoEm deployments (see
README.md; the entry point is ``run.py``)."""
