"""Multi-agent zero-shot prediction pipeline for human-centered urban tasks."""

__version__ = "0.1.0"
