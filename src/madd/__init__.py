"""Seedable multi-agent simulator of disinformation spread and correction
on hybrid community/scale-free social networks."""

__version__ = "0.1.0"
