"""Expander graph families, exact expansion metrics, and spanning high-girth
sub-expander search."""

__version__ = "0.1.0"
