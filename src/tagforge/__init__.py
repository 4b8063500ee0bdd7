"""tagforge: implicational Hilbert calculi, tag systems, and the reduction
that lets tag-system halting drive derivability questions."""

__version__ = "0.1.0"
