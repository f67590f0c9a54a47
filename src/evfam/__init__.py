"""Numerical toolkit for simple e-values under exponential-family nulls.

The package centers on one object: the likelihood ratio between two members
of different exponential families that share a sufficient statistic and a
mean.  When the families are ordered in the right way this ratio is an
e-value simultaneously for every null member, and the :mod:`conditions`
battery checks the orderings that make that claim true family-wide.

The package root imports no submodule.  Each public name is listed in its
own module's ``__all__`` and imported from there, for example
``from evfam.conditions import run_condition_battery``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
