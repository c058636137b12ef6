"""Distributional and probability treatment effect estimation for randomized
experiments: regression adjustment with cross-fitting, a monotone multi-task
network learner, multiplier-bootstrap confidence bands, and a synthetic
Monte Carlo benchmark.

Each public name is declared once, in the ``__all__`` of the module that
defines it: ``from dtekit.estimation import fit_adjusted``, say.
"""

__version__ = "0.1.0"
