"""Elliptic-parabolic phase-transition problems as singular limits of
regularized uniformly parabolic ones: geometry of the regularization body,
smoothing families, extremal operators, barrier certificates, implicit
solvers, sup/inf-convolutions, and an acceptance harness.
"""

__version__ = "0.1.0"
