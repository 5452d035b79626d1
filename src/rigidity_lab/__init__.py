"""Numerical rigidity certificates for generalized conformal structures.

The package assembles jet-isometry and prolongation constraints as explicit
finite-dimensional linear systems and certifies rigidity statements as
kernel-dimension-zero reports with full singular spectra attached.
"""

__version__ = "0.1.0"
