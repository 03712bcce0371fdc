"""lagfloor: exact Lie-algebra cohomology, double-complex spectral sequences,
and the cohomological floor classification of weakly invariant Lagrangians."""

# the benchmark reports the row-reduction kernel as lagfloor.KERNEL_IMPL
from .linalg import KERNEL_IMPL

__version__ = "0.1.0"
