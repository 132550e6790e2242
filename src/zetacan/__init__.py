"""Spectral zeta regularization and generalized analytic torsion of the
canonical metrics on the projective line.

The package computes the eigenvalue spectrum of the singular Laplacian
attached to the canonical metric on O(m) (zeros of Bessel cross
products), regularizes the associated spectral zeta function to obtain
zeta(0) and zeta'(0), and independently assembles the generalized
analytic torsion from Bott-Chern anomaly integrals and Gram
determinants; the two pipelines agree:

    zeta(0)  = -2/3 - m/2,
    zeta'(0) = 4 zeta'_Q(-1) - 1/6 - log((m+2)^{m+1} / ((m+1)!)^2) = T_g(m).

numpy loads on first use: the package registers it in ``sys.modules``
through ``importlib.util.LazyLoader`` (unless it is already imported), and
every module takes ``np`` from here, so a command that never touches an
array (``--help``, ``torsion``, the closed ``zeta`` route) never loads it.
"""

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

from .besselx import spectrum, zeros
from .torsion import torsion_g
from .zetareg import dirichlet_neumann_block, zeta_canonical

__version__ = "0.1.0"

__all__ = [
    "zeros", "spectrum", "zeta_canonical",
    "dirichlet_neumann_block", "torsion_g", "__version__",
]
