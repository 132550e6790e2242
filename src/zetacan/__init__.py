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

Importing the package executes no module but this one.  ``_lazy`` registers
numpy and the package's modules in ``sys.modules`` through
``importlib.util.LazyLoader`` (numpy only when it is not already imported),
and a module executes on its first attribute access.  So a command runs only
the modules on its own call path: ``--help`` none, ``torsion`` ``special``,
``numerics`` and ``torsion``, and only the array routes load numpy.  Every
module takes ``np`` from here.  ``cli`` is not registered, so that
``python -m zetacan.cli`` executes it itself.
"""

import importlib.util
import sys


def _lazy(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
special, numerics, besselx, zetareg, torsion, verify = (
    _lazy(f"{__name__}.{name}")
    for name in ("special", "numerics", "besselx", "zetareg", "torsion", "verify"))

__version__ = "0.1.0"
