"""Eigenvalue tools for a degenerate elliptic operator on product domains.

The operator couples an ordinary Laplacian in the first group of variables
with a |x|^(2s)-weighted Laplacian in the second.  The package computes its
first Dirichlet eigenvalue on cartesian products via a radial 1-D reduction,
optimizes the volume split between the factors, checks the closed-form
limit curves in s, and cross-validates everything with a direct 2-D solver
on disks and rectangles.  Each module's __all__ lists its public names, and
the package re-exports their union.
"""

from . import asymptotics, errors, minimizer, planar, radial, tables
from .asymptotics import *
from .errors import *
from .minimizer import *
from .planar import *
from .radial import *
from .tables import *

__version__ = "0.1.0"

__all__ = sorted({*asymptotics.__all__, *errors.__all__, *minimizer.__all__, *planar.__all__,
                  *radial.__all__, *tables.__all__})
