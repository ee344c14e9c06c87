"""Boundary-condition-constrained RBF pseudospectral solver.

Gaussian kernels are algebraically corrected so every basis function
satisfies the problem's boundary functionals exactly (Dirichlet, Neumann,
Robin, mixed, multi-point); the PDE is then collocated on interior tensor
nodes only.  An unsymmetric-collocation baseline and a benchmark harness
with arbitrary-precision arithmetic round out the package.

The package root exports what a problem definition needs and the error
types; everything else is imported from its module (``bcrbf.reporting``,
``bcrbf.kansa``, ...).
"""

from .errors import (
    BcrbfError,
    DegenerateConstraint,
    InvalidFunctional,
    NodeCollision,
    NoHomogenizer,
    SingularMatrix,
    UnsupportedOrder,
)
from .functionals import make_robin
from .numerics import Precision
from .pseudospectral import (
    BoundaryCondition,
    OperatorSpec,
    OperatorTerm,
    ProblemSpec,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "BcrbfError",
    "BoundaryCondition",
    "DegenerateConstraint",
    "InvalidFunctional",
    "NoHomogenizer",
    "NodeCollision",
    "OperatorSpec",
    "OperatorTerm",
    "Precision",
    "ProblemSpec",
    "SingularMatrix",
    "UnsupportedOrder",
    "make_robin",
    "solve",
]
