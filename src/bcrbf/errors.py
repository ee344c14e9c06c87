"""Exception hierarchy shared across the solver stack."""


class BcrbfError(Exception):
    """Base class for all package errors."""


class SingularMatrix(BcrbfError):
    """LU elimination hit a pivot below the working-precision threshold.

    Carries the zero-based pivot index.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class UnsupportedOrder(BcrbfError):
    """A derivative order beyond the kernel's supported total order."""


class InvalidFunctional(BcrbfError):
    """Boundary-functional constructor preconditions violated."""


class DegenerateConstraint(BcrbfError):
    """The bilinear denominator of a rank-one correction is numerically zero.

    ``gamma`` holds the offending denominator; ``index`` the position of the
    failing functional when raised from a sequence of impositions.
    """

    def __init__(self, message, gamma=None, index=None):
        super().__init__(message)
        self.gamma = gamma
        self.index = index


class NoHomogenizer(BcrbfError):
    """No polynomial ansatz up to degree 3 matches the boundary functionals."""


class NodeCollision(BcrbfError):
    """A collocation node coincides with a functional support location."""
