"""Exception hierarchy for the minconic solvers."""


class MinconicError(Exception):
    """Base class for all minconic errors."""


class PointAtInfinity(MinconicError, ValueError):
    """A homogeneous vector has no finite representative. No minconic
    function raises it; it stays because perfbench/workloads.py imports it
    and maps it to an exit code."""


class GeneralPositionError(MinconicError, ValueError):
    """Input configuration violates a general-position requirement.

    The offending primitives are named in the message; ``indices`` holds the
    0-based positions of the inputs involved when that is meaningful.
    """

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = indices


class NonFiniteInput(MinconicError, ValueError):
    """A point or line has an inf or NaN coordinate."""


class MalformedCoordinates(MinconicError, ValueError):
    """A point or line is not exactly three real coordinates."""


class UnsupportedCount(MinconicError, ValueError):
    """Configuration does not contain exactly five points/lines."""


class DegenerateParameter(MinconicError, ValueError):
    """Pencil parameter hit 0 or 1, where the pencil member is a line pair.
    No minconic function raises it; it stays because perfbench/workloads.py
    imports it and maps it to an exit code."""


class DegenerateCase(MinconicError, ArithmeticError):
    """A guarded degeneracy fired (for example coincident pencil eigenvalues)."""


class CaseDegeneracy(DegenerateCase):
    """A special-case solver met input on a case boundary it cannot handle."""


class ComplexLinePair(MinconicError, ArithmeticError):
    """Degenerate conic splits into complex-conjugate lines, not real ones."""


class RankOne(MinconicError, ArithmeticError):
    """Degenerate conic is a double line; it has no unique line-pair split."""


class InconsistentPencil(MinconicError, ArithmeticError):
    """Line-pair intersections of a conic pencil failed the cross-check."""


class RankDeficient(MinconicError, ArithmeticError):
    """Null-space fit found more than one dimension of solutions."""
