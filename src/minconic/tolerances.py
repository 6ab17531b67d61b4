"""Numeric tolerances shared by predicates, solvers, and certification.

All comparisons are relative: a quantity is "zero" when it is below the
tolerance times the natural scale of its operands (products of norms for
determinants and incidences, the dominant eigenvalue for rank decisions).
Inputs within tolerance of a special configuration are dispatched as that
configuration; there is no blending between neighbouring branches.
The general-position tolerance is the one setting (`Tolerances.geometry`);
every other gate is a constant of this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: |w| vs vector norm below which a homogeneous point is at infinity
INFINITY = 1e-12
#: eigenvalue below this fraction of the spectral radius counts as zero
RANK_ZERO = 1e-9
#: relative coincidence of pencil eigenvalues (degeneracy guard)
EIGENVALUE_TIE = 1e-9
#: relative band around zero for quadratic discriminants (double roots)
DISCRIMINANT = 1e-10
#: pencil parameter closer than this to 0 or 1 is degenerate
PARAMETER = 1e-12
#: certification ceiling for normalized incidence/tangency residuals
RESIDUAL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    #: general position: collinearity of three points (|det| vs the product
    #: of the three norms) and point-line incidence (|x . l| vs |x| |l|)
    geometry: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 <= self.geometry < math.inf:  # below 0 no band test can fire
            raise ValueError(f"the geometry tolerance must be a finite number >= 0, got {self.geometry!r}")


DEFAULT = Tolerances()
