"""The general-position guard of the self-polar construction.

The solvers build the diagonal (self-polar) triangle of a quadrangle and the
pencil members it carries in `_kernels` (`diag_triangle`, `diag_vertices`,
`conic_from_pencil`, `conic_from_five_points`). Those closed forms hold only
when no three of the points are collinear, which this module checks.
"""
from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import _kernels as _k
from .errors import GeneralPositionError
from .projective import Vec3, _vec
from .tolerances import DEFAULT


def require_no_collinear_triple(points: Sequence) -> list[float]:
    """Raise GeneralPositionError naming the first collinear triple found.

    Otherwise return the determinants of the triples i < j < k in
    lexicographic order, (0, 1, 2), (0, 1, 3), ...
    """
    return _no_collinear_triple([_vec(p) for p in points], DEFAULT.geometry)


def _no_collinear_triple(vecs: Sequence[Vec3], geometry: float) -> list[float]:
    """require_no_collinear_triple of triples _vec read, with the geometric
    tolerance: a triple is collinear when |det| is within the tolerance times
    the product of its three norms. The 5p and 4p1l analyses make their
    collinearity test here and nowhere else."""
    norms = [_k.norm3(v) for v in vecs]
    dets = []
    for i, j, k in combinations(range(len(vecs)), 3):
        d = _k.det3(vecs[i], vecs[j], vecs[k])
        if abs(d) <= geometry * (norms[i] * norms[j] * norms[k]):
            raise GeneralPositionError(f"points {i}, {j}, {k} are collinear", (i, j, k))
        dets.append(d)
    return dets
