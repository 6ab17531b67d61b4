"""The general-position guard of the self-polar construction.

The solvers build the diagonal (self-polar) triangle of a quadrangle and the
pencil members it carries with the closed forms of `_kernels`
(`diag_vertices`, `conic_from_pencil`, `conic_from_five_points`). Those
closed forms hold only when no three of the points are collinear, which this
module checks for any number of points. The 5p and 4p1l analyses of
`solvers` make the same test, with the same determinants and bands, in
straight-line code of their own.
"""
from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import _kernels as _k
from .errors import GeneralPositionError
from .projective import _named_vec
from .tolerances import DEFAULT


def require_no_collinear_triple(points: Sequence) -> list[float]:
    """Raise GeneralPositionError naming the first collinear triple found.

    A triple is collinear when |det| is within the geometric tolerance times
    the product of its three norms. Otherwise return the determinants of the
    triples i < j < k in lexicographic order, (0, 1, 2), (0, 1, 3), ...
    Raises NonFiniteInput naming the first point with an inf or NaN
    coordinate, or one beyond the float range.
    """
    vecs = [_named_vec(p, "point", i) for i, p in enumerate(points)]
    norms = [_k.norm3(v) for v in vecs]
    geometry = DEFAULT.geometry
    dets = []
    for i, j, k in combinations(range(len(vecs)), 3):
        d = _k.det3(vecs[i], vecs[j], vecs[k])
        if abs(d) <= geometry * (norms[i] * norms[j] * norms[k]):
            raise GeneralPositionError(f"points {i}, {j}, {k} are collinear", (i, j, k))
        dets.append(d)
    return dets
