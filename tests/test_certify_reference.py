"""`oracle.certify` is, bit for bit, a composition of the package's public
residuals (`conics.point_residual`, `tangency_residual`), the kernels'
diagonal triangle (`_kernels.diag_vertices`, `norm3`) and, for the count
judge, `_kernels.cross` and `dot3`: its straight-line arithmetic runs each
float operation in their order. repr tells NaN apart, which == does not."""
import math
import random
from dataclasses import replace

import pytest

from minconic import MinconicError, solve
from minconic import _kernels as _k
from minconic import oracle
from minconic.conics import ConicMatrix, _sym6_frobenius, point_residual, tangency_residual
from minconic.oracle import MARGIN, CheckResult, certify
from minconic.projective import _vec
from minconic.solvers import _triples
from minconic.tolerances import DEFAULT, RESIDUAL

from conftest import gallery_names, load_gallery_case
from test_single_pass import FIVE, L1, L2, READ_FAULTS, _benchmark_workloads

PAIRS = ((0, 1), (0, 2), (1, 2))


def worst(terms):
    """The largest of the magnitudes that the thunks give, NaN when one is
    NaN or divides by zero, 0.0 when there are none."""
    try:
        values = [term() for term in terms]
    except ZeroDivisionError:
        return math.nan
    return math.nan if math.isnan(sum(values)) else max(values, default=0.0)


def bilinear(m6, u, v):
    m11, m12, m22, m13, m23, m33 = m6
    return (m11 * u[0] * v[0] + m22 * u[1] * v[1] + m33 * u[2] * v[2] + m12 * (u[0] * v[1] + u[1] * v[0])
            + m13 * (u[0] * v[2] + u[2] * v[0]) + m23 * (u[1] * v[2] + u[2] * v[1]))


def judged(vecs, lvs, band):
    """The count judge's (real, complex), or None, in kernel calls."""
    vecs, lvs = (lvs, vecs) if len(vecs) < len(lvs) else (vecs, lvs)
    if not lvs:
        return 1, 0
    xs, ls = ([tuple(x / max(map(abs, v)) for x in v) for v in es] for es in (vecs, lvs))
    dots = [[_k.dot3(x, l) for x in xs] for l in ls]
    if any(abs(d) <= band for row in dots for d in row):
        return None
    if len(ls) == 2:  # the Cremona frame of the three points
        (al, be), meet = dots, _k.cross(*ls)
        if any((al[i] * be[j] - al[j] * be[i]) * (al[i] * be[j] - al[j] * be[i])
               <= band * band * _k.dot3(meet, meet) for i, j in PAIRS):
            return None
        r1, r2, r3 = (b / a for a, b in zip(al, be))
        if r1 * r2 < 0.0:
            return 0, 4
        ns = []
        for q in (r3 + math.sqrt(r1 * r2), r3 - math.sqrt(r1 * r2)):
            ns.append(oracle._real_pair(4.0 * q * q, 4.0 * (r1 - r3) * (r2 - r3)))
            if ns[-1] is None:
                return None
        return sum(ns), 4 - sum(ns)
    l, pairs = ls[0], []  # the quadrangle's line pairs restricted to the line
    i = [abs(c) for c in l].index(1.0) - 2  # the other two coordinates: i and i + 1
    j = i + 1
    for a, b, c, d in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        side, opposite = _k.cross(xs[a], xs[b]), _k.cross(xs[c], xs[d])
        u, v = _k.cross(side, l), _k.cross(opposite, l)
        det = u[i] * v[j] - u[j] * v[i]
        if det * det <= band * band * _k.dot3(side, side) * _k.dot3(opposite, opposite):
            return None
        pairs.append((u[i] * v[i], u[i] * v[j] + u[j] * v[i], u[j] * v[j], det))
    (a0, b0, c0, d0), (a1, b1, c1, d1), _ = pairs
    k1 = 2.0 * b0 * b1 - 4.0 * (a0 * c1 + a1 * c0)
    real = oracle._real_pair(k1 * k1, 4.0 * (d0 * d0) * (d1 * d1))
    return None if real is None else (real, 2 - real)


def reference(points, lines, sol):
    try:
        (vecs, lvs), read = _triples(points, lines), True
    except Exception:
        vecs, lvs, read = [_vec(p) for p in points], [_vec(l) for l in lines], False
    conics, checks, diag, quads = sol.real_conics, [], sol.diagnostics, []
    m6s = [cm.sym6() for cm in conics]
    for i, (cm, r) in enumerate(zip(conics, oracle._ranks(m6s, [_sym6_frobenius(m) for m in m6s]))):
        pin = worst([lambda v=v: point_residual(cm, v) for v in vecs])
        tan = worst([lambda l=l: tangency_residual(cm, l) for l in lvs])
        checks += [CheckResult(f"incidence[{i}]", pin <= RESIDUAL, pin, RESIDUAL),
                   CheckResult(f"tangency[{i}]", tan <= RESIDUAL, tan, RESIDUAL),
                   CheckResult(f"nondegenerate[{i}]", r == 3, float(r), 3.0)]
    if sol.case_label.startswith("dual:"):
        pass
    elif len(vecs) >= 4:
        quads = [vecs[:4]] * len(conics)
    elif diag.context is not None and len(diag.parameters) == len(conics):
        g, h = diag.context.anchor, diag.context.offset
        quads = [[vecs[i] for i in diag.allocation] + [tuple(t * g[k] + h[k] for k in range(3))]
                 for _, t in diag.parameters]
    for i, (m6, quad) in enumerate(zip(m6s, quads)):
        xi, fro = _k.diag_vertices(*quad), _sym6_frobenius(m6)
        w = worst([lambda a=a, b=b: abs(bilinear(m6, xi[a], xi[b]))
                   / (fro * _k.norm3(xi[a]) * _k.norm3(xi[b])) for a, b in PAIRS])
        checks.append(CheckResult(f"self-polar[{i}]", w <= RESIDUAL, w, RESIDUAL))
    try:
        count = judged(vecs, lvs, MARGIN * DEFAULT.geometry) if read else "refused"
    except ArithmeticError:
        count = "refused"
    if count == "refused":
        checks.append(CheckResult("count-consistency", False, math.nan, math.nan))
    elif count is not None:
        agree = count == (sol.real_count, sol.complex_count)
        checks.append(CheckResult("count-consistency", agree, float(sol.real_count), float(count[0])))
    return oracle.Certification(tuple(checks), ("count-consistency",) if count is None else ())


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except MinconicError as exc:
        return f"{type(exc).__name__}: {exc}"


def solved(inputs):
    for points, lines in inputs:
        try:
            yield points, lines, solve(points, lines)
        except MinconicError:
            pass


def odd_conics():
    """Each conic of a four-real set swapped, in turn, for a line pair, a
    double line, a zero, an inf and a NaN conic; and sets of more conics
    than a solve returns."""
    points, lines, _ = load_gallery_case("3p2l_case5_real_a")
    sol = solve(points, lines)
    yield points, lines, replace(sol, real_conics=sol.real_conics * 2)
    yield FIVE, [], replace(solve(FIVE, []), real_conics=solve(FIVE, []).real_conics * 5)
    for m6 in [(1.0, 0.0, -1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0,) * 6,
               (math.inf, 0.0, 1.0, 0.0, 0.0, 1.0), (math.nan, 0.0, 1.0, 0.0, 0.0, 1.0)]:
        for slot in range(4):
            conics = sol.real_conics[:slot] + (ConicMatrix(*m6),) + sol.real_conics[slot + 1:]
            yield points, lines, replace(sol, real_conics=conics)


def mixed(seed):
    return solved((p, l) for _, p, l in _benchmark_workloads().mixed_corpus(random.Random(seed), 100))


CORPORA = {
    **{f"mixed_corpus seed {s}": lambda s=s: mixed(s) for s in (1, 2, 3)},
    "ransac_samples seed 7": lambda: solved(
        s for s, _ in _benchmark_workloads().ransac_samples(random.Random(7), 40, 50)),
    "gallery": lambda: solved(load_gallery_case(name)[:2] for name in gallery_names()),
    "rank-deficient, non-finite and zero conics": odd_conics,
    # test_single_pass's faulty reads, against the solution of the clean input
    "faulty reads": lambda: ((p, l, solve(FIVE, []) if not l else solve(FIVE[:3], [L1, L2]))
                             for p, l, _, _ in READ_FAULTS.values()),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_certify_is_its_reference_composition_bit_for_bit(corpus):
    cases = list(CORPORA[corpus]())
    assert len(cases) >= 12
    for points, lines, sol in cases:
        assert outcome(certify, points, lines, sol) == outcome(reference, points, lines, sol)


def test_certify_calls_nothing_in_the_kernels(monkeypatch):
    # the judge shares no code with the solvers it checks
    cases = list(CORPORA["gallery"]()) + list(CORPORA["rank-deficient, non-finite and zero conics"]())

    def forbidden(*args):
        raise AssertionError("certify called a kernel")

    for name, value in vars(_k).items():
        if callable(value) and getattr(value, "__module__", None) == _k.__name__:
            monkeypatch.setattr(_k, name, forbidden)
    for points, lines, sol in cases:
        certify(points, lines, sol)
