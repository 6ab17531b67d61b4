"""The count judge of `certify` and its determinant bound on rank.

The judge counts the real conics of a configuration from the points and
lines alone, with formulas the solvers do not use: the pencil of line pairs
restricted to the line (four points and a line) and the Cremona frame of the
three points (three points and two lines). It must agree with `predict`
wherever it judges, leave every special-position input not judged, and
catch a count rule that is wrong. The determinant bound must never claim
rank 3 where LAPACK reports less, and the Jacobi sweep that ranks the
conics the bound cannot clear must give LAPACK's rank, both through
certify's rank and through conics.rank, which share them.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minconic import DEFAULT, ConicMatrix, MinconicError, predict, rank, solve, solvers
from minconic import conics, oracle
from minconic.oracle import (
    MARGIN,
    certify,
    dualize_input,
    random_3p2l_case,
    random_4p1l,
    random_five_points,
)
from minconic.solvers import CountPrediction, _triples
from minconic.tolerances import RANK_ZERO

from conftest import benchmark_workloads, load_gallery_case

BAND = MARGIN * DEFAULT.geometry

#: the rules of the special positions: 3p2l cases 1-4 and the unique 4p1l
#: answers, and their duals
SPECIAL = ("case 1", "case 2", "case 3", "case 4", "unique:")


def judged(points, lines):
    return oracle._judged_count(*_triples(points, lines), BAND)


def special(prediction) -> bool:
    return prediction.rule.removeprefix("dual: ").startswith(SPECIAL)


def test_the_judge_agrees_with_predict_on_the_benchmark_corpus():
    # margin-sampled: every generic input is judged, every special one not
    counts = {True: 0, False: 0}
    for category, points, lines in benchmark_workloads().mixed_corpus(random.Random(1), 20):
        pred = predict(points, lines)
        count = judged(points, lines)
        if special(pred):
            assert count is None, (category, pred)
        else:
            assert count == (pred.predicted_real, pred.predicted_complex), (category, pred)
        counts[count is None] += 1
    assert counts == {False: 104, True: 96}


def test_the_judge_agrees_with_predict_on_raw_ransac_samples():
    # no margin rejection: wherever both answer, they agree
    agreed = 0
    for (points, lines), _ in benchmark_workloads().ransac_samples(random.Random(1), 10, 20):
        try:
            pred = predict(points, lines)
        except MinconicError:
            continue
        count = judged(points, lines)
        if count is not None:
            assert count == (pred.predicted_real, pred.predicted_complex)
            agreed += 1
    assert agreed == 200


def margin_sampled(seed: int, kind: int):
    """A margin-sampled input of one of the ten categories."""
    rng = random.Random(seed)
    if kind == 0:
        points, lines = random_five_points(rng), []
    elif kind == 1:
        points, line = random_4p1l(rng)
        lines = [line]
    else:
        points, l1, l2 = random_3p2l_case(rng, 1 + kind % 5)
        lines = [l1, l2]
    return dualize_input(points, lines) if seed % 2 else (points, lines)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=6))
def test_the_judge_agrees_with_predict_on_margin_sampled_inputs(seed, kind):
    # the sampler's margins are not the judge's bands, so a generic input
    # may come out not judged; a special one always does
    points, lines = margin_sampled(seed, kind)
    try:
        pred = predict(points, lines)
    except MinconicError:  # a near tie of case 5's pencil eigenvalues
        return
    count = judged(points, lines)
    if special(pred):
        assert count is None
    elif count is not None:
        assert count == (pred.predicted_real, pred.predicted_complex)


def case5_always_none_real(monkeypatch):
    predict_3p2l = solvers._prediction_3p2l

    def mutated(case, *scalars):
        p = predict_3p2l(case, *scalars)
        return CountPrediction(0, 4, p.rule, p.predicate) if case == 5 else p

    monkeypatch.setattr(solvers, "_prediction_3p2l", mutated)


def flipped_4p1l_sign_rule(monkeypatch):
    analyse, build = solvers._FAMILIES[4]

    def mutated(vecs, lvs, geometry):
        p, state = analyse(vecs, lvs, geometry)
        flipped = CountPrediction(p.predicted_complex, p.predicted_real, p.rule, p.predicate)
        return (p if p.rule.startswith("unique") else flipped), state

    monkeypatch.setitem(solvers._FAMILIES, 4, (mutated, build))


@pytest.mark.parametrize("mutation", [case5_always_none_real, flipped_4p1l_sign_rule])
@pytest.mark.parametrize(
    "name",
    ["3p2l_case5_real_a", "2p3l_case5_real_a", "4p1l_generic_real_a", "1p4l_generic_real_a"],
)
def test_a_wrong_count_rule_fails_certify(name, mutation, monkeypatch):
    points, lines, _ = load_gallery_case(name)
    assert certify(points, lines, solve(points, lines)).ok
    mutation(monkeypatch)
    sol = solve(points, lines)
    cert = certify(points, lines, sol)
    family = 3 if name[1:4] in ("p2l", "p3l") else 4
    touched = family == (3 if mutation is case5_always_none_real else 4)
    assert cert.ok is not touched
    if touched:
        assert sol.real_count == 0
        assert [c.name for c in cert.failures()] == ["count-consistency"]


def test_a_zero_element_fails_the_count_with_nan():
    # no scale makes the zero vector a point or a line; with no real conic,
    # the count is the only check its element enters
    points, lines, _ = load_gallery_case("4p1l_generic_complex")
    sol = solve(points, lines)
    cert = certify(points, [(0.0, 0.0, 0.0)], sol)
    (count,) = [c for c in cert.checks if c.name == "count-consistency"]
    assert not count.passed and math.isnan(count.magnitude) and math.isnan(count.limit)
    assert cert.not_judged == ()


SQUARE = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]


@pytest.mark.parametrize(
    "points, lines, nan_checks",
    [
        # a zero line: both tangency residuals divide by its squared norm
        (SQUARE, [(0, 0, 0)], ["tangency[0]", "tangency[1]", "count-consistency"]),
        # a zero fourth point: the incidence residuals, and the self-polar
        # check of the triangle whose sides it zeroes
        (
            SQUARE[:3] + [(0, 0, 0)],
            [(1, 1, -3)],
            ["incidence[0]", "incidence[1]", "self-polar[0]", "self-polar[1]", "count-consistency"],
        ),
    ],
    ids=["zero line", "zero point"],
)
def test_a_zero_element_beside_real_conics_fails_its_checks_with_nan(points, lines, nan_checks):
    # with real conics the element also enters the residuals: each check
    # it makes a division by zero fails with NaN, and every other check
    # still runs and passes
    sol = solve(SQUARE, [(1, 1, -3)])
    assert sol.real_count == 2
    cert = certify(points, lines, sol)
    names = [f"{kind}[{i}]" for i in range(2) for kind in ("incidence", "tangency", "nondegenerate")]
    assert [c.name for c in cert.checks] == names + ["self-polar[0]", "self-polar[1]", "count-consistency"]
    assert [c.name for c in cert.failures()] == nan_checks
    assert all(math.isnan(c.magnitude) for c in cert.failures())
    assert cert.not_judged == ()


# ---------------------------------------------------------------------------
# the determinant bound on rank


def lapack_rank(m6) -> int:
    """The rank one eigvalsh call gives, with certify's thresholds."""
    a, b, c, d, e, f = m6
    w = np.abs(np.linalg.eigvalsh(np.array([[a, b, d], [b, c, e], [d, e, f]])))
    top = w.max()
    if top == 0.0 or np.isnan(w).any():
        return 0
    return int((w > RANK_ZERO * top).sum())


def oracle_rank(m6) -> int:
    return oracle._rank(m6, oracle._sym6_frobenius(m6))


def public_rank(m6) -> int:
    return rank(ConicMatrix(*m6))


def sweep_rank(m6) -> int:
    """The rank the Jacobi sweep's eigenvalues give, with no bound in front."""
    return len(conics._nonzero(conics._sweep(*m6)))


#: the two public faces of the one rank decision: certify's nondegenerate
#: check and conics.rank
RANKERS = pytest.mark.parametrize("ranker", [oracle_rank, public_rank], ids=["oracle._rank", "conics.rank"])


def ranks_and_sweeps(ranker, m6s, monkeypatch):
    """ranker's rank of each conic, and the conics it ranked by Jacobi sweeps."""
    sent = []
    sweep = conics._sweep

    def counted(*m6):
        sent.append(m6)
        return sweep(*m6)

    with monkeypatch.context() as m:
        m.setattr(conics, "_sweep", counted)
        ranks = [ranker(m6) for m6 in m6s]
    return ranks, sent


def test_the_bound_agrees_with_lapack_on_every_corpus_conic(monkeypatch):
    m6s = []
    for _, points, lines in benchmark_workloads().mixed_corpus(random.Random(1), 20):
        try:
            m6s += [cm.sym6() for cm in solve(points, lines).real_conics]
        except MinconicError:
            pass
    ranks, sent = ranks_and_sweeps(oracle_rank, m6s, monkeypatch)
    assert ranks == [lapack_rank(m6) for m6 in m6s]
    assert len(m6s) > 200 and 0 < len(sent) < len(m6s) // 10


def rotated(eigenvalues, rng):
    """The sym6 of Q diag(eigenvalues) Q^T for a random rotation Q."""
    q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]))
    m = q @ np.diag(eigenvalues) @ q.T
    return (m[0, 0], m[0, 1], m[1, 1], m[0, 2], m[1, 2], m[2, 2])


@RANKERS
def test_the_bound_never_claims_rank_3_near_the_rank_threshold(ranker, monkeypatch):
    # eigenvalue ratios across RANK_ZERO = 1e-9: LAPACK reports rank 2 below
    # it and 3 above; the bound clears only conics well above it
    rng = random.Random(3)
    m6s, ties = [], []
    for k in range(400):
        ratio = 0.5e-9 + 3.5e-9 * k / 399
        for big in ((1.0, 1.0), (1.0, -0.5), (-1.0, 0.3)):
            if ratio == RANK_ZERO:
                ties.append(len(m6s))
            m6s.append(rotated(big + (ratio * rng.choice((-1.0, 1.0)),), rng))
    for k in range(200):
        m6s.append(rotated((1.0, 1.0, 4e-9 + 2e-8 * k / 199), rng))
    ranks, sent = ranks_and_sweeps(ranker, m6s, monkeypatch)
    lapack = [lapack_rank(m6) for m6 in m6s]
    # at ratio == RANK_ZERO the rounding of the computed ratio, about 1e-7 of
    # it, decides the rank for any eigensolver: there both solvers give 2 or
    # 3 and the bound leaves the conic to the sweep
    assert len(ties) == 3
    for i in ties:
        assert {ranks[i], lapack[i]} <= {2, 3} and m6s[i] in sent
    others = [i for i in range(len(m6s)) if i not in ties]
    assert [ranks[i] for i in others] == [lapack[i] for i in others]
    assert {2, 3} <= set(ranks[:1200])
    assert len(sent) < len(m6s)  # the bound cleared the larger ratios


@pytest.mark.parametrize("ranker", [sweep_rank, public_rank], ids=["sweep", "conics.rank"])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize(
    "spectrum", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (2.0, -1.0, -1.0), (1.0, -1.0, 1e-12)]
)
def test_the_sweep_gives_lapacks_rank_on_repeated_eigenvalues_at_any_scale(spectrum, scale, ranker):
    # repeated eigenvalues are the sweep's slowest case (a triple one takes
    # about ten sweeps), and the power-of-two scaling keeps the extreme
    # scales from overflowing or underflowing
    rng = random.Random(5)
    for _ in range(20):
        m6 = tuple(scale * x for x in rotated(spectrum, rng))
        assert ranker(m6) == lapack_rank(m6)


CIRCLE = (1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
LINE_PAIR = (1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
GENERIC = (2.0, 0.5, 1.0, 0.25, 0.0, -3.0)
INF, NAN = math.inf, math.nan


EXTREME = [
    pytest.param(ranker, [tuple(k * x for x in m6) for m6 in (CIRCLE, LINE_PAIR, GENERIC)], id=f"{name}-{k:g}")
    for ranker, name in ((oracle_rank, "oracle._rank"), (public_rank, "conics.rank"))
    for k in (1e150, 1e-150)
]
# conics.rank raises ValueError for an inf or NaN entry instead of ranking it
NON_FINITE = [
    pytest.param(oracle_rank, m6s, id=f"oracle._rank-{name}")
    for m6s, name in (
        # an inf or NaN past the first entry too, where max() can miss a NaN
        ([(INF,) + m6[1:] for m6 in (CIRCLE, LINE_PAIR, GENERIC)] + [(1.0, INF) + CIRCLE[2:]], "inf"),
        ([(NAN,) + m6[1:] for m6 in (CIRCLE, LINE_PAIR, GENERIC)] + [(1.0, 0.0, NAN) + CIRCLE[3:]], "nan"),
    )
]


@pytest.mark.parametrize("ranker, m6s", EXTREME + NON_FINITE)
def test_the_bound_leaves_extreme_and_non_finite_conics_to_lapack(ranker, m6s, monkeypatch):
    # the sweep ranks every one of them: a finite conic as LAPACK does, and a
    # conic with an inf or NaN entry as rank 0 (LAPACK's eigenvalues of
    # (nan, 0, 1, 0, 0, 1) are (0, -0, 1), and it does not converge on a NaN
    # beside non-zero off-diagonal entries)
    ranks, sent = ranks_and_sweeps(ranker, m6s, monkeypatch)
    finite = all(math.isfinite(x) for m6 in m6s for x in m6)
    assert ranks == ([lapack_rank(m6) for m6 in m6s] if finite else [0] * len(m6s))
    assert sent == m6s
