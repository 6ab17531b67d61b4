"""Exact rational-arithmetic checks of every closed-form identity.

These reimplement the formulas with Fraction coordinates, independent of the
package numerics: each test is an identity that must hold exactly, so any
failure is a wrong formula, not a tolerance issue.
"""
from fractions import Fraction as F
from random import Random

# ---------------------------------------------------------------------------
# rational linear algebra


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a, b, c):
    return dot(a, cross(b, c))


def sym_from_outer(coeff_vec_pairs):
    m = [F(0)] * 6  # (m11, m12, m22, m13, m23, m33)
    for k, v in coeff_vec_pairs:
        m[0] += k * v[0] * v[0]
        m[1] += k * v[0] * v[1]
        m[2] += k * v[1] * v[1]
        m[3] += k * v[0] * v[2]
        m[4] += k * v[1] * v[2]
        m[5] += k * v[2] * v[2]
    return tuple(m)


def sym_matrix(m6):
    m11, m12, m22, m13, m23, m33 = m6
    return ((m11, m12, m13), (m12, m22, m23), (m13, m23, m33))


def mat_det(m):
    return det3(m[0], m[1], m[2])


def mat_adjugate(m):
    cols = [(m[0][j], m[1][j], m[2][j]) for j in range(3)]
    rows = (cross(cols[1], cols[2]), cross(cols[2], cols[0]), cross(cols[0], cols[1]))
    return rows


def quad_eval(m6, v):
    m = sym_matrix(m6)
    return dot(v, tuple(dot(m[i], v) for i in range(3)))


def rand_vec(rng, span=12):
    return tuple(F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(3))


def rand_point(rng, span=12):
    return (F(rng.randint(-span, span), rng.randint(1, 4)),
            F(rng.randint(-span, span), rng.randint(1, 4)), F(1))


def diag_triangle(x1, x2, x3, x4):
    xi1 = cross(cross(x1, x2), cross(x3, x4))
    xi2 = cross(cross(x1, x3), cross(x2, x4))
    xi3 = cross(cross(x1, x4), cross(x2, x3))
    return xi1, xi2, xi3


def pencil(xi, s):
    r1 = cross(xi[1], xi[2])
    r2 = cross(xi[2], xi[0])
    r3 = cross(xi[0], xi[1])
    return sym_from_outer([(-s, r1), (s - F(1), r2), (F(1), r3)])


def general_quadrangle(rng):
    while True:
        pts = [rand_point(rng) for _ in range(4)]
        dets = [
            det3(pts[0], pts[1], pts[2]),
            det3(pts[0], pts[1], pts[3]),
            det3(pts[0], pts[2], pts[3]),
            det3(pts[1], pts[2], pts[3]),
        ]
        if all(d != 0 for d in dets):
            return pts, dets


# ---------------------------------------------------------------------------
# quadrangle and pencil identities


def test_diagonal_triangle_determinant_form():
    # cross-of-cross construction equals the determinant combination
    rng = Random(101)
    for _ in range(6):
        pts, _ = general_quadrangle(rng)
        x1, x2, x3, x4 = pts
        d123 = det3(x1, x2, x3)
        d124 = det3(x1, x2, x4)
        d134 = det3(x1, x3, x4)
        xi1, xi2, xi3 = diag_triangle(*pts)
        assert xi1 == tuple(d124 * a - d123 * b for a, b in zip(x3, x4))
        assert xi2 == tuple(d134 * a + d123 * b for a, b in zip(x2, x4))
        assert xi3 == tuple(d124 * a - d134 * b for a, b in zip(x3, x2))


def test_pencil_contains_the_quadrangle():
    rng = Random(102)
    for _ in range(6):
        pts, _ = general_quadrangle(rng)
        xi = diag_triangle(*pts)
        for s in (F(2), F(-1, 3), F(7, 5)):
            m6 = pencil(xi, s)
            for x in pts:
                assert quad_eval(m6, x) == 0


def test_pencil_determinant_factors():
    # det C(s) = -s (s-1) det([xi])^4: members degenerate exactly at 0, 1, inf
    rng = Random(103)
    for _ in range(6):
        pts, _ = general_quadrangle(rng)
        xi = diag_triangle(*pts)
        dxi = det3(*xi)
        assert dxi != 0
        for s in (F(3), F(-2, 7), F(1, 2)):
            assert mat_det(sym_matrix(pencil(xi, s))) == -s * (s - 1) * dxi ** 4
        assert mat_det(sym_matrix(pencil(xi, F(0)))) == 0
        assert mat_det(sym_matrix(pencil(xi, F(1)))) == 0


def test_tangency_form_is_the_stated_quadratic():
    # l^T adj(C(s)) l = det([xi])^2 (L1 (s-1) - L2 s - L3 s (s-1))
    rng = Random(104)
    for _ in range(6):
        pts, _ = general_quadrangle(rng)
        xi = diag_triangle(*pts)
        dxi = det3(*xi)
        l = rand_vec(rng)
        L1, L2, L3 = (dot(x, l) ** 2 for x in xi)
        for s in (F(4), F(-5, 3)):
            adj = mat_adjugate(sym_matrix(pencil(xi, s)))
            lhs = dot(l, tuple(dot(adj[i], l) for i in range(3)))
            rhs = dxi ** 2 * (L1 * (s - 1) - L2 * s - L3 * s * (s - 1))
            assert lhs == rhs


def test_tangency_discriminant_is_the_sign_product():
    # (L1 - L2 + L3)^2 - 4 L3 L1 = 16 (four point dets) (four incidences)
    rng = Random(105)
    for _ in range(8):
        pts, dets = general_quadrangle(rng)
        l = rand_vec(rng)
        xi = diag_triangle(*pts)
        L1, L2, L3 = (dot(x, l) ** 2 for x in xi)
        disc = (L1 - L2 + L3) ** 2 - 4 * L3 * L1
        prod = 16 * dets[0] * dets[1] * dets[2] * dets[3]
        for x in pts:
            prod *= dot(x, l)
        assert disc == prod


def test_incident_point_forces_double_root():
    rng = Random(106)
    pts, _ = general_quadrangle(rng)
    # line through the first point
    other = rand_point(rng)
    l = cross(pts[0], other)
    xi = diag_triangle(*pts)
    L1, L2, L3 = (dot(x, l) ** 2 for x in xi)
    assert (L1 - L2 + L3) ** 2 - 4 * L3 * L1 == 0


def test_vertex_incidence_root_structure():
    # through xi1: roots {0, (L3-L2)/L3}; through xi2: {1, L1/L3};
    # through xi3: the quadratic drops to linear with root L1/(L1-L2)
    rng = Random(107)
    pts, _ = general_quadrangle(rng)
    xi = diag_triangle(*pts)
    other = rand_vec(rng)

    def quad(l):
        L1, L2, L3 = (dot(x, l) ** 2 for x in xi)
        return L3, -(L1 - L2 + L3), L1

    q2, q1, q0 = quad(cross(xi[0], other))
    assert q0 == 0  # s = 0 is a root
    q2, q1, q0 = quad(cross(xi[1], other))
    assert q2 + q1 + q0 == 0  # s = 1 is a root
    q2, q1, q0 = quad(cross(xi[2], other))
    assert q2 == 0  # linear


# ---------------------------------------------------------------------------
# three-point/two-line identities


def scalars(x1, x2, x3, l1, l2):
    p = cross(l1, l2)
    A = det3(p, x2, x3)
    B = det3(x1, p, x3)
    C = det3(x1, x2, p)
    D = det3(x1, x2, x3)
    a = (dot(x1, l1), dot(x1, l2))
    b = (dot(x2, l1), dot(x2, l2))
    c = (dot(x3, l1), dot(x3, l2))
    return p, A, B, C, D, a, b, c


def general_3p2l(rng):
    while True:
        x1, x2, x3 = (rand_point(rng) for _ in range(3))
        l1, l2 = rand_vec(rng), rand_vec(rng)
        p, A, B, C, D, a, b, c = scalars(x1, x2, x3, l1, l2)
        if 0 in (A, B, C, D) or 0 in a or 0 in b or 0 in c or p[2] == 0:
            continue
        return (x1, x2, x3), (l1, l2), (p, A, B, C, D, a, b, c)


def test_barycentric_identity():
    # A x1^T l + B x2^T l + C x3^T l = 0 for l in {l1, l2}
    rng = Random(108)
    for _ in range(8):
        _, _, (p, A, B, C, D, a, b, c) = general_3p2l(rng)
        for i in (0, 1):
            assert A * a[i] + B * b[i] + C * c[i] == 0


def test_case1_closed_form_is_tangent():
    # one point on each line: s = 1/2, t = -A/(2D), x4 = t x1 + p
    rng = Random(109)
    for _ in range(5):
        while True:
            l1, l2 = rand_vec(rng), rand_vec(rng)
            p = cross(l1, l2)
            x1 = rand_point(rng)
            u = rand_point(rng)
            v = rand_point(rng)
            x2 = cross(l1, cross(u, v))  # some point on l1
            x3 = cross(l2, cross(u, x1))  # some point on l2
            if p[2] == 0 or x2[2] == 0 or x3[2] == 0:
                continue
            D = det3(x1, x2, x3)
            A = det3(p, x2, x3)
            if D == 0 or A == 0:
                continue
            break
        t = -A / (2 * D)
        x4 = tuple(t * w + q for w, q in zip(x1, p))
        xi = diag_triangle(x1, x2, x3, x4)
        m6 = pencil(xi, F(1, 2))
        adj = mat_adjugate(sym_matrix(m6))
        for l in (l1, l2):
            assert dot(l, tuple(dot(adj[i], l) for i in range(3))) == 0
        for x in (x1, x2, x3):
            assert quad_eval(m6, x) == 0


def test_case2_closed_form_is_tangent():
    # x1, x2 collinear with p and x3 on l1: s = 2, x4 = t p + q, q = p x l2
    rng = Random(110)
    for _ in range(5):
        while True:
            l1, l2 = rand_vec(rng), rand_vec(rng)
            p = cross(l1, l2)
            if p[2] == 0:
                continue
            x1 = rand_point(rng)
            u = F(rng.randint(1, 5), rng.randint(1, 3))
            pa = (p[0] / p[2], p[1] / p[2], F(1))
            x2 = tuple(e + u * (f - e) for e, f in zip(x1, pa))
            w = rand_point(rng)
            v = rand_point(rng)
            x3 = cross(l1, cross(w, v))
            if x3[2] == 0:
                continue
            _, A, B, C, D, a, b, c = scalars(x1, x2, x3, l1, l2)
            assert C == 0  # forced by the collinearity with p
            if 0 in (B, D) or b[1] == 0 or 0 in a:
                continue
            break
        q = cross(p, l2)
        t = (det3(q, x2, x3) * a[1] - det3(x1, q, x3) * b[1]) / (2 * B * b[1])
        x4 = tuple(t * r + s for r, s in zip(p, q))
        xi = diag_triangle(x1, x2, x3, x4)
        m6 = pencil(xi, F(2))
        adj = mat_adjugate(sym_matrix(m6))
        for l in (l1, l2):
            assert dot(l, tuple(dot(adj[i], l) for i in range(3))) == 0
        for x in (x1, x2, x3):
            assert quad_eval(m6, x) == 0


class SqrtExt:
    """Exact arithmetic in Q(sqrt(d)), elements u + v sqrt(d)."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v, d):
        self.u, self.v, self.d = F(u), F(v), d

    def _lift(self, other):
        if isinstance(other, SqrtExt):
            return other
        return SqrtExt(other, 0, self.d)

    def __add__(self, o):
        o = self._lift(o)
        return SqrtExt(self.u + o.u, self.v + o.v, self.d)

    __radd__ = __add__

    def __neg__(self):
        return SqrtExt(-self.u, -self.v, self.d)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = self._lift(o)
        return SqrtExt(
            self.u * o.u + self.d * self.v * o.v,
            self.u * o.v + self.v * o.u,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        n = o.u * o.u - o.d * o.v * o.v
        return self * SqrtExt(o.u / n, -o.v / n, self.d)

    def __eq__(self, o):
        o = self._lift(o)
        return self.u == o.u and self.v == o.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __pow__(self, n):
        out = SqrtExt(1, 0, self.d)
        for _ in range(n):
            out = out * self
        return out


def lift_vec(v, d):
    return tuple(SqrtExt(x, 0, d) for x in v)


def member_checks(x1, x2, x3, x4, s, l1, l2):
    """Pencil member at s passes through the points and touches both lines."""
    xi = diag_triangle(x1, x2, x3, x4)
    m6 = pencil(xi, s)
    adj = mat_adjugate(sym_matrix(m6))
    zero = m6[0] - m6[0]
    for x in (x1, x2, x3, x4):
        assert quad_eval(m6, x) == zero
    for l in (l1, l2):
        assert dot(l, tuple(dot(adj[i], l) for i in range(3))) == zero
    return xi, m6


def test_case3_roots_solve_both_tangencies():
    # x2, x3 collinear with p: x4 = t x1 + p with t^2 = C^2 c1 c2 / (D^2 a1 a2)
    # gives one member tangent to both lines, worked in Q(sqrt(d))
    rng = Random(111)
    done = 0
    for _ in range(200):
        if done >= 5:
            break
        l1, l2 = rand_vec(rng), rand_vec(rng)
        p = cross(l1, l2)
        if p[2] == 0:
            continue
        pa = (p[0] / p[2], p[1] / p[2], F(1))
        x2 = rand_point(rng)
        u = F(rng.randint(1, 5), rng.randint(1, 3))
        x3 = tuple(e + u * (f - e) for e, f in zip(x2, pa))
        x1 = rand_point(rng)
        _, A, B, C, D, a, b, c = scalars(x1, x2, x3, l1, l2)
        if 0 in (B, C, D) or 0 in a or 0 in b or 0 in c:
            continue
        assert A == 0  # forced by the collinearity
        d = a[0] * a[1] * c[0] * c[1]
        if d <= 0:
            continue  # the complex branch has nothing to materialize exactly
        done += 1
        for sgn in (1, -1):
            t = SqrtExt(0, sgn * C / (D * a[0] * a[1]), d)
            assert t * t == C * C * c[0] * c[1] / (D * D * a[0] * a[1])
            x1q, x2q, x3q = (lift_vec(v, d) for v in (x1, x2, x3))
            l1q, l2q = lift_vec(l1, d), lift_vec(l2, d)
            pq = lift_vec(p, d)
            x4 = tuple(t * w + q for w, q in zip(x1q, pq))
            xi = diag_triangle(x1q, x2q, x3q, x4)
            # the third vertex rides the crossing: incident with both lines
            assert dot(xi[2], l1q) == SqrtExt(0, 0, d)
            assert dot(xi[2], l2q) == SqrtExt(0, 0, d)
            L1 = dot(xi[0], l1q) ** 2
            L2 = dot(xi[1], l1q) ** 2
            s = L1 / (L1 - L2)
            # the same parameter comes out of either line
            R1 = dot(xi[0], l2q) ** 2
            R2 = dot(xi[1], l2q) ** 2
            assert s == R1 / (R1 - R2)
            member_checks(x1q, x2q, x3q, x4, s, l1q, l2q)
    assert done == 5


def test_case4_roots_solve_both_tangencies():
    # x3 on l1: roots of 4 D^2 a2 t^2 + 4 D A a2 t - A C c2 with s = -(D/A) t,
    # worked in Q(sqrt(-A B a2 b2))
    rng = Random(115)
    done = 0
    for _ in range(200):
        if done >= 5:
            break
        l1, l2 = rand_vec(rng), rand_vec(rng)
        p = cross(l1, l2)
        if p[2] == 0:
            continue
        x1, x2 = rand_point(rng), rand_point(rng)
        w, v = rand_point(rng), rand_point(rng)
        x3 = cross(l1, cross(w, v))
        if x3[2] == 0:
            continue
        _, A, B, C, D, a, b, c = scalars(x1, x2, x3, l1, l2)
        assert c[0] == 0  # constructed on the first line
        if 0 in (A, B, C, D) or 0 in a or 0 in b or c[1] == 0:
            continue
        d = -A * B * a[1] * b[1]
        if d <= 0:
            continue
        done += 1
        q2, q1, q0 = 4 * D * D * a[1], 4 * D * A * a[1], -A * C * c[1]
        assert q1 * q1 - 4 * q2 * q0 == 16 * D * D * d
        for sgn in (1, -1):
            t = SqrtExt(-q1 / (2 * q2), sgn * 2 * D / q2, d)
            assert q2 * t * t + q1 * t + q0 == SqrtExt(0, 0, d)
            s = -(D / A) * t
            x1q, x2q, x3q = (lift_vec(vv, d) for vv in (x1, x2, x3))
            x4 = tuple(t * ww + qq for ww, qq in zip(x1q, lift_vec(p, d)))
            member_checks(x1q, x2q, x3q, x4, s, lift_vec(l1, d), lift_vec(l2, d))
    assert done == 5


def test_case4_discriminant_reduction():
    # (4 D A a2)^2 + 16 D^2 a2 A C c2 = -16 D^2 A B a2 b2
    rng = Random(112)
    for _ in range(8):
        _, _, (p, A, B, C, D, a, b, c) = general_3p2l(rng)
        lhs = (4 * D * A * a[1]) ** 2 + 16 * D * D * a[1] * A * C * c[1]
        assert lhs == -16 * D * D * A * B * a[1] * b[1]


def coord_matrix(A, B, C, D, ai, bi, ci):
    c1 = A * A * ai * ai
    c2 = D * ai * (C * ci - B * bi)
    c3 = A * C * ai * ci
    c4 = D * D * ai * ai
    c5 = -C * D * ai * ci
    c6 = C * C * ci * ci
    return ((c1, c2, c3), (c2, c4, c5), (c3, c5, c6))


def test_case5_eigenvalues_are_side_ratios():
    # det(lam M1 - M2) = 0 at lam in {a2 b2 / a1 b1, a2 c2 / a1 c1, b2 c2 / b1 c1}
    rng = Random(113)
    for _ in range(6):
        _, _, (p, A, B, C, D, a, b, c) = general_3p2l(rng)
        m1 = coord_matrix(A, B, C, D, a[0], b[0], c[0])
        m2 = coord_matrix(A, B, C, D, a[1], b[1], c[1])
        for lam in (
            a[1] * b[1] / (a[0] * b[0]),
            a[1] * c[1] / (a[0] * c[0]),
            b[1] * c[1] / (b[0] * c[0]),
        ):
            member = tuple(
                tuple(lam * u - v for u, v in zip(r1, r2)) for r1, r2 in zip(m1, m2)
            )
            assert mat_det(member) == 0


def test_case5_tangency_form_factors():
    # with X = A s, Y = D t, U = X - Y, P = X Y, g = C c_j / a_j and
    # beta = 4 B b_j / (A a_j), tangency form j at (s, t, 1) equals
    # a_j^2 [(U + g)^2 - beta P]; the barycentric identity makes it so
    rng = Random(115)
    for _ in range(6):
        _, _, (p, A, B, C, D, a, b, c) = general_3p2l(rng)
        for j in (0, 1):
            m = coord_matrix(A, B, C, D, a[j], b[j], c[j])
            g = C * c[j] / a[j]
            beta = 4 * B * b[j] / (A * a[j])
            for s, t in ((F(2), F(-1, 3)), (F(7, 5), F(3)), (F(-5, 2), F(1, 7))):
                v = (s, t, F(1))
                U, P = A * s - D * t, A * s * D * t
                assert dot(v, tuple(dot(row, v) for row in m)) == a[j] ** 2 * ((U + g) ** 2 - beta * P)


def test_case5_eliminant_discriminant():
    # eliminating P between the two factored forms leaves
    # (beta1 - beta0) U^2 + 2 (beta1 g0 - beta0 g1) U + (beta1 g0^2 - beta0 g1^2),
    # whose discriminant is 4 beta0 beta1 (g0 - g1)^2: a sign product
    rng = Random(116)
    for _ in range(6):
        _, _, (p, A, B, C, D, a, b, c) = general_3p2l(rng)
        g = [C * c[j] / a[j] for j in (0, 1)]
        beta = [4 * B * b[j] / (A * a[j]) for j in (0, 1)]
        q2 = beta[1] - beta[0]
        q1 = 2 * (beta[1] * g[0] - beta[0] * g[1])
        q0 = beta[1] * g[0] ** 2 - beta[0] * g[1] ** 2
        assert q1 * q1 - 4 * q2 * q0 == 4 * beta[0] * beta[1] * (g[0] - g[1]) ** 2


def test_adjugate_involution():
    # adj(adj(M)) = det(M) M for 3x3 symmetric
    rng = Random(114)
    for _ in range(8):
        m6 = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6))
        m = sym_matrix(m6)
        adj2 = mat_adjugate(mat_adjugate(m))
        d = mat_det(m)
        for i in range(3):
            for j in range(3):
                assert adj2[i][j] == d * m[i][j]
