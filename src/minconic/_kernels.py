"""Fixed-size kernels of the solvers: float math on plain tuples.

The diagonal (self-polar) triangle, the pencil member and the five-point
conic are closed forms in a handful of cross and dot products, written out
as straight-line code on unpacked scalars: the same float operations, in the
same order, as the cross and dot products they are made of. The triangle
comes bare (diag_vertices) or with its cancellation alarm (diag_triangle).
conic_from_pencil is the one pencil-member formula: the 4p1l and 3p2l
builders of `solvers` and `oracle.scan_tangency_roots` call it. The 3p2l
builder writes its triangles out in the float operations of diag_vertices,
so that the sides a quadrangle keeps from root to root are computed once.
No solve or predict takes the alarm. diag_triangle and conic_from_pencil
are also wrapped by perfbench/spans.py `LAYERS`, and perfbench/run.py reads
their `kernels.diag_triangle.*` and `kernels.conic_from_pencil.*` metrics.
Symmetric 3x3 matrices travel as 6-tuples (m11, m12, m22, m13, m23, m33).
"""

#: the kernel implementation, named in every `minconic solve` report
BACKEND = "python"


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a, b, c):
    """Determinant of the 3x3 matrix whose columns are a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def norm3(a):
    return (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]) ** 0.5


def diag_vertices(x1, x2, x3, x4):
    """Diagonal-triangle vertices (xi1, xi2, xi3) of the quadrangle x1 x2 x3 x4:
    each the meet of two opposite sides, nine cross products in all."""
    a0, a1, a2 = x1
    b0, b1, b2 = x2
    c0, c1, c2 = x3
    d0, d1, d2 = x4
    # the opposite sides x1x2 / x3x4, x1x3 / x2x4 and x1x4 / x2x3
    p0, p1, p2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    q0, q1, q2 = c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0
    r0, r1, r2 = a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0
    s0, s1, s2 = b1 * d2 - b2 * d1, b2 * d0 - b0 * d2, b0 * d1 - b1 * d0
    t0, t1, t2 = a1 * d2 - a2 * d1, a2 * d0 - a0 * d2, a0 * d1 - a1 * d0
    u0, u1, u2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    return (
        (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0),
        (r1 * s2 - r2 * s1, r2 * s0 - r0 * s2, r0 * s1 - r1 * s0),
        (t1 * u2 - t2 * u1, t2 * u0 - t0 * u2, t0 * u1 - t1 * u0),
    )


def diag_triangle(x1, x2, x3, x4):
    """Diagonal-triangle vertices of the quadrangle x1 x2 x3 x4.

    Returns (xi1, xi2, xi3, dev): the vertices of diag_vertices and dev, the
    worst relative deviation between them and the equivalent determinant
    combination. dev is a cancellation alarm: it stays near machine epsilon
    for healthy quadrangles. No solve or predict calls this; perfbench/spans.py
    `LAYERS` names it.
    """
    xi1, xi2, xi3 = diag_vertices(x1, x2, x3, x4)
    a0, a1, a2 = x1
    b0, b1, b2 = x2
    c0, c1, c2 = x3
    d0, d1, d2 = x4
    # the sides x1x2 and x1x3, and their determinants with x3 and x4
    p0, p1, p2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    r0, r1, r2 = a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0
    d123 = p0 * c0 + p1 * c1 + p2 * c2
    d124 = p0 * d0 + p1 * d1 + p2 * d2
    d134 = r0 * d0 + r1 * d1 + r2 * d2
    m123, m134 = -d123, -d134
    # xi1 = d124 x3 - d123 x4, xi2 = d134 x2 + d123 x4, xi3 = d124 x3 - d134 x2
    e0, e1, e2 = xi1
    f0, f1, f2 = xi2
    g0, g1, g2 = xi3
    se = max(abs(e0), abs(e1), abs(e2), 1e-300)
    sf = max(abs(f0), abs(f1), abs(f2), 1e-300)
    sg = max(abs(g0), abs(g1), abs(g2), 1e-300)
    dev = max(
        0.0,
        abs(e0 - (d124 * c0 + m123 * d0)) / se,
        abs(e1 - (d124 * c1 + m123 * d1)) / se,
        abs(e2 - (d124 * c2 + m123 * d2)) / se,
        abs(f0 - (d134 * b0 + d123 * d0)) / sf,
        abs(f1 - (d134 * b1 + d123 * d1)) / sf,
        abs(f2 - (d134 * b2 + d123 * d2)) / sf,
        abs(g0 - (d124 * c0 + m134 * b0)) / sg,
        abs(g1 - (d124 * c1 + m134 * b1)) / sg,
        abs(g2 - (d124 * c2 + m134 * b2)) / sg,
    )
    return xi1, xi2, xi3, dev


def conic_from_pencil(xi1, xi2, xi3, s):
    """Pencil member through the quadrangle behind (xi1, xi2, xi3).

    Computes adj^T Diag(-s, s-1, 1) adj where adj is the adjugate of the
    matrix with columns xi1, xi2, xi3; this is det^2 times the inverse
    sandwich, so it is the same projective conic. Each off-diagonal entry is
    summed from 0.0, which turns a -0.0 sum into 0.0; a diagonal entry ends
    in a square, so it cannot sum to -0.0.
    """
    e0, e1, e2 = xi1
    f0, f1, f2 = xi2
    g0, g1, g2 = xi3
    # the adjugate's rows xi2 x xi3, xi3 x xi1, xi1 x xi2
    u0, u1, u2 = f1 * g2 - f2 * g1, f2 * g0 - f0 * g2, f0 * g1 - f1 * g0
    v0, v1, v2 = g1 * e2 - g2 * e1, g2 * e0 - g0 * e2, g0 * e1 - g1 * e0
    w0, w1, w2 = e1 * f2 - e2 * f1, e2 * f0 - e0 * f2, e0 * f1 - e1 * f0
    # weights -s, s - 1 and 1
    ku, kv = -s, s - 1.0
    ku0, ku1, ku2 = ku * u0, ku * u1, ku * u2
    kv0, kv1, kv2 = kv * v0, kv * v1, kv * v2
    return (
        ku0 * u0 + kv0 * v0 + w0 * w0,
        0.0 + ku0 * u1 + kv0 * v1 + w0 * w1,
        ku1 * u1 + kv1 * v1 + w1 * w1,
        0.0 + ku0 * u2 + kv0 * v2 + w0 * w2,
        0.0 + ku1 * u2 + kv1 * v2 + w1 * w2,
        ku2 * u2 + kv2 * v2 + w2 * w2,
    )


def conic_from_five_points(x1, x2, x3, x4, x5):
    """Unique conic through five points, fitted on the diagonal triangle of
    x1..x4 (see diag_vertices); returns its sym6, or None when the
    triangle's determinant, its divisor, is exactly 0.0 (an underflow);
    callers decide what that means. Each entry is summed from 0.0, which
    turns a -0.0 sum into 0.0.
    """
    xi1, xi2, xi3 = diag_vertices(x1, x2, x3, x4)
    e0, e1, e2 = xi1
    f0, f1, f2 = xi2
    g0, g1, g2 = xi3
    u0, u1, u2 = f1 * g2 - f2 * g1, f2 * g0 - f0 * g2, f0 * g1 - f1 * g0
    v0, v1, v2 = g1 * e2 - g2 * e1, g2 * e0 - g0 * e2, g0 * e1 - g1 * e0
    w0, w1, w2 = e1 * f2 - e2 * f1, e2 * f0 - e0 * f2, e0 * f1 - e1 * f0
    d = u0 * e0 + u1 * e1 + u2 * e2
    if d == 0.0:
        return None
    h0, h1, h2 = x5
    b1 = (u0 * h0 + u1 * h1 + u2 * h2) / d
    b2 = (v0 * h0 + v1 * h1 + v2 * h2) / d
    b3 = (w0 * h0 + w1 * h1 + w2 * h2) / d
    ku, kv, kw = b3 * b3 - b2 * b2, b1 * b1 - b3 * b3, b2 * b2 - b1 * b1
    ku0, ku1, ku2 = ku * u0, ku * u1, ku * u2
    kv0, kv1, kv2 = kv * v0, kv * v1, kv * v2
    kw0, kw1, kw2 = kw * w0, kw * w1, kw * w2
    return (
        0.0 + ku0 * u0 + kv0 * v0 + kw0 * w0,
        0.0 + ku0 * u1 + kv0 * v1 + kw0 * w1,
        0.0 + ku1 * u1 + kv1 * v1 + kw1 * w1,
        0.0 + ku0 * u2 + kv0 * v2 + kw0 * w2,
        0.0 + ku1 * u2 + kv1 * v2 + kw1 * w2,
        0.0 + ku2 * u2 + kv2 * v2 + kw2 * w2,
    )


def sym_adjugate(m):
    m11, m12, m22, m13, m23, m33 = m
    return (
        m22 * m33 - m23 * m23,
        m13 * m23 - m12 * m33,
        m11 * m33 - m13 * m13,
        m12 * m23 - m22 * m13,
        m12 * m13 - m11 * m23,
        m11 * m22 - m12 * m12,
    )


def sym_det(m):
    m11, m12, m22, m13, m23, m33 = m
    return (
        m11 * (m22 * m33 - m23 * m23)
        - m12 * (m12 * m33 - m23 * m13)
        + m13 * (m12 * m23 - m22 * m13)
    )


def sym_eval(m, v):
    """Quadratic form v^T M v for a sym6 matrix."""
    m11, m12, m22, m13, m23, m33 = m
    v1, v2, v3 = v
    return (
        m11 * v1 * v1
        + m22 * v2 * v2
        + m33 * v3 * v3
        + 2.0 * (m12 * v1 * v2 + m13 * v1 * v3 + m23 * v2 * v3)
    )
