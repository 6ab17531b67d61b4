"""Fixed-size kernels of the solvers: float math on plain tuples.

The diagonal (self-polar) triangle, the pencil member and the five-point
conic are closed forms in a handful of cross and dot products. The triangle
comes bare (diag_vertices) or with its cancellation alarm (diag_triangle),
which is most of the cost of diag_triangle; a caller that builds several
triangles of one input can take the alarm once. Symmetric 3x3 matrices
travel as 6-tuples (m11, m12, m22, m13, m23, m33).
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
    return (
        cross(cross(x1, x2), cross(x3, x4)),
        cross(cross(x1, x3), cross(x2, x4)),
        cross(cross(x1, x4), cross(x2, x3)),
    )


def diag_triangle(x1, x2, x3, x4):
    """Diagonal-triangle vertices of the quadrangle x1 x2 x3 x4.

    Returns (xi1, xi2, xi3, dev): the vertices of diag_vertices, and dev, the
    worst relative deviation between that cross-product construction and the
    equivalent determinant combination. dev is a cancellation alarm: it stays
    near machine epsilon for healthy quadrangles.
    """
    xi1, xi2, xi3 = diag_vertices(x1, x2, x3, x4)
    s12 = cross(x1, x2)
    s13 = cross(x1, x3)
    d123 = dot3(s12, x3)
    d124 = dot3(s12, x4)
    d134 = dot3(s13, x4)
    dev = 0.0
    for xi, (ka, va, kb, vb) in (
        (xi1, (d124, x3, -d123, x4)),
        (xi2, (d134, x2, d123, x4)),
        (xi3, (d124, x3, -d134, x2)),
    ):
        scale = max(abs(xi[0]), abs(xi[1]), abs(xi[2]), 1e-300)
        for i in range(3):
            alt = ka * va[i] + kb * vb[i]
            err = abs(xi[i] - alt) / scale
            if err > dev:
                dev = err
    return xi1, xi2, xi3, dev


def _axpy_outer(acc, k, v):
    return (
        acc[0] + k * v[0] * v[0],
        acc[1] + k * v[0] * v[1],
        acc[2] + k * v[1] * v[1],
        acc[3] + k * v[0] * v[2],
        acc[4] + k * v[1] * v[2],
        acc[5] + k * v[2] * v[2],
    )


def conic_from_pencil(xi1, xi2, xi3, s):
    """Pencil member through the quadrangle behind (xi1, xi2, xi3).

    Computes adj^T Diag(-s, s-1, 1) adj where adj is the adjugate of the
    matrix with columns xi1, xi2, xi3; this is det^2 times the inverse
    sandwich, so it is the same projective conic.
    """
    u = cross(xi2, xi3)
    v = cross(xi3, xi1)
    w = cross(xi1, xi2)
    m = (0.0,) * 6
    m = _axpy_outer(m, -s, u)
    m = _axpy_outer(m, s - 1.0, v)
    m = _axpy_outer(m, 1.0, w)
    return m


def conic_from_five_points(x1, x2, x3, x4, x5):
    """Unique conic through five points; returns (sym6, dev).

    dev is the deviation of the diagonal triangle of x1..x4 (see
    diag_triangle). sym6 is None when the triangle's determinant, its
    divisor, is exactly 0.0 (an underflow); callers decide what that means.
    """
    xi1, xi2, xi3, dev = diag_triangle(x1, x2, x3, x4)
    u = cross(xi2, xi3)
    v = cross(xi3, xi1)
    w = cross(xi1, xi2)
    d = dot3(u, xi1)
    if d == 0.0:
        return None, dev
    b1 = dot3(u, x5) / d
    b2 = dot3(v, x5) / d
    b3 = dot3(w, x5) / d
    m = (0.0,) * 6
    m = _axpy_outer(m, b3 * b3 - b2 * b2, u)
    m = _axpy_outer(m, b1 * b1 - b3 * b3, v)
    m = _axpy_outer(m, b2 * b2 - b1 * b1, w)
    return m, dev


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
