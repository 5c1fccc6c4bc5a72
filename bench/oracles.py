"""Reference computations for the benchmark's output checks.

Nothing here imports zeromix.  Each routine takes plain vertex counts, edge
lists and matrices and computes its answer by a different method than the
package does:

- independence polynomials by branching on the lowest-numbered vertex with no
  component splitting (the package pivots on the highest degree and splits);
- matching polynomials of a base graph, for line graphs;
- homomorphism sums on grids by a row transfer matrix, and homomorphism
  polynomials on small graphs by explicit coloring products;
- exact root counts with sympy.
"""

from fractions import Fraction

import numpy as np


def neighbor_masks(n, edges):
    nbr = [0] * n
    for u, w in edges:
        nbr[u] |= 1 << w
        nbr[w] |= 1 << u
    return nbr


def _add_shifted(a, b):
    # a(x) + x * b(x)
    out = list(a) + [0] * max(0, len(b) + 1 - len(a))
    for k, c in enumerate(b):
        out[k + 1] += c
    return out


def indep_poly(nbr, mask):
    """Integer coefficients of the independence polynomial of the subgraph
    induced by the vertex bitmask `mask`: I(S) = I(S - v) + x I(S - N[v])
    with v the lowest vertex of S."""
    memo = {0: [1]}

    def rec(m):
        got = memo.get(m)
        if got is not None:
            return got
        low = m & -m
        v = low.bit_length() - 1
        res = _add_shifted(rec(m ^ low), rec(m & ~(nbr[v] | low)))
        memo[m] = res
        return res

    return rec(mask)


def poly_value(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def cond_prob_exact(nbr, n, v, pins, lam):
    """Exact P(v occupied | pins) of the hard-core model at activity lam, as
    a Fraction.  pins maps vertices to 0 (empty) or 1 (occupied)."""
    lam = Fraction(lam)
    allowed = (1 << n) - 1
    for u, s in pins.items():
        allowed &= ~(1 << u)
        if s == 1:
            allowed &= ~nbr[u]
    if not (allowed >> v) & 1:
        return Fraction(0)
    den = poly_value(indep_poly(nbr, allowed), lam)
    num = lam * poly_value(indep_poly(nbr, allowed & ~(nbr[v] | (1 << v))), lam)
    return num / den


def matching_poly(n, edges):
    """Integer coefficients of sum over matchings M of x^|M|, by
    M(S) = M(S - v) + x * sum_{w ~ v, w in S} M(S - v - w), v lowest in S."""
    nbr = neighbor_masks(n, edges)
    memo = {0: [1]}

    def rec(m):
        got = memo.get(m)
        if got is not None:
            return got
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        res = list(rec(rest))
        partners = nbr[v] & rest
        while partners:
            b = partners & -partners
            partners ^= b
            res = _add_shifted(res, rec(rest ^ b))
        memo[m] = res
        return res

    return rec((1 << n) - 1)


def line_graph_edges(base_edges):
    """Vertices of the line graph are the indices of base_edges; two are
    adjacent when the base edges share an endpoint."""
    out = []
    for a in range(len(base_edges)):
        sa = set(base_edges[a])
        for b in range(a + 1, len(base_edges)):
            if sa & set(base_edges[b]):
                out.append((a, b))
    return out


def ball_vertices(nbr, v, radius):
    seen = 1 << v
    frontier = seen
    for _ in range(radius):
        grown = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            grown |= nbr[b.bit_length() - 1]
        frontier = grown & ~seen
        seen |= frontier
    return seen


def series_quotient(num, den, order):
    """Taylor coefficients of num(x) / den(x) through `order`; den[0] != 0.
    Exact when the inputs are ints or Fractions."""
    num = list(num) + [0] * (order + 1)
    den = list(den) + [0] * (order + 1)
    out = []
    for k in range(order + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def hardcore_ratio_series(nbr, v, order):
    """Exact Taylor coefficients of x I(H - N[v]) / I(H) on the ball H of
    radius `order` around v."""
    h = ball_vertices(nbr, v, order)
    den = indep_poly(nbr, h)
    num = [0] + indep_poly(nbr, h & ~(nbr[v] | (1 << v)))
    return series_quotient([Fraction(c) for c in num], den, order)


def hom_poly_brute(n, edges, C, pins, order):
    """Coefficients through z^order of sum over colorings c extending `pins`
    of prod_{(u,w)} (1 + z C[c_u, c_w]), by explicit coloring products."""
    C = np.asarray(C, dtype=complex)
    q = C.shape[0]
    free = [u for u in range(n) if u not in pins]
    grids = np.indices((q,) * len(free)).reshape(len(free), -1)
    rows = grids.shape[1]
    colors = np.empty((n, rows), dtype=np.int64)
    for u, c in pins.items():
        colors[u] = c
    for j, u in enumerate(free):
        colors[u] = grids[j]
    P = np.zeros((rows, order + 1), dtype=complex)
    P[:, 0] = 1.0
    for u, w in edges:
        c = C[colors[u], colors[w]][:, None]
        P[:, 1:] = P[:, 1:] + c * P[:, :-1]
    return P.sum(axis=0)


def _row_states(q, cols):
    return np.indices((q,) * cols).reshape(cols, -1).T


def hom_Z_grid(rows, cols, M, pins):
    """sum over colorings of the rows x cols grid (vertex i*cols + j) that
    extend `pins` of prod over grid edges of M[c_u, c_w], by a row transfer
    matrix."""
    M = np.asarray(M, dtype=complex)
    q = M.shape[0]
    states = _row_states(q, cols)
    within = np.ones(len(states), dtype=complex)
    for j in range(cols - 1):
        within *= M[states[:, j], states[:, j + 1]]
    between = np.ones((len(states), len(states)), dtype=complex)
    for j in range(cols):
        between *= M[states[:, j][:, None], states[:, j][None, :]]
    vec = None
    for i in range(rows):
        ok = np.ones(len(states), dtype=bool)
        for j in range(cols):
            c = pins.get(i * cols + j)
            if c is not None:
                ok &= states[:, j] == c
        row_w = np.where(ok, within, 0)
        vec = row_w if vec is None else (vec @ between) * row_w
    return complex(vec.sum())


def count_roots_in_rect(coeffs, rect):
    """Exact number of roots (with multiplicity) of the integer polynomial
    sum coeffs[k] x^k in the closed rectangle re_min..re_max x im_min..im_max."""
    import sympy

    x = sympy.Symbol("x")
    p = sympy.Poly(list(reversed(coeffs)), x)
    re_min, re_max, im_min, im_max = (sympy.Rational(str(t)) for t in rect)
    return int(p.count_roots(re_min + sympy.I * im_min, re_max + sympy.I * im_max))


def real_roots(coeffs):
    """All real roots with multiplicity, as floats in ascending order."""
    import sympy

    x = sympy.Symbol("x")
    p = sympy.Poly(list(reversed(coeffs)), x)
    return sorted(float(r) for r in p.real_roots())
