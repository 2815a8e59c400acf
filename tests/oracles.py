"""Oracles that share no code with the package they check.

They import nothing from ``sglink``.  The determinant and the divisors
work on plain lists of rows, so a fault in ``IntMatrix.det`` or in the SNF
reduction cannot pass a check and its oracle alike; the boundary reads
only a diagram's edges and a cycle's coefficients.
"""

from itertools import combinations
from math import gcd

MINOR_LIMIT = 6  # the minors are enumerated, so min(rows, cols) stays small


def cofactor_det(m) -> int:
    """Determinant of a square list of rows by cofactor expansion along the
    first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def divisors_via_minors(rows) -> list[int]:
    """Elementary divisors of a matrix given as a sequence of rows, from
    gcds of its k x k minors.

    d_k = g_k / g_{k-1}, where g_k is the gcd of all k x k minors (g_0 = 1),
    truncated at the first k whose minors all vanish.
    """
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    limit = min(n_rows, n_cols)
    if limit > MINOR_LIMIT:
        raise ValueError(f"minor oracle supports min dimension <= {MINOR_LIMIT}, got {limit}")
    out = []
    g_prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rs in combinations(range(n_rows), k):
            for cs in combinations(range(n_cols), k):
                g = gcd(g, cofactor_det([[rows[i][j] for j in cs] for i in rs]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // g_prev)
        g_prev = g
    return out


def boundary(d, cycle) -> dict[str, int]:
    """Signed incidence sum at every vertex; all zero for a genuine cycle.

    Incidence of an edge at a vertex is +1 at its head plus -1 at its tail,
    so loops contribute nothing.
    """
    sums: dict[str, int] = {}
    for eid, coeff in cycle.coeffs.items():
        e = d.edge_map[eid]
        sums[e.head] = sums.get(e.head, 0) + coeff
        sums[e.tail] = sums.get(e.tail, 0) - coeff
    return {v: s for v, s in sums.items() if s != 0}
