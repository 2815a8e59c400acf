"""Checks of the program's outputs against facts computed here.

Nothing in this module imports sglink: determinants, gcds, products and
component ranks are recomputed with the benchmark's own exact arithmetic
and its own reading of the SGD text, so a fault in the program cannot
hide itself by agreeing with its own helpers.
"""

from __future__ import annotations

import json
from math import gcd, prod


class CheckError(Exception):
    """An output disagrees with an independently computed fact."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def entry_gcd(rows: list[list[int]]) -> int:
    g = 0
    for r in rows:
        for x in r:
            g = gcd(g, x)
    return g


def check_chain(ds: list[int]) -> None:
    require(all(d > 0 for d in ds), f"divisors {ds} are not positive")
    require(all(b % a == 0 for a, b in zip(ds, ds[1:])), f"divisors {ds} are not a divisibility chain")


def check_divisors_of(matrix: list[list[int]], ds: list[int]) -> int:
    """For a square nonsingular matrix: prod(ds) == |det| and ds[0] == gcd
    of entries.  Returns the determinant."""
    n = len(matrix)
    d = det(matrix)
    if d == 0:
        require(len(ds) < n, f"singular {n}x{n} matrix given {len(ds)} divisors")
        return d
    require(len(ds) == n, f"nonsingular {n}x{n} matrix given {len(ds)} divisors")
    require(prod(ds) == abs(d), f"product of divisors {prod(ds)} != |det| {abs(d)}")
    require(ds[0] == entry_gcd(matrix), f"first divisor {ds[0]} != gcd of entries")
    return d


def read_sgd(text: str) -> tuple[set[str], dict[str, tuple[str, str]], list[tuple[str, int, str, int]]]:
    """Vertices, edges (eid -> (tail, head)) and crossings
    ((over eid, idx, under eid, idx)) of SGD text."""
    vertices, edges, crossings = set(), {}, []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks or toks == ["sgd", "1"]:
            continue
        if toks[0] == "vertex":
            vertices.add(toks[1])
        elif toks[0] == "edge":
            require(toks[2] in vertices and toks[3] in vertices, f"edge {toks[1]} has an undeclared end")
            edges[toks[1]] = (toks[2], toks[3])
        elif toks[0] == "crossing":
            crossings.append((toks[3], int(toks[4]), toks[6], int(toks[7])))
        else:
            raise CheckError(f"unexpected SGD line {raw!r}")
    return vertices, edges, crossings


def component_ranks(text: str) -> list[int]:
    """E - V + 1 of every connected component, sorted, by union-find."""
    vertices, edges, _ = read_sgd(text)
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for tail, head in edges.values():
        parent[find(tail)] = find(head)
    count_v, count_e = {}, {}
    for v in vertices:
        count_v[find(v)] = count_v.get(find(v), 0) + 1
    for tail, _ in edges.values():
        count_e[find(tail)] = count_e.get(find(tail), 0) + 1
    return sorted(count_e.get(r, 0) - nv + 1 for r, nv in count_v.items())


def check_invariant(out: str, ranks: tuple[int, int], chain: tuple[int, ...]) -> None:
    """`invariant --json` on a diagram built from (ranks, chain) and walked."""
    p = json.loads(out)
    require(p["ranks"] == list(ranks), f"ranks {p['ranks']} != {list(ranks)}")
    require(p["divisors"] == list(chain), f"divisors {p['divisors']} != chain {list(chain)}")
    require(p["over_under_consistent"] is True, "over/under counts disagree")
    matrix = p["matrix"]
    require(len(matrix) == ranks[0] and all(len(r) == ranks[1] for r in matrix), "matrix shape")
    if ranks[0] == ranks[1] and len(chain) == ranks[0]:
        check_divisors_of(matrix, p["divisors"])


def check_perturb(out: str, source: str, steps: int, chain: tuple[int, ...]) -> None:
    """`perturb --json`: chain kept, N moves listed, component ranks unchanged."""
    p = json.loads(out)
    require(p["invariant"] == (" ".join(map(str, chain)) or "0"),
            f"invariant {p['invariant']!r} != chain {chain}")
    require(len(p["moves"]) == steps, f"{len(p['moves'])} moves listed, {steps} asked for")
    require(component_ranks(p["sgd"]) == component_ranks(source), "component ranks changed")


def check_snf(out: str, matrix: list[list[int]], chain: tuple[int, ...] | None) -> None:
    """`snf --json`: U M V == D, unimodular U and V, D diagonal with the chain."""
    p = json.loads(out)
    u, d, v, ds = p["U"], p["D"], p["V"], p["divisors"]
    n = len(matrix)
    check_chain(ds)
    require(matmul(matmul(u, matrix), v) == d, "U M V != D")
    require(all(d[i][j] == (ds[i] if i == j and i < len(ds) else 0)
                for i in range(n) for j in range(n)), "D is not diag(divisors)")
    if chain is not None:
        require(tuple(ds) == chain, f"divisors {ds} != building chain {list(chain)}")
    if check_divisors_of(matrix, ds):
        # det U * det M * det V == det D == +-det M, so |det U * det V| == 1
        # and both are units; this is exact and avoids the cost of
        # eliminating transforms with thousand-bit entries.
        return
    require(abs(det(u)) == 1 and abs(det(v)) == 1, "transforms are not unimodular")


def check_long_edge(out: str, k: int) -> None:
    """`canonical 1 1 k`: two loops with 2k crossings, passages 0..2k-1 on each."""
    _, edges, crossings = read_sgd(out)
    require(len(edges) == 2 and all(t == h for t, h in edges.values()), "expected two loops")
    require(len(crossings) == 2 * k, f"{len(crossings)} crossings, expected {2 * k}")
    for eid in edges:
        idx = sorted([i for e, i, _, _ in crossings if e == eid] + [j for _, _, f, j in crossings if f == eid])
        require(idx == list(range(2 * k)), f"passages on {eid} are not 0..{2 * k - 1}")
