"""Acceptance suite.

Every check is exact (integer arithmetic, zero tolerance) and prints one
pass/fail line per criterion; run with ``pytest tests/test_acceptance.py -s``
to see them.  Randomized criteria use fixed seeds, so the suite is
deterministic end to end.
"""

import random
from functools import lru_cache
from importlib import import_module
from pathlib import Path

import sglink.cli as cli
from gen import (
    divisor_chains,
    moved,
    passage_counts,
    random_chain,
    random_diagram,
    random_matrix,
    random_unimodular,
    transposed,
)
from oracles import divisors_via_minors
from sglink import (
    LkInvariant,
    Result,
    canonical_diagram,
    classify,
    cycle_basis,
    diagram_invariant,
    linking_matrix,
    linking_number,
    over_under_consistent,
    parse_sgd,
    serialize_sgd,
    smith_normal_form,
    verify_certificate,
)
from sglink.homology import Cycle
from sglink.moves import random_homotopy_walk, walk_steps

DATA = Path(__file__).parent / "data"
# the module, not the function that ``sglink.classify`` names
classify_module = import_module("sglink.classify")

MAX_RANK = 4  # canonical enumeration bound
MAX_DIVISOR = 12
WALK_SEEDS = 100
WALK_STEPS = 50


def _report(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({label}): {status}")
    assert not failures, (
        f"criterion {num} ({label}): {len(failures)} failing cases; first: {failures[0]!r}"
    )


@lru_cache(maxsize=1)
def _canonical_cases():
    """Exhaustive (m, n, chain, diagram) for m, n <= 4, divisors <= 12."""
    cases = []
    for m in range(MAX_RANK + 1):
        for n in range(MAX_RANK + 1):
            for chain in divisor_chains(min(m, n), MAX_DIVISOR):
                cases.append((m, n, chain, canonical_diagram(m, n, chain)))
    return cases


@lru_cache(maxsize=1)
def _walk_cases():
    """Seeded starting diagrams and walk seeds shared by criteria 4 and 8."""
    rng = random.Random(104)
    cases = []
    for i in range(WALK_SEEDS):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        chain = random_chain(rng, min(m, n), max_d=6)
        cases.append((canonical_diagram(m, n, chain), LkInvariant(chain), 1000 + i))
    return cases


@lru_cache(maxsize=1)
def _clasp_cases():
    """200 inter-component clasp instances shared by criteria 5 and 8."""
    rng = random.Random(105)
    cases = []
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        d = canonical_diagram(m, n, random_chain(rng, min(m, n)))
        steps = rng.randint(0, 8)
        if steps:
            d, _ = random_homotopy_walk(d, steps, rng.randrange(2**32))
        e = rng.choice(d.components[0].edge_ids)
        f = rng.choice(d.components[1].edge_ids)
        counts = passage_counts(d)
        pos_e = rng.randint(0, counts[e])
        pos_f = rng.randint(0, counts[f])
        eps = rng.choice((1, -1))
        cases.append((d, e, pos_e, f, pos_f, eps, moved(d, "clasp", e, pos_e, f, pos_f, eps)))
    return cases


def test_criterion_1_snf_certificate_suite():
    rng = random.Random(101)
    failures = []
    for i in range(1000):
        m = random_matrix(rng, max_dim=6, bound=20)
        try:
            cert = smith_normal_form(m)
            verify_certificate(m, cert)  # U@M@V == D, |det| = 1, chain holds
            oracle = tuple(divisors_via_minors(m.entries))
            if cert.divisors != oracle:
                failures.append((i, m.entries, cert.divisors, oracle))
        except Exception as exc:  # pragma: no cover - failure path
            failures.append((i, m.entries, repr(exc)))
    _report(1, "SNF certificate suite, 1000 matrices", failures)


def test_criterion_2_unimodular_and_transpose_invariance():
    rng = random.Random(102)
    failures = []
    for i in range(200):
        m = random_matrix(rng, max_dim=6, bound=20)
        a = random_unimodular(m.rows, seed=rng.randrange(2**32))
        b = random_unimodular(m.cols, seed=rng.randrange(2**32))
        base = smith_normal_form(m).divisors
        conj = smith_normal_form(a @ m @ b).divisors
        trans = smith_normal_form(transposed(m)).divisors
        if not (base == conj == trans):
            failures.append((i, m.entries, base, conj, trans))
    _report(2, "unimodular/transpose invariance, 200 triples", failures)


def test_criterion_3_canonical_round_trip():
    failures = []
    for m, n, chain, d in _canonical_cases():
        inv = diagram_invariant(d)
        if inv != LkInvariant(chain):
            failures.append((m, n, chain, str(inv)))
    _report(3, f"canonical round trip, {len(_canonical_cases())} chains", failures)


def test_criterion_4_homotopy_invariance(tmp_path):
    failures = []
    for i, (d, expected, seed) in enumerate(_walk_cases()):
        src = tmp_path / f"start{i}.sgd"
        src.write_text(serialize_sgd(d), encoding="utf-8")
        out = tmp_path / f"walked{i}.sgd"
        # the perturb command self-checks the invariant after every move
        code = cli.main([
            "perturb", str(src), "--steps", str(WALK_STEPS), "--seed", str(seed),
            "--out", str(out),
        ])
        if code != 0:
            failures.append((i, "perturb exit", code))
            continue
        walked = parse_sgd(out.read_text(encoding="utf-8"))
        final = diagram_invariant(walked)
        if final != expected:
            failures.append((i, str(expected), str(final)))
    _report(4, f"homotopy invariance, {WALK_SEEDS} x {WALK_STEPS}-step walks", failures)


def test_kept_bases_can_be_read_at_any_point_of_a_walk():
    # read only after the last move, a walk's kept bases are the ones read
    # after every move, and the fundamental bases of their trees in the
    # final diagram
    failures = []
    for i, (d, _expected, seed) in enumerate(_walk_cases()):
        for _rec, state in walk_steps(d, WALK_STEPS, seed):
            every_step = [state.basis(k) for k in (1, 2)]
        for _rec, state in walk_steps(d, WALK_STEPS, seed):
            pass
        at_end = [state.basis(k) for k in (1, 2)]
        final = state.diagram()
        if at_end != every_step:
            failures.append((i, "differ"))
        elif any(b != cycle_basis(final, b.component, tree=b.tree_edges) for b in at_end):
            failures.append((i, "not fundamental"))
    assert not failures, f"{len(failures)} of {len(_walk_cases())} walks; first: {failures[0]}"


def test_criterion_5_rank1_clasp_update():
    failures = []
    for idx, (d, e, pos_e, f, pos_f, eps, d2) in enumerate(_clasp_cases()):
        before = linking_matrix(d)
        after = linking_matrix(d2)
        u = [z.coeffs.get(e, 0) for z in before.basis1.cycles]
        v = [w.coeffs.get(f, 0) for w in before.basis2.cycles]
        for i in range(before.rows):
            for j in range(before.cols):
                want = before.entries[i][j] + eps * u[i] * v[j]
                if after.entries[i][j] != want:
                    failures.append((idx, i, j, after.entries[i][j], want))
    _report(5, "rank-1 clasp update, 200 clasps", failures)


def test_criterion_6_separation(monkeypatch):
    # classify works out both diagrams' ranks and invariant on every call,
    # and each diagram here meets every other of its ranks; the real
    # function runs once per diagram, memoised by diagram identity (the
    # memo keeps each diagram, so no id is reused)
    real, memo = classify_module._profile, {}

    def profile(d):
        if id(d) not in memo:
            memo[id(d)] = (d, real(d))
        return memo[id(d)][1]

    monkeypatch.setattr(classify_module, "_profile", profile)
    by_ranks = {}
    for m, n, chain, d in _canonical_cases():
        by_ranks.setdefault((m, n), []).append((chain, d))
    failures = []
    pairs = 0
    for (m, n), entries in sorted(by_ranks.items()):
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                pairs += 1
                verdict = classify(entries[i][1], entries[j][1])
                if verdict.result is not Result.INEQUIVALENT or verdict.obstruction != "divisors":
                    failures.append((m, n, entries[i][0], entries[j][0], verdict.result))
    hopf_vs_split = classify(canonical_diagram(1, 1, (1,)), canonical_diagram(1, 1, ()))
    if hopf_vs_split.result is not Result.INEQUIVALENT:
        failures.append(("hopf-vs-split", hopf_vs_split.result))
    _report(6, f"separation, {pairs} distinct-chain pairs", failures)


def test_criterion_7_hopf_linking_number():
    # Hand-count oracle: crossing x1 is the only one with the component-1
    # edge on top (sign +), so the over-count is +1; x2 gives under-count +1.
    hopf = parse_sgd(
        "sgd 1\nvertex v1\nvertex v2\nedge e1 v1 v1\nedge e2 v2 v2\n"
        "crossing x1 over e1 0 under e2 0 sign +\n"
        "crossing x2 over e2 1 under e1 1 sign +\n"
    )
    failures = []
    if linking_matrix(hopf).entries != ((1,),):
        failures.append(("matrix", linking_matrix(hopf).entries))
    if diagram_invariant(hopf) != LkInvariant((1,)):
        failures.append(("invariant", str(diagram_invariant(hopf))))
    z, w = Cycle(1, {"e1": 1}), Cycle(2, {"e2": 1})
    if linking_number(hopf, z, w) != linking_number(hopf, w, z):
        failures.append(("over/under", linking_number(hopf, z, w)))
    _report(7, "Hopf link linking number", failures)


def test_criterion_8_realizability_smoke_test():
    failures = []
    for m, n, chain, d in _canonical_cases():
        if not over_under_consistent(d):
            failures.append(("canonical", m, n, chain))
    for i, (d, _expected, seed) in enumerate(_walk_cases()):
        for step_no, (_rec, step) in enumerate(walk_steps(d, WALK_STEPS, seed)):
            if not over_under_consistent(step.diagram()):
                failures.append(("walk", i, step_no))
                break
    for idx, (d, *_rest, d2) in enumerate(_clasp_cases()):
        if not over_under_consistent(d) or not over_under_consistent(d2):
            failures.append(("clasp", idx))
    _report(8, "over-count equals under-count on criteria 3-5 diagrams", failures)


def test_criterion_9_serialization():
    rng = random.Random(109)
    failures = []
    for i in range(500):
        d = random_diagram(rng)
        if parse_sgd(serialize_sgd(d)) != d:
            failures.append(("round-trip", i))
    golden = (DATA / "canonical_1_1_1.sgd").read_bytes()
    fresh = serialize_sgd(canonical_diagram(1, 1, (1,))).encode("utf-8")
    if fresh != golden:
        failures.append(("golden mismatch", fresh))
    if serialize_sgd(canonical_diagram(1, 1, (1,))).encode("utf-8") != fresh:
        failures.append(("unstable bytes",))
    _report(9, "serialization round trip and frozen golden", failures)
