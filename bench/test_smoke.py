"""Smoke test of every workload at a tiny size, with its checks and tracing.

Run from the root of the repository:

    python3 -m pytest -q bench/test_smoke.py

It is not part of the tier-1 suite, whose ``testpaths`` name ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import sglink.cli  # noqa: E402

TINY = {
    "invariant_walked": dict(ranks=(2, 4), steps=(3, 40), walks=1, top_walks=2),
    "perturb_selfcheck": dict(diagrams=((2, 2, (1, 3)), (2, 3, (2,))), steps=5, walks=1),
    "snf_dense": dict(dense=((3, 1), (6, 1)), chain_sizes=(4,)),
    "long_edge": dict(bases=(2, 7)),
}


def _cli(argv: list[str]) -> str:
    r = run.Run(sglink.cli.main, [], None)
    rc, _, out, err = r.call(argv, traced=False)
    assert rc == 0, err
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_traced_and_untraced(name, tmp_path):
    ops = workloads.WORKLOADS[name](7, tmp_path, **TINY[name])
    tracer = spans.Tracer()
    tracer.prepare()
    r = run.Run(sglink.cli.main, ops, tracer)
    try:
        r.run_pass(checked=True)
        r.run_pass(checked=False, traced=True)
        r.run_pass(checked=False)
    finally:
        tracer.disable()
    assert (r.failed, r.failures, r.errors) == (0, [], [])
    assert r.attempted == 3 * len(ops)
    assert tracer.absent == []

    e2e = run.end_to_end(r, setup_s=0.1)
    assert all(value > 0 for value, _ in e2e.values())
    layers = run.per_layer(r, tracer)
    assert set(layers) >= {metric for metric, _, _ in run.PER_LAYER}
    # Per-layer times are in the same scaled ms as the commands themselves.
    mean_op_ms = 1e3 / e2e["ops_per_s"][0]
    assert 0.001 * mean_op_ms < layers["cli.self_ms"][0] < 10 * mean_op_ms
    if name == "perturb_selfcheck":
        assert layers["moves.steps"][0] == 5
        assert layers["linking.linking_matrix.calls"][0] == 6  # once, then per step
    if name == "snf_dense":
        assert layers["smith.calls"][0] == 1
        assert layers["linking.linking_matrix.calls"][0] == 0


def test_tracer_restores_the_program_and_reports_missing_names(monkeypatch):
    original = sglink.cli.parse_sgd
    monkeypatch.setitem(spans.TRACED, "sgd", ("parse_sgd", "no_such_function"))
    tracer = spans.Tracer()
    tracer.prepare()
    tracer.enable()
    assert sglink.cli.parse_sgd is not original
    assert sys.modules["sglink.sgd"].parse_sgd is sglink.cli.parse_sgd
    tracer.disable()
    assert sglink.cli.parse_sgd is original
    assert tracer.absent == ["sgd.no_such_function"]


def test_checks_reject_wrong_outputs(tmp_path):
    mat = [[2, 4], [6, 8]]
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 4\n6 8\n", encoding="utf-8")
    good = json.loads(_cli(["snf", str(path), "--json"]))
    oracle.check_snf(json.dumps(good), mat, None)
    with pytest.raises(oracle.CheckError):
        oracle.check_snf(json.dumps(good), mat, (1, 8))
    bad = dict(good, D=[[2, 0], [0, 16]], divisors=[2, 16])
    with pytest.raises(oracle.CheckError):
        oracle.check_snf(json.dumps(bad), mat, None)

    canon = _cli(["canonical", "1", "1", "3"])
    oracle.check_long_edge(canon, 3)
    with pytest.raises(oracle.CheckError):
        oracle.check_long_edge(canon, 4)
    dropped = "".join(line + "\n" for line in canon.splitlines() if "x6" not in line)
    with pytest.raises(oracle.CheckError):
        oracle.check_long_edge(dropped, 3)

    sgd = tmp_path / "c.sgd"
    sgd.write_text(_cli(["canonical", "2", "2", "1", "3"]), encoding="utf-8")
    inv = _cli(["invariant", str(sgd), "--json"])
    oracle.check_invariant(inv, (2, 2), (1, 3))
    with pytest.raises(oracle.CheckError):
        oracle.check_invariant(inv, (2, 2), (1, 6))
    tampered = dict(json.loads(inv), matrix=[[1, 0], [0, 6]])
    with pytest.raises(oracle.CheckError):
        oracle.check_invariant(json.dumps(tampered), (2, 2), (1, 3))


def test_oracle_arithmetic():
    assert oracle.det([[2, 1], [7, 4]]) == 1
    assert oracle.det([[0, 1], [1, 0]]) == -1
    assert oracle.det([[1, 2], [2, 4]]) == 0
    assert oracle.component_ranks("sgd 1\nvertex a\nvertex b\nvertex c\n"
                                  "edge e a a\nedge f a b\nedge g b a\nedge h c c\n") == [1, 2]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "snf_dense", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode == 2
    assert p.stdout == ""
    assert "no sglink package" in p.stderr
