"""CLI subcommands and the exit-code contract."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from gen import (
    component_of_edge,
    edge_components,
    leaving_split_edge_out,
    random_diagram,
    walk_to_first_split,
)

import sglink.cli as cli
import sglink.linking as linking
import sglink.moves as moves
import sglink.smith as smith
from sglink import (
    Diagram,
    Edge,
    canonical_diagram,
    diagram_invariant,
    linking_matrix,
    parse_sgd,
    random_homotopy_walk,
    serialize_sgd,
    validate,
)
from sglink.moves import MoveRecord, format_move, walk_steps
from sglink.smith import IntMatrix
from timing import ratio

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

HOPF_TEXT = serialize_sgd(canonical_diagram(1, 1, (1,)))
SPLIT_TEXT = serialize_sgd(canonical_diagram(1, 1, ()))
GAPPY_TEXT = (
    "sgd 1\nvertex v\nedge e1 v v\nedge e2 v v\n"
    "crossing x1 over e1 0 under e2 0 sign +\n"
    "crossing x2 over e1 2 under e2 1 sign +\n"
)

# component 1 is two loops at u1, a1 linked once with b1 and a2 crossing
# free; component 2 is the loop b1
TWO_LOOPS_TEXT = (
    "sgd 1\nvertex u1\nvertex u2\nedge a1 u1 u1\nedge a2 u1 u1\nedge b1 u2 u2\n"
    "crossing x1 over a1 0 under b1 0 sign +\n"
    "crossing x2 over b1 1 under a1 1 sign +\n"
)
# split both loops open at a new vertex v1 (joined to u1 by the tree edge
# e1), link e1 with b1 (not homotopy preserving: the matrix is read off the
# sums again), then contract a2, a non-tree edge: e1 leaves the tree, the
# cycles change by a certified change of basis and the matrix is read off
# the sums again
NON_TREE_CONTRACTION = ["split_vertex u1 v1 e1 a1.head a2.head", "clasp e1 0 b1 0 1",
                        "contract_edge a2"]
# the component around v1 and v3 is component 1 until contracting g merges
# v1, its smallest vertex, into v3; the component around v2 then comes first
RENUMBERED_TEXT = (
    "sgd 1\nvertex v1\nvertex v2\nvertex v3\nedge a1 v1 v1\nedge a2 v3 v3\n"
    "edge b1 v2 v2\nedge g v3 v1\n"
    "crossing x1 over a1 0 under b1 0 sign +\n"
    "crossing x2 over b1 1 under a1 1 sign +\n"
    "crossing x3 over a2 0 under b1 2 sign +\n"
    "crossing x4 over b1 3 under a2 1 sign +\n"
)
RENUMBERING = ["split_vertex v3 v4 e1 a2.head", "contract_edge g", "crossing_change x1",
               "crossing_change x1", "contract_edge e1"]


@pytest.fixture
def hopf_file(tmp_path):
    p = tmp_path / "hopf.sgd"
    p.write_text(HOPF_TEXT)
    return str(p)


@pytest.fixture
def split_file(tmp_path):
    p = tmp_path / "split.sgd"
    p.write_text(SPLIT_TEXT)
    return str(p)


class TestValidate:
    def test_ok(self, hopf_file, capsys):
        assert cli.main(["validate", hopf_file]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_violations_exit_2(self, tmp_path, capsys):
        p = tmp_path / "gap.sgd"
        p.write_text(GAPPY_TEXT)
        assert cli.main(["validate", str(p)]) == 2
        out = capsys.readouterr().out
        assert "passage" in out and "e1" in out

    def test_missing_file_exit_3(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "absent.sgd")]) == 3

    def test_syntax_error_exit_3(self, tmp_path):
        p = tmp_path / "bad.sgd"
        p.write_text("not sgd\n")
        assert cli.main(["validate", str(p)]) == 3

    def test_prints_every_violation_validate_finds(self, tmp_path, capsys):
        # the command runs only the passage checks: on a parsed diagram
        # they find everything validate finds, in the same order; every
        # third file lists its crossings out of id order
        rng = random.Random(71)
        found, codes = 0, Counter()
        for trial in range(150):
            lines = serialize_sgd(random_diagram(rng)).splitlines()
            for i, line in enumerate(lines):
                words = line.split()
                if words[0] == "crossing" and rng.random() < 0.3:
                    k = rng.choice((4, 7))
                    words[k] = str(max(0, int(words[k]) + rng.choice((-1, 1, 2))))
                    if rng.random() < 0.2:
                        words[6:8] = words[3:5]  # over and under on one passage
                    lines[i] = " ".join(words)
            if trial % 3 == 0:
                first = next((i for i, ln in enumerate(lines) if ln.startswith("crossing")),
                             len(lines))
                tail = lines[first:]
                rng.shuffle(tail)
                lines[first:] = tail
            text = "\n".join(lines) + "\n"
            p = tmp_path / "d.sgd"
            p.write_text(text)
            problems = validate(parse_sgd(text, check=False))
            want = "".join(f"violation [{v.code}] {v.message}\n" for v in problems) or "OK\n"
            assert cli.main(["validate", str(p)]) == (2 if problems else 0)
            assert capsys.readouterr().out == want
            found += len(problems) > 1
            codes.update(v.code for v in problems)
        assert found > 20
        assert set(codes) == {"passage-gap", "passage-duplicate", "crossing-degenerate"}
        assert min(codes.values()) >= 10

    @pytest.mark.parametrize("crossings, want", [
        (["x1 over e 0 under f 0", "x2 over f 1 under e 2"],
         ["[passage-gap] edge 'e' passage indices [0, 2] are not 0..1"]),
        (["x1 over e 0 under f 0", "x2 over f 0 under e 0"],
         ["[passage-duplicate] edge 'e' passage indices used twice: [0]",
          "[passage-duplicate] edge 'f' passage indices used twice: [0]"]),
        (["x2 over e 1 under f 1", "x1 over e 0 under e 0"],
         ["[crossing-degenerate] crossing 'x1' over and under reference the same passage",
          "[passage-duplicate] edge 'e' passage indices used twice: [0]",
          "[passage-gap] edge 'f' passage indices [1] are not 0..0"]),
    ])
    def test_passage_violations_in_order(self, tmp_path, capsys, crossings, want):
        text = "\n".join(["sgd 1", "vertex a", "vertex b", "edge e a a", "edge f b b"]
                         + [f"crossing {c} sign +" for c in crossings]) + "\n"
        p = tmp_path / "d.sgd"
        p.write_text(text)
        assert cli.main(["validate", str(p)]) == 2
        assert capsys.readouterr().out == "".join(f"violation {w}\n" for w in want)
        d = parse_sgd(text, check=False)
        assert [f"[{v.code}] {v.message}" for v in validate(d)] == want
        # every other command reads the same file as a parse failure
        assert cli.main(["invariant", str(p)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: invalid diagram: {'; '.join(w.split('] ', 1)[1] for w in want)}\n"


class TestInvariant:
    def test_hopf(self, hopf_file, capsys):
        assert cli.main(["invariant", hopf_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_split(self, split_file, capsys):
        assert cli.main(["invariant", split_file]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_canonical_2_2_1_6(self, tmp_path, capsys):
        p = tmp_path / "c.sgd"
        p.write_text(serialize_sgd(canonical_diagram(2, 2, (1, 6))))
        assert cli.main(["invariant", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "1 6"

    def test_wrong_component_count_exit_2(self, tmp_path):
        p = tmp_path / "one.sgd"
        p.write_text("sgd 1\nvertex a\n")
        assert cli.main(["invariant", str(p)]) == 2

    def test_parse_failure_exit_3(self, tmp_path):
        p = tmp_path / "gap.sgd"
        p.write_text(GAPPY_TEXT)
        assert cli.main(["invariant", str(p)]) == 3

    def test_json_schema(self, hopf_file, capsys):
        assert cli.main(["invariant", hopf_file, "--json", "--show-basis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["ranks"] == [1, 1]
        assert payload["matrix"] == [[1]]
        assert payload["divisors"] == [1]
        assert payload["invariant"] == "chain"
        assert payload["over_under_consistent"] is True
        assert payload["basis1"]["cycles"] == [{"a1": 1}]

    def test_show_matrix(self, hopf_file, capsys):
        assert cli.main(["invariant", hopf_file, "--show-matrix"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1"
        assert "# matrix 1 x 1" in out

    def test_show_basis_human(self, hopf_file, capsys):
        assert cli.main(["invariant", hopf_file, "--show-basis"]) == 0
        out = capsys.readouterr().out
        assert "cycle 1.1: a1:+1" in out
        assert "cycle 2.1: b1:+1" in out

    def test_unrealizable_diagram_flagged(self, tmp_path, capsys):
        p = tmp_path / "onex.sgd"
        p.write_text(
            "sgd 1\nvertex v1\nvertex v2\nedge e1 v1 v1\nedge e2 v2 v2\n"
            "crossing x1 over e1 0 under e2 0 sign +\n"
        )
        assert cli.main(["invariant", str(p), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["over_under_consistent"] is False
        assert payload["divisors"] == [1]


class TestClassify:
    def test_equivalent_exit_0(self, hopf_file, tmp_path, capsys):
        d, _ = random_homotopy_walk(canonical_diagram(1, 1, (1,)), 25, 4)
        p = tmp_path / "walked.sgd"
        p.write_text(serialize_sgd(d))
        assert cli.main(["classify", hopf_file, str(p)]) == 0
        assert "Equivalent" in capsys.readouterr().out

    def test_inequivalent_exit_1(self, hopf_file, split_file, capsys):
        assert cli.main(["classify", hopf_file, split_file]) == 1
        out = capsys.readouterr().out
        assert "divisors" in out

    def test_three_component_exit_2(self, hopf_file, tmp_path):
        p = tmp_path / "three.sgd"
        p.write_text("sgd 1\nvertex a\nvertex b\nvertex c\n")
        assert cli.main(["classify", hopf_file, str(p)]) == 2

    def test_json_and_handlebody(self, hopf_file, split_file, capsys):
        assert cli.main(["classify", hopf_file, split_file, "--handlebody", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "inequivalent"
        assert payload["mode"] == "handlebody"
        assert payload["invariants"] == ["1", "0"]

    def test_ordered_flag(self, tmp_path, capsys):
        a = tmp_path / "a.sgd"
        b = tmp_path / "b.sgd"
        a.write_text(serialize_sgd(canonical_diagram(1, 2, (1,))))
        b.write_text(serialize_sgd(canonical_diagram(2, 1, (1,))))
        assert cli.main(["classify", str(a), str(b)]) == 0
        capsys.readouterr()
        assert cli.main(["classify", str(a), str(b), "--ordered"]) == 1

    @pytest.mark.parametrize("extra", [[], ["--handlebody"]])
    def test_ordered_flag_holds_under_both_readings(self, tmp_path, capsys, extra):
        a = tmp_path / "a.sgd"
        b = tmp_path / "b.sgd"
        a.write_text(serialize_sgd(canonical_diagram(1, 2, (1,))))
        b.write_text(serialize_sgd(canonical_diagram(2, 1, (1,))))
        assert cli.main(["classify", str(a), str(b), "--ordered", "--json", *extra]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["obstruction"] == "rank"
        assert payload["pairing"] == "none"

    def test_handlebody_text_prints_genera(self, hopf_file, split_file, capsys):
        assert cli.main(["classify", hopf_file, split_file, "--handlebody"]) == 1
        assert capsys.readouterr().out == (
            "Inequivalent (obstruction: divisors)\n"
            "  A: genera (1, 1), invariant 1\n"
            "  B: genera (1, 1), invariant 0\n"
        )


class TestCanonical:
    def test_stdout_matches_golden(self, capsys):
        assert cli.main(["canonical", "1", "1", "1"]) == 0
        assert capsys.readouterr().out == HOPF_TEXT

    def test_out_file_feeds_invariant(self, tmp_path, capsys):
        p = tmp_path / "c.sgd"
        assert cli.main(["canonical", "2", "2", "1", "6", "--out", str(p)]) == 0
        assert cli.main(["invariant", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "1 6"

    def test_long_clasp_chain_is_linear(self, tmp_path, capsys):
        # a builder that re-clasps the whole diagram per clasp runs for minutes here
        p = tmp_path / "long.sgd"
        assert cli.main(["canonical", "1", "1", "20000", "--out", str(p)]) == 0
        d = parse_sgd(p.read_text())  # raises on any violation
        assert len(d.rows) == 40000
        for loop in ("a1", "b1"):
            passages = sorted(idx for _, oe, oi, ue, ui, _ in d.rows
                              for eid, idx in ((oe, oi), (ue, ui)) if eid == loop)
            assert passages == list(range(40000))
        assert cli.main(["invariant", str(p)]) == 0
        assert capsys.readouterr().out == "20000\n"

    def test_divisibility_violation_exit_2(self, capsys):
        assert cli.main(["canonical", "2", "2", "2", "3"]) == 2
        assert "2 does not divide 3" in capsys.readouterr().err


class TestPerturb:
    def test_zero_steps_keeps_invariant(self, hopf_file, tmp_path, capsys):
        out = tmp_path / "out.sgd"
        assert cli.main(["perturb", hopf_file, "--steps", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["invariant", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_reproducible_bytes(self, tmp_path, capsys):
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(2, 2, (1, 2))))
        a = tmp_path / "a.sgd"
        b = tmp_path / "b.sgd"
        assert cli.main(["perturb", str(src), "--steps", "100", "--seed", "9", "--out", str(a)]) == 0
        assert cli.main(["perturb", str(src), "--steps", "100", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c2.sgd"
        assert cli.main(["perturb", str(src), "--steps", "100", "--seed", "10", "--out", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_invariant_preserved_and_output_parseable(self, tmp_path, capsys):
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(3, 3, (2, 4))))
        out = tmp_path / "out.sgd"
        assert cli.main(["perturb", str(src), "--steps", "60", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["invariant", str(out)]) == 0  # move comments are ignored
        assert capsys.readouterr().out.strip() == "2 4"

    def test_a_sampled_walk_is_linear_in_its_steps(self, tmp_path, capsys):
        # 4x the steps takes about 4.5x the time; a step that cost time
        # linear in the diagram the walk has grown would take about 16x, so
        # the bound at 8 tells the two apart on a loaded host
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(3, 3, (1, 2, 4))))

        def perturb(steps):
            assert cli.main(["perturb", str(src), "--steps", str(steps), "--seed", "7"]) == 0

        assert ratio(perturb, 2500, 10000) < 8

    def test_replay_reproduces_walk(self, tmp_path, capsys):
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(2, 2, (1, 6))))
        out1 = tmp_path / "walk.sgd"
        moves = tmp_path / "moves.txt"
        assert cli.main(["perturb", str(src), "--steps", "40", "--seed", "12",
                         "--out", str(out1), "--moves-out", str(moves)]) == 0
        out2 = tmp_path / "replayed.sgd"
        assert cli.main(["perturb", str(src), "--replay", str(moves), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_payload(self, hopf_file, capsys):
        assert cli.main(["perturb", hopf_file, "--steps", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant"] == "1"
        assert len(payload["moves"]) == 5
        assert payload["sgd"].startswith("sgd 1\n")

    def test_json_out_writes_the_stdout_bytes(self, hopf_file, tmp_path, capsys):
        args = ["perturb", hopf_file, "--steps", "5", "--json"]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "perturbed.json"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed

    def test_mislabelled_inter_component_clasp_exit_4(self, tmp_path, monkeypatch, capsys):
        # a walk step that links the two components but claims to preserve
        # the invariant: the graph is unchanged, so the bases are kept, and
        # the matrix read off the running sums must still show the change
        real_walk = cli.walk_steps

        def walk(d, steps, seed):
            for rec, state in real_walk(d, steps, seed):
                yield rec, state
            bad = MoveRecord("clasp", ("a1", "0", "b1", "0", "1"), True)
            state.apply(bad)
            yield bad, state

        monkeypatch.setattr(cli, "walk_steps", walk)
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(2, 2, (1, 2))))
        # a --moves-out that cannot be written does not hide the failure
        unwritable = tmp_path / "missing" / "moves.txt"
        assert cli.main(["perturb", str(src), "--steps", "10", "--seed", "3",
                         "--moves-out", str(unwritable)]) == 4
        err = capsys.readouterr().err
        assert "self-check failed" in err and "clasp a1 0 b1 0 1" in err
        assert err.startswith("error: ")

    def test_crossing_change_flipping_another_crossing_exit_4(self, tmp_path, monkeypatch, capsys):
        # a crossing change that flips an inter-component crossing instead
        # of the one it names: the record says the move preserves the
        # invariant, and only the matrix read off the state's sign sums
        # shows that it did not.  The failing walk leaves a --moves-out file
        # whose replay fails the same way.
        real = moves.WalkState.crossing_change

        def flip_inter(state, xid):
            d = state.diagram()
            comp = edge_components(d)
            return real(state, next(r[0] for r in d.rows if comp[r[1]] != comp[r[3]]))

        monkeypatch.setattr(moves.WalkState, "crossing_change", flip_inter)
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(3, 3, (1, 2, 4))))
        recorded = tmp_path / "moves.txt"
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "7",
                         "--moves-out", str(recorded)]) == 4
        err = capsys.readouterr().err
        assert "self-check failed" in err
        lines = recorded.read_text().splitlines()
        assert lines == ["clasp b3 1 b1 2 1", "crossing_change x15"]
        assert f"move {lines[-1]}" in err
        assert cli.main(["perturb", str(src), "--replay", str(recorded)]) == 4
        assert "self-check failed" in capsys.readouterr().err
        monkeypatch.undo()
        assert cli.main(["perturb", str(src), "--replay", str(recorded)]) == 0

    def test_golden_walk_and_replay(self, tmp_path, capsys):
        # perturb_3_3.json: canonical 3 3 1 2 4, then perturb --steps 200 --seed 7 --json
        golden = (DATA / "perturb_3_3.json").read_text(encoding="utf-8")
        src = tmp_path / "c.sgd"
        assert cli.main(["canonical", "3", "3", "1", "2", "4", "--out", str(src)]) == 0
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "7", "--json"]) == 0
        assert capsys.readouterr().out == golden
        recorded = tmp_path / "moves.txt"
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "7",
                         "--moves-out", str(recorded), "--out", str(tmp_path / "o.sgd")]) == 0
        assert cli.main(["perturb", str(src), "--replay", str(recorded), "--json"]) == 0
        replayed, expected = json.loads(capsys.readouterr().out), json.loads(golden)
        assert replayed["sgd"] == expected["sgd"]
        assert replayed["moves"] == expected["moves"]

    @pytest.mark.parametrize("golden, spec, seed", [
        ("perturb_2_2.json", ["2", "2", "1", "3"], "11"),
        ("perturb_4_4.json", ["4", "4", "1", "2", "4", "8"], "2024"),
    ])
    def test_golden_walks_at_other_ranks(self, tmp_path, capsys, golden, spec, seed):
        # canonical <spec>, then perturb --steps 200 --seed <seed> --json:
        # the smallest and the largest diagram a seeded walk is benchmarked on
        src = tmp_path / "c.sgd"
        assert cli.main(["canonical", *spec, "--out", str(src)]) == 0
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", seed, "--json"]) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")

    def test_corrupted_running_sum_fails_the_final_check_exit_4(self, tmp_path, monkeypatch, capsys):
        # one running inter-component sign sum negated after the first step,
        # as a faulty move might leave it: the 1x1 matrix 3 reads -3, which
        # has the same invariant, so every per-step check passes and only
        # the matrix rebuilt from the final diagram's crossings catches it
        real_walk = cli.walk_steps

        def walk(d, steps, seed):
            for n, (rec, state) in enumerate(real_walk(d, steps, seed)):
                if n == 0:
                    state.pair_signs["a1", "b1"] = -state.pair_signs["a1", "b1"]
                    state._entries = None
                yield rec, state

        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(1, 1, (3,))))
        args = ["perturb", str(src), "--steps", "100", "--seed", "5"]
        assert cli.main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "walk_steps", walk)
        recorded = tmp_path / "moves.txt"
        assert cli.main(args + ["--moves-out", str(recorded)]) == 4
        err = capsys.readouterr().err
        assert err == ("self-check failed: the linking matrix kept along the walk differs "
                       "from the one rebuilt from the final diagram's crossings\n")
        assert len(recorded.read_text().splitlines()) == 100

    def test_redoes_only_what_each_move_changed(self, tmp_path, monkeypatch, capsys):
        # The state takes its two trees from spanning_tree and reads the
        # matrix off the sums once, at the start, over the bases
        # cycle_basis makes of those trees; the start matrix is the
        # state's.  Every split and contraction after that carries the
        # trees, and no move of this walk changes an inter-component sum,
        # contracts a non-tree edge or renumbers the components, so no step
        # drops the matrix: each step reads its entries with no basis made,
        # and none runs an SNF.  linking_matrix runs for the start and for
        # the final check, each making both kept bases with cycle_basis,
        # and one matrix comes from the final crossings.  The final check
        # compares the state's components with the final diagram's, so it
        # makes no basis over the final diagram: cli has no cycle_basis.
        d = canonical_diagram(3, 3, (1, 2, 4))
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(d))
        graph_steps = 0
        prev = d
        for _, state in walk_steps(d, 200, 7):
            cur = state.diagram()
            graph_steps += (cur.vertices, cur.edges) != (prev.vertices, prev.edges)
            assert component_of_edge(cur, "a1") == 1  # never renumbered
            prev = cur
        assert 50 < graph_steps < 200

        assert not hasattr(cli, "cycle_basis")
        calls = dict.fromkeys(("smith_normal_form", "linking.cycle_basis", "moves.cycle_basis", "moves.spanning_tree", "linking_matrix",
                               "moves.matrix_from_pairs", "cli.matrix_from_pairs"), 0)

        def counted(module, name, key=None):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(smith, "smith_normal_form")
        counted(linking, "cycle_basis", "linking.cycle_basis")
        counted(moves, "cycle_basis", "moves.cycle_basis")  # the bases a state makes
        counted(moves, "spanning_tree", "moves.spanning_tree")
        counted(cli, "linking_matrix")
        counted(moves, "matrix_from_pairs", "moves.matrix_from_pairs")
        counted(cli, "matrix_from_pairs", "cli.matrix_from_pairs")
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "7", "--json"]) == 0
        assert capsys.readouterr().out == (DATA / "perturb_3_3.json").read_text(encoding="utf-8")
        assert calls == {"smith_normal_form": 1, "linking.cycle_basis": 0, "moves.cycle_basis": 4,
                         "moves.spanning_tree": 2, "linking_matrix": 2,
                         "moves.matrix_from_pairs": 1, "cli.matrix_from_pairs": 1}

        # Seed 2 has one contraction that renumbers the components, at a
        # step where both bases have changed since the start: that step
        # alone reads the sums again, over both bases made anew, and the
        # final check makes the bases anew once more, as moves changed both
        # after it.
        dropped = []
        start = moves.WalkState(d)
        start.linking_entries()
        for rec, state in walk_steps(start, 200, 2):
            if state._entries is None:
                dropped.append(rec.kind)
                state.linking_entries()
        assert dropped == ["contract_edge"]
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "2", "--json"]) == 0
        capsys.readouterr()
        assert {k: calls[k] for k in ("linking_matrix", "moves.matrix_from_pairs",
                                      "moves.cycle_basis", "moves.spanning_tree")} == {
            "linking_matrix": 2, "moves.matrix_from_pairs": 2, "moves.cycle_basis": 6,
            "moves.spanning_tree": 2}

    def test_wide_walk_runs_one_snf(self, tmp_path, monkeypatch, capsys):
        # canonical 100 100 1...1: every step used to rebuild a 100-cycle
        # basis and re-read the 100 x 100 matrix after each graph move
        src = tmp_path / "c.sgd"
        assert cli.main(["canonical", "100", "100"] + ["1"] * 100 + ["--out", str(src)]) == 0
        snfs = []
        real = smith.smith_normal_form
        monkeypatch.setattr(smith, "smith_normal_form", lambda m: snfs.append(m) or real(m))
        out = tmp_path / "walked.sgd"
        assert cli.main(["perturb", str(src), "--steps", "300", "--seed", "7",
                         "--out", str(out)]) == 0
        assert len(snfs) == 1
        monkeypatch.undo()
        capsys.readouterr()
        assert cli.main(["invariant", str(out)]) == 0
        assert capsys.readouterr().out == " ".join(["1"] * 100) + "\n"

    @staticmethod
    def _replay(tmp_path, monkeypatch, capsys, text, lines):
        """Replay ``lines`` on ``text`` with --json and --moves-out, counting
        SNF calls; returns (exit code, stdout, stderr, moves written, SNFs)."""
        src, replay, recorded = tmp_path / "in.sgd", tmp_path / "moves.txt", tmp_path / "out.txt"
        src.write_text(text)
        replay.write_text("".join(f"{ln}\n" for ln in lines))
        snfs = []
        real = smith.smith_normal_form
        monkeypatch.setattr(smith, "smith_normal_form", lambda m: snfs.append(m) or real(m))
        code = cli.main(["perturb", str(src), "--replay", str(replay), "--json",
                         "--moves-out", str(recorded)])
        monkeypatch.setattr(smith, "smith_normal_form", real)
        out, err = capsys.readouterr()
        return code, out, err, recorded.read_text().splitlines(), len(snfs)

    def _matrices(self, text, lines):
        """The state's matrix entries after each replayed line, over the
        bases it keeps from the start."""
        return [linking_matrix(state).entries for _, state in moves.replay_steps(
            parse_sgd(text), "".join(f"{ln}\n" for ln in lines))]

    def test_non_tree_contraction_is_certified(self, tmp_path, monkeypatch, capsys):
        entries = self._matrices(TWO_LOOPS_TEXT, NON_TREE_CONTRACTION)
        # the clasp changes the sums and the contraction changes the matrix
        assert entries == [((1,), (0,)), ((0,), (-1,)), ((1,), (1,))]
        code, out, err, recorded, snfs = self._replay(
            tmp_path, monkeypatch, capsys, TWO_LOOPS_TEXT, NON_TREE_CONTRACTION)
        assert (code, err, recorded) == (0, "", NON_TREE_CONTRACTION)
        # the start, the clasp and the non-tree contraction: each changed
        # the matrix, which was read off the sums again; the split needs none
        assert snfs == 3
        payload = json.loads(out)
        assert payload["invariant"] == str(diagram_invariant(parse_sgd(payload["sgd"]))) == "1"

    def test_renumbering_contraction_reads_the_matrix_again(self, tmp_path, monkeypatch, capsys):
        d = parse_sgd(RENUMBERED_TEXT)
        states = moves.replay_steps(d, "".join(f"{ln}\n" for ln in RENUMBERING))
        numbers = [component_of_edge(state.diagram(), "a1") for _, state in states]
        assert numbers == [1, 2, 2, 2, 2]
        entries = self._matrices(RENUMBERED_TEXT, RENUMBERING)
        assert entries == [((1,), (1,)), ((1, 1),), ((0, 1),), ((1, 1),), ((1, 1),)]
        code, out, err, recorded, snfs = self._replay(
            tmp_path, monkeypatch, capsys, RENUMBERED_TEXT, RENUMBERING)
        assert (code, err, recorded) == (0, "", RENUMBERING)
        # the start, the renumbering contraction (its matrix is transposed)
        # and the two inter-component crossing changes
        assert snfs == 4
        payload = json.loads(out)
        assert payload["invariant"] == str(diagram_invariant(parse_sgd(payload["sgd"]))) == "1"

    def _assert_move_fails(self, args, recorded, lines, capsys):
        # exit 4, the failing move named, and --moves-out up to and
        # including it
        assert cli.main(args + ["--moves-out", str(recorded)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("self-check failed: ") and err.count("\n") == 1
        assert err.endswith(f", in move {lines[-1]}\n")
        assert recorded.read_text().splitlines() == lines
        return err

    def test_contracting_an_edge_with_passages_fails_its_move(self, tmp_path, monkeypatch, capsys):
        # a contraction that no longer refuses an edge carrying passages
        monkeypatch.setattr(moves.WalkState, "_contractible_edge",
                            lambda state, eid: state._edges[eid])
        src, replay = tmp_path / "in.sgd", tmp_path / "moves.txt"
        src.write_text(TWO_LOOPS_TEXT)
        lines = ["split_vertex u1 v1 e1 a1.head", "contract_edge a1", "split_vertex u2 v2 e2"]
        replay.write_text("".join(f"{ln}\n" for ln in lines))
        err = self._assert_move_fails(["perturb", str(src), "--replay", str(replay)],
                                      tmp_path / "out.txt", lines[:2], capsys)
        assert "'a1' added or removed carries crossing passages" in err

    def test_split_leaving_its_edge_out_of_the_tree_fails_its_move(
            self, tmp_path, monkeypatch, capsys):
        d = canonical_diagram(3, 3, (1, 2, 4))
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(d))
        lines = [format_move(rec) for _, rec in walk_to_first_split(d, 200, 7)]
        assert 1 < len(lines) < 200
        monkeypatch.setattr(moves.WalkState, "_graph_moved",
                            leaving_split_edge_out(moves.WalkState._graph_moved))
        err = self._assert_move_fails(["perturb", str(src), "--steps", "200", "--seed", "7"],
                                      tmp_path / "moves.txt", lines, capsys)
        assert "the tree kept for component 2 has 0 edges for 2 vertices" in err

    def test_non_tree_contraction_off_the_cycle_fails_exit_4(self, tmp_path, monkeypatch, capsys):
        # a non-tree contraction that removes a tree edge off the edge's
        # fundamental cycle: the tree has the right edge count, so the move
        # passes its certificate, but it no longer spans its component, and
        # the matrix read after the move, over that tree, fails
        real = moves.WalkState.contract_edge

        def off_cycle(state, eid):
            key = state._comp_of[state._edges[eid][0]]  # the tail
            tree = state._trees[key]
            before = list(tree)
            cycle = next(c.coeffs for c in state.basis(1).cycles if eid in c.coeffs)
            real(state, eid)
            (gone,) = set(before) - set(tree)
            tree[gone] = None
            del tree[next(x for x in before if x not in cycle)]

        monkeypatch.setattr(moves.WalkState, "contract_edge", off_cycle)
        src, replay = tmp_path / "in.sgd", tmp_path / "moves.txt"
        src.write_text(TWO_LOOPS_TEXT)
        # e2 is a tree edge off a2's cycle a2 - e1
        lines = ["split_vertex u1 v1 e1 a1.head a2.head", "split_vertex u1 v2 e2",
                 "contract_edge a2", "split_vertex u2 v3 e3"]
        replay.write_text("".join(f"{ln}\n" for ln in lines))
        recorded = tmp_path / "out.txt"
        assert cli.main(["perturb", str(src), "--replay", str(replay),
                         "--moves-out", str(recorded)]) == 4
        assert capsys.readouterr().err == (
            "self-check failed: the tree kept for component 1: "
            "not a spanning tree: it does not reach every vertex\n")
        assert recorded.read_text().splitlines() == lines[:3]

    def test_corrupted_kept_tree_fails_the_final_check_exit_4(self, tmp_path, monkeypatch, capsys):
        # a tree edge dropped from a kept tree at the last step, with the
        # matrix entries left as they were: no per-step check reads the
        # bases, so only the final check, which reads them, catches it
        real_walk = cli.walk_steps

        def walk(d, steps, seed):
            for n, (rec, state) in enumerate(real_walk(d, steps, seed)):
                if n == steps - 1:
                    key = state._order[0]
                    del state._trees[key][next(iter(state._trees[key]))]
                yield rec, state

        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(3, 3, (1, 2, 4))))
        args = ["perturb", str(src), "--steps", "100", "--seed", "5"]
        assert cli.main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "walk_steps", walk)
        assert cli.main(args) == 4
        assert capsys.readouterr().err == (
            "self-check failed: the tree kept for component 1: "
            "not a spanning tree: wrong edge count\n")

    def test_reordered_component_fails_the_final_check_exit_4(self, tmp_path, monkeypatch, capsys):
        # a component's vertex list reversed at the last step, as a faulty
        # move might leave it: the matrix and the trees are untouched, so
        # every other check passes, and only the comparison of the state's
        # components with the final diagram's catches it
        real_walk = cli.walk_steps

        def walk(d, steps, seed):
            for n, (rec, state) in enumerate(real_walk(d, steps, seed)):
                if n == steps - 1:
                    state._comp_vertices[state._order[0]].reverse()
                yield rec, state

        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(3, 3, (1, 2, 4))))
        args = ["perturb", str(src), "--steps", "100", "--seed", "5"]
        monkeypatch.setattr(cli, "walk_steps", walk)
        assert cli.main(args) == 4
        assert capsys.readouterr().err == (
            "self-check failed: component 1 kept along the walk differs "
            "from the final diagram's\n")

    def test_inter_component_crossing_drawn_by_a_walk_exit_4(self, tmp_path, monkeypatch, capsys):
        # a walk draws crossing changes from the crossings the state keeps
        # as intra-component and records each as preserving the invariant,
        # so one between the components, planted among them, is checked
        # as such a move, and the invariant it changes fails the step
        real_init = moves.WalkState.__init__

        def planted(state, d):
            real_init(state, d)
            state._intra.insert(0, "x1")  # a1 over b1

        monkeypatch.setattr(moves.WalkState, "__init__", planted)
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(canonical_diagram(3, 3, (1, 2, 4))))
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "7"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("self-check failed: invariant changed from 1 2 4 to ")
        assert err.endswith(" after homotopy-preserving move crossing_change x1\n")

    def test_golden_walk_over_ids_the_pools_cannot_hand_out(self, capsys):
        # perturb_odd_ids.json: perturb odd_ids.sgd --steps 200 --seed 1
        # --json.  The bare prefix, a leading zero and 25 digits are ids
        # the walk never hands out; the walk contracts edges "e" and the
        # 25-digit one, freeing vertex "v01" and the 25-digit vertex, and
        # its splits hand out v1, v2, ... around them.
        golden = (DATA / "perturb_odd_ids.json").read_text(encoding="utf-8")
        assert cli.main(["perturb", str(DATA / "odd_ids.sgd"), "--steps", "200", "--seed", "1",
                         "--json"]) == 0
        assert capsys.readouterr().out == golden
        moved = json.loads(golden)["moves"]
        assert {"contract_edge e", "contract_edge e1234567890123456789012345"} <= set(moved)

    def test_long_walk_replays_to_the_same_bytes(self, tmp_path, capsys):
        # 20,000 steps took minutes when every step rebuilt the diagram and
        # its matrix from all the crossings; no timing is asserted
        src = tmp_path / "c.sgd"
        assert cli.main(["canonical", "3", "3", "1", "2", "4", "--out", str(src)]) == 0
        walked, recorded = tmp_path / "walked.sgd", tmp_path / "moves.txt"
        assert cli.main(["perturb", str(src), "--steps", "20000", "--seed", "7",
                         "--out", str(walked), "--moves-out", str(recorded)]) == 0
        assert len(recorded.read_text(encoding="utf-8").splitlines()) == 20000
        replayed = tmp_path / "replayed.sgd"
        assert cli.main(["perturb", str(src), "--replay", str(recorded), "--out", str(replayed)]) == 0
        assert walked.read_bytes() == replayed.read_bytes()
        assert cli.main(["invariant", str(walked)]) == 0
        assert capsys.readouterr().out == "1 2 4\n"

    @pytest.mark.parametrize("count, text", [
        (0, "sgd 1\n"),
        (1, "sgd 1\nvertex a\nedge e a a\n"),
        (3, "sgd 1\nvertex a\nvertex b\nvertex c\nedge e a a\n"
            "crossing x1 over e 0 under e 1 sign +\n"),
    ])
    def test_wrong_component_count_exit_2(self, count, text, tmp_path, capsys):
        src, out, recorded = tmp_path / "in.sgd", tmp_path / "out.sgd", tmp_path / "moves.txt"
        src.write_text(text)
        assert cli.main(["perturb", str(src), "--out", str(out),
                         "--moves-out", str(recorded)]) == 2
        assert capsys.readouterr() == ("", f"error: diagram has {count} components, expected 2\n")
        assert not out.exists() and not recorded.exists()

    def test_bad_seed_exit_2(self, hopf_file):
        assert cli.main(["perturb", hopf_file, "--seed", "-1"]) == 2

    def test_bad_replay_lines_exit_2(self, hopf_file, tmp_path):
        for line in ("crossing_change x999", "clasp a1 0", "teleport a1"):
            replay = tmp_path / "moves.txt"
            replay.write_text(line + "\n")
            assert cli.main(["perturb", hopf_file, "--replay", str(replay)]) == 2

    def test_replay_of_invariant_changing_move_is_allowed(self, split_file, tmp_path, capsys):
        # an inter-component clasp is not homotopy preserving, so the
        # self-check does not apply to it; the result is the Hopf diagram
        replay = tmp_path / "moves.txt"
        replay.write_text("clasp a1 0 b1 0 1\n")
        out = tmp_path / "out.sgd"
        assert cli.main(["perturb", split_file, "--replay", str(replay), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["invariant", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1"


# A diagram whose over- and under-counts differ is no spatial graph's
# diagram: the one crossing x1 puts l over m and nothing puts m over l.
# Contracting t leaves c as its component's smallest vertex, so the
# components swap numbers, and so does the over-count the invariant reads.
UNREALIZABLE_TEXT = (
    "sgd 1\nvertex a\nvertex b\nvertex c\nedge l c c\nedge m b b\nedge t c a\n"
    "crossing x1 over l 0 under m 0 sign +\n"
)
UNREALIZABLE_ERROR = ("fails the over/under check: lk(z, w) != lk(w, z) for some basis "
                      "cycles z, w, so it is not realizable")


def components_swapped(d):
    """``d`` with its vertex names permuted so that its two components swap
    numbers: component 2's vertices take the smallest names."""
    first, second = d.components
    to = dict(zip(second.vertices + first.vertices, sorted(d.vertices)))
    return Diagram([to[v] for v in d.vertices],
                   [Edge(e.id, to[e.tail], to[e.head]) for e in d.edges], d.rows)


class TestUnrealizable:
    """``classify`` and ``perturb`` refuse a diagram that fails the over/under
    check with exit 2; ``invariant`` reports it (test_unrealizable_diagram_flagged)."""

    def test_perturb_exit_2_not_a_failed_self_check(self, tmp_path, capsys):
        src, replay = tmp_path / "in.sgd", tmp_path / "moves.txt"
        src.write_text(UNREALIZABLE_TEXT)
        replay.write_text("contract_edge t\n")
        for args in (["--replay", str(replay)], ["--steps", "20"]):
            assert cli.main(["perturb", str(src), *args]) == 2
            assert capsys.readouterr() == ("", f"error: diagram {UNREALIZABLE_ERROR}\n")

    def test_classify_exit_2_not_inequivalent(self, tmp_path, capsys):
        # the same diagram with b renamed d: the components swap numbers
        text = UNREALIZABLE_TEXT.replace("vertex a\n", "").replace("edge t c a\n", "")
        a, b = tmp_path / "a.sgd", tmp_path / "b.sgd"
        a.write_text(text)
        b.write_text(text.replace(" b", " d"))
        good = tmp_path / "hopf.sgd"
        good.write_text(HOPF_TEXT)
        for pair, name in (((a, b), "A"), ((good, b), "B"), ((b, good), "A")):
            assert cli.main(["classify", *map(str, pair)]) == 2
            assert capsys.readouterr() == ("", f"error: diagram {name} {UNREALIZABLE_ERROR}\n")

    def test_random_draws_exit_2_never_1_or_4(self, tmp_path, capsys):
        # every valid two-component draw: a consistent one walks and matches
        # itself with its components swapped, an inconsistent one exits 2
        rng = random.Random(0)
        a, b = tmp_path / "a.sgd", tmp_path / "b.sgd"
        seen = Counter()
        for _ in range(600):
            d = random_diagram(rng)
            if validate(d) or len(d.components) != 2:
                continue
            consistent = linking.over_under_consistent(d)
            seen[consistent] += 1
            want = 0 if consistent else 2
            a.write_text(serialize_sgd(d))
            b.write_text(serialize_sgd(components_swapped(d)))
            for seed in ("1", "11", "29"):
                assert cli.main(["perturb", str(a), "--steps", "60", "--seed", seed]) == want
            assert cli.main(["classify", str(a), str(b)]) == want
            err = capsys.readouterr().err
            assert err == "".join(f"error: diagram {name}{UNREALIZABLE_ERROR}\n"
                                  for name in ("", "", "", "A ")) * (not consistent)
        assert seen[True] > 50 and seen[False] >= 5


class TestSnf:
    def write(self, tmp_path, text):
        p = tmp_path / "m.txt"
        p.write_text(text)
        return str(p)

    def test_divisors(self, tmp_path, capsys):
        path = self.write(tmp_path, "2 2\n2 0\n0 3\n")
        assert cli.main(["snf", path]) == 0
        assert capsys.readouterr().out.strip() == "1 6"

    def test_zero_matrix_prints_empty(self, tmp_path, capsys):
        path = self.write(tmp_path, "2 3\n0 0 0 0 0 0\n")
        assert cli.main(["snf", path]) == 0
        assert capsys.readouterr().out == "\n"

    def test_one_by_one(self, tmp_path, capsys):
        path = self.write(tmp_path, "1 1\n7\n")
        assert cli.main(["snf", path]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_malformed_exit_3(self, tmp_path):
        assert cli.main(["snf", self.write(tmp_path, "2 2\n1 2 3\n")]) == 3
        assert cli.main(["snf", self.write(tmp_path, "x y\n")]) == 3

    @pytest.mark.parametrize("text, token", [
        ("2 2\n1_0 2 3 4\n", "1_0"),            # int() reads 10
        ("2 2\n١ 2 3 4\n", "١"),      # int() reads an Arabic-Indic 1
        ("2 ٢\n1 2 3 4\n", "٢"),      # the header too
        ("2 2\n1 2 3 +-4\n", "+-4"),
    ])
    def test_entry_that_is_not_an_ascii_integer_exit_3(self, tmp_path, capsys, text, token):
        assert cli.main(["snf", self.write(tmp_path, text)]) == 3
        assert capsys.readouterr() == ("", f"error: matrix file: {token!r} is not an integer\n")

    def test_signs_and_leading_zeros_are_read(self, tmp_path, capsys):
        assert cli.main(["snf", self.write(tmp_path, "+2 02\n+3 -0\n00 6\n")]) == 0
        assert capsys.readouterr().out == "3 6\n"
        assert cli.main(["snf", self.write(tmp_path, "00 00\n")]) == 0
        assert capsys.readouterr().out == "\n"

    def test_json_certificate(self, tmp_path, capsys):
        path = self.write(tmp_path, "2 2\n4 2\n2 4\n")
        assert cli.main(["snf", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["divisors"] == [2, 6]
        assert payload["D"] == [[2, 0], [0, 6]]
        assert len(payload["U"]) == 2 and len(payload["V"]) == 2

    @pytest.mark.parametrize("header, transform", [("0 1500", "V"), ("1500 0", "U")])
    def test_empty_matrix_is_not_cubic_in_declared_width(self, tmp_path, capsys, header, transform):
        # a determinant that eliminates the identity transform in full runs for minutes at this width
        path = self.write(tmp_path, header + "\n")
        assert cli.main(["snf", path]) == 0
        assert capsys.readouterr().out == "\n"
        assert cli.main(["snf", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["divisors"] == []
        assert payload[transform] == [[int(i == j) for j in range(1500)] for i in range(1500)]
        # the w x w identity transform makes the cost quadratic in w, so 4x
        # the width takes about 16x the time; eliminating it in full would
        # take about 64x, and the bound at 32 tells the two apart
        empty = ((lambda w: IntMatrix(0, w, ())) if transform == "V"
                 else (lambda w: IntMatrix(w, 0, ((),) * w)))
        assert ratio(lambda w: smith.smith_normal_form(empty(w)), 375, 1500) < 32

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_results_past_the_int_digit_limit(self, tmp_path, capsys, monkeypatch, flags):
        # 200-digit entries grow transforms past the interpreter's int/str
        # digit limit; they are printed without the limit, which is process
        # wide, ever being changed
        rng = random.Random(71)
        a, b, c, d = (rng.randrange(10**199, 10**200) for _ in range(4))
        path = self.write(tmp_path, f"2 2\n{a} {b}\n{c} {d}\n")
        limit = sys.get_int_max_str_digits()

        def refuse(n):
            raise AssertionError(f"int/str digit limit set to {n}")
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert cli.main(["snf", path, *flags]) == 0
        monkeypatch.undo()
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        if flags:
            sys.set_int_max_str_digits(0)
            try:
                payload = json.loads(out)
            finally:
                sys.set_int_max_str_digits(limit)
            divisors = payload["divisors"]
            bits = max(abs(x).bit_length() for t in "UV" for row in payload[t] for x in row)
            assert bits > 4300 * 3.33  # more than 4300 decimal digits
        else:
            divisors = [int(x) for x in out.split()]
        d1, d2 = divisors
        assert d1 == gcd(a, b, c, d)
        assert d1 * d2 == abs(a * d - b * c)

    def test_decimal_text_matches_str(self):
        # pieces of 600 digits, zero-filled inside, at and around each split
        rng = random.Random(5)
        values = [0, 7, 10**600 - 1, 10**600, 10**1200 - 1, 10**1200, 10**1200 + 1, 10**2400 + 9]
        values += [rng.randrange(10**k) for k in (599, 600, 601, 1800, 4300)]
        for x in values + [-x for x in values]:
            assert cli._decimal(x) == str(x)
        m = IntMatrix(3, 2, ((1, -2), (0, 10**600), (-10**599, 10**600 - 1)))
        assert cli._json_matrix(m) == json.dumps(m.to_lists())
        assert cli._json_matrix(IntMatrix(2, 0, ((), ()))) == "[[], []]"

    def test_certificates_match_golden(self, tmp_path, capsys):
        # snf_certificates.json: matrix file text and the exact `snf --json` stdout
        for case in json.loads((DATA / "snf_certificates.json").read_text(encoding="utf-8")):
            path = self.write(tmp_path, case["matrix"])
            assert cli.main(["snf", path, "--json"]) == 0, case["name"]
            assert capsys.readouterr().out == case["stdout"], case["name"]


class TestExitContract:
    """Every input maps to 0/1/2/3/4 with one message line; no tracebacks."""

    def test_unicode_digit_passage_index_exit_3(self, tmp_path, capsys):
        p = tmp_path / "sup.sgd"
        p.write_text(HOPF_TEXT.replace("under b1 0", "under b1 \u00b2"), encoding="utf-8")
        assert cli.main(["invariant", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "passage index" in err

    @pytest.mark.parametrize("command", ["validate", "invariant", "perturb"])
    def test_passage_index_past_the_int_digit_limit_exit_3(self, tmp_path, capsys, command):
        # int() refuses a decimal this long; such a file is a parse failure
        long = "1" * 5001
        text = HOPF_TEXT.replace("under b1 0", f"under b1 {long}")
        p = tmp_path / "long.sgd"
        p.write_text(text, encoding="utf-8")
        assert cli.main([command, str(p)]) == 3
        lines = text.splitlines()
        row = next(i for i, ln in enumerate(lines) if long in ln)
        col = lines[row].index(long) + 1
        assert capsys.readouterr().err == (
            f"error: line {row + 1}, col {col}: bad passage index of 5001 digits\n")

    @pytest.mark.parametrize("command", ["validate", "invariant", "perturb", "snf"])
    def test_non_utf8_input_exit_3(self, tmp_path, capsys, command):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"sgd 1\nvertex caf\xe9\n")
        assert cli.main([command, str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_non_utf8_replay_exit_3(self, hopf_file, tmp_path, capsys):
        replay = tmp_path / "moves.txt"
        replay.write_bytes(b"crossing_change x\xff\n")
        assert cli.main(["perturb", hopf_file, "--replay", str(replay)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_steps_exit_2(self, hopf_file, capsys):
        assert cli.main(["perturb", hopf_file, "--steps", "-5"]) == 2
        assert capsys.readouterr().err == "error: steps must be nonnegative\n"

    def test_malformed_clasp_replay_exit_2(self, hopf_file, tmp_path, capsys):
        for line in ("clasp a1 x b1 0 1", "clasp a1 0 b1 0", "contract_edge", "split_vertex u1"):
            replay = tmp_path / "moves.txt"
            replay.write_text(line + "\n")
            assert cli.main(["perturb", hopf_file, "--replay", str(replay)]) == 2, line
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("line", [
        "split_vertex u1 v-1 é.x", "split_vertex u1 v-1 e9", "split_vertex u1 v9 é.x",
        "split_vertex u1 v9 e.9 a1.tail", "split_vertex u2 w² f1 b1.head",
    ])
    def test_replayed_split_with_an_id_sgd_cannot_write_exit_2(
            self, hopf_file, tmp_path, capsys, line):
        replay, out = tmp_path / "moves.txt", tmp_path / "out.sgd"
        replay.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["perturb", hopf_file, "--replay", str(replay), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "is not an [A-Za-z0-9_]+ token" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "split_vertex u1 v9 e9 a1.tail a1.tail",
        "split_vertex u1 v9 e9 a1.tail a1.head a2.tail a2.head a1.head",
        "split_vertex u2 v9 e9 b1.tail b1.tail b1.head",
    ])
    def test_replayed_split_listing_an_end_twice_exit_2(self, tmp_path, capsys, line):
        src, replay, out = tmp_path / "c.sgd", tmp_path / "moves.txt", tmp_path / "out.sgd"
        assert cli.main(["canonical", "2", "2", "1", "--out", str(src)]) == 0
        replay.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["perturb", str(src), "--replay", str(replay), "--out", str(out),
                         "--moves-out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr() == (
            "", "error: partition must cover the incident edge-ends exactly once\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, error", [
        ("crossing_change x1 extra tokens", "move 'crossing_change' has 3 parameters, expected 1"),
        ("contract_edge e1 junk", "move 'contract_edge' has 2 parameters, expected 1"),
        ("clasp a1 0 b1 0 1 junk", "move 'clasp' has 6 parameters, expected 5"),
    ])
    def test_replayed_move_with_extra_tokens_exit_2(self, hopf_file, tmp_path, capsys,
                                                    line, error):
        # a move other than a split takes exactly its parameters
        replay, out = tmp_path / "moves.txt", tmp_path / "out.sgd"
        replay.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["perturb", hopf_file, "--replay", str(replay), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        "a1 ٠ b1 0 1", "a1 0 b1 0_0 1", "a1 0 b1 0 １", "a1 ٠ b1 0_0 +1",
    ])
    def test_replayed_clasp_integer_that_is_not_ascii_exit_2(
            self, hopf_file, tmp_path, capsys, params):
        # int() would read each of these; a replay takes [+-]?[0-9]+ only
        replay, moves_out = tmp_path / "moves.txt", tmp_path / "moves-out.txt"
        replay.write_text(f"clasp {params}\n", encoding="utf-8")
        assert cli.main(["perturb", hopf_file, "--replay", str(replay),
                         "--moves-out", str(moves_out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad clasp parameters {params!r}\n"
        assert not moves_out.exists()

    def test_replayed_clasp_signs_are_read(self, hopf_file, tmp_path, capsys):
        replay, moves_out = tmp_path / "moves.txt", tmp_path / "moves-out.txt"
        replay.write_text("clasp a1 +0 b1 -0 +1\nclasp a1 0 b1 0 -1\n", encoding="utf-8")
        assert cli.main(["perturb", hopf_file, "--replay", str(replay),
                         "--moves-out", str(moves_out)]) == 0
        assert moves_out.read_text() == replay.read_text()

    def test_unexpected_exception_exit_4(self, hopf_file, monkeypatch, capsys):
        def crash(d, check=True):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_read_diagram", crash)
        assert cli.main(["invariant", hopf_file]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"


class TestLineEnds:
    """A file read with CRLF or lone-CR line ends gives the same exit code,
    stdout and stderr as its LF copy: errors name the same line and
    column."""

    SGD_RUNS = [
        (["invariant"], HOPF_TEXT),
        (["invariant", "--json", "--show-basis"], HOPF_TEXT),
        (["validate"], GAPPY_TEXT),
        (["invariant"], "# comment\n\n" + HOPF_TEXT.replace("under b1 0", "under  b1 ?")),
    ]
    REPLAY = "# a replay\nclasp a1 0 b1 0 1\n\ncrossing_change x1  # c\n"
    MATRICES = ["2 3\n4 2 0\n2 4 6\n", "2 2\n4 2\n2 x\n"]

    @staticmethod
    def run(capsys, argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def same_as_lf(self, capsys, tmp_path, end, argv, text, at):
        """The outcome of ``argv`` with ``text`` written at ``argv[at]``,
        which is the same with ``end`` for each line end as with LF."""
        outcomes = []
        for name, sep in (("lf", "\n"), ("other", end)):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", sep).encode())
            outcomes.append(self.run(capsys, [*argv[:at], str(path), *argv[at:]]))
        assert outcomes[0] == outcomes[1], (argv, end)
        return outcomes[0]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_sgd_file(self, tmp_path, capsys, end):
        codes = [self.same_as_lf(capsys, tmp_path, end, argv, text, 1)[0]
                 for argv, text in self.SGD_RUNS]
        assert codes == [0, 0, 2, 3]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_replay_file(self, hopf_file, tmp_path, capsys, end):
        for text, code in ((self.REPLAY, 0), (self.REPLAY + "clasp a1 x b1 0 1\n", 2)):
            argv = ["perturb", hopf_file, "--json", "--replay"]
            assert self.same_as_lf(capsys, tmp_path, end, argv, text, 4)[0] == code

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_matrix_file(self, tmp_path, capsys, end):
        for text, code in zip(self.MATRICES, (0, 3)):
            for argv in (["snf"], ["snf", "--json"]):
                assert self.same_as_lf(capsys, tmp_path, end, argv, text, 1)[0] == code

    def test_bad_byte_past_the_first_read_is_placed_in_the_whole_file(self, tmp_path, capsys):
        p = tmp_path / "late.sgd"
        head = b"sgd 1\n#" + b"-" * 20001 + b"\n"
        p.write_bytes(head + b"\xff\n")
        assert len(head) == 20009
        assert self.run(capsys, ["invariant", str(p)]) == (
            3, "", f"error: {p}: not UTF-8 text (invalid start byte at byte 20009)\n")


class TestParser:
    """``main`` builds its argparse parser once per process and reuses it."""

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_reuse_carries_nothing_between_commands(self, hopf_file, tmp_path, monkeypatch, capsys):
        # every command, run in process after the others, prints and exits
        # as it does alone in a fresh interpreter
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2\n4 2\n2 4\n")
        commands = [
            ["invariant", hopf_file, "--no-such-flag"],
            ["--help"],
            ["invariant", hopf_file, "--json", "--show-basis"],
            ["invariant", "--help"],
            ["invariant", hopf_file],
            [],
            ["perturb", hopf_file, "--steps", "3", "--seed", "5", "--json"],
            ["perturb", hopf_file],
            ["snf", str(matrix)],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        alone = []
        for argv in commands:
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from sglink.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv], env=env, capture_output=True, text=True, timeout=60)
            alone.append((run.returncode, run.stdout, run.stderr))
        assert [code for code, _, _ in alone] == [2, 0, 0, 0, 0, 2, 0, 0, 0]
        for _ in range(2):
            for argv, expected in zip(commands, alone):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse exits on --help and on a usage error
                    code = exc.code
                out = capsys.readouterr()
                assert (code, out.out, out.err) == expected, argv
