"""CLI subcommands and the exit-code contract."""

import json
import random
import sys
from math import gcd
from pathlib import Path

import pytest

import sglink.cli as cli
import sglink.linking as linking
import sglink.moves as moves
import sglink.smith as smith
from sglink import canonical_diagram, linking_matrix, parse_sgd, random_homotopy_walk, serialize_sgd
from sglink.moves import MoveRecord, walk_steps
from sglink.smith import IntMatrix

DATA = Path(__file__).parent / "data"

HOPF_TEXT = serialize_sgd(canonical_diagram(1, 1, (1,)))
SPLIT_TEXT = serialize_sgd(canonical_diagram(1, 1, ()))
GAPPY_TEXT = (
    "sgd 1\nvertex v\nedge e1 v v\nedge e2 v v\n"
    "crossing x1 over e1 0 under e2 0 sign +\n"
    "crossing x2 over e1 2 under e2 1 sign +\n"
)


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
        assert len(d.crossings) == 40000
        for loop in ("a1", "b1"):
            passages = sorted(idx for c in d.crossings for eid, idx in (c.over, c.under)
                              if eid == loop)
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
            return real(state, next(c.id for c in d.crossings
                                    if d.component_of_edge(c.over[0]) != d.component_of_edge(c.under[0])))

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
                    state.revision += 1
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
        # one SNF for the start plus one per step whose matrix changed; the
        # two default bases for the start, two more for the state at the
        # first step, then one basis per component whose graph or number
        # changed; linking_matrix once for the start and once per step, but
        # the matrix read off the running sums only at the first step and
        # at each step that changed the graph (no move of this walk changes
        # an inter-component sum); one matrix from the final crossings
        d = canonical_diagram(3, 3, (1, 2, 4))
        src = tmp_path / "c.sgd"
        src.write_text(serialize_sgd(d))
        matrix_steps = graph_steps = bases = reads = 0
        built = {}  # component number -> (vertices, edge ids) of its last basis
        prev, prev_entries = d, linking_matrix(d).entries
        for n, (_, state) in enumerate(walk_steps(d, 200, 7)):
            cur = state.diagram()
            entries = linking_matrix(cur).entries
            matrix_steps += entries != prev_entries
            graph_changed = (cur.vertices, cur.edges) != (prev.vertices, prev.edges)
            reads += n == 0 or graph_changed
            graph_steps += graph_changed
            if n == 0 or graph_changed:
                for comp in cur.components:
                    if built.get(comp.index) != (comp.vertices, comp.edge_ids):
                        built[comp.index] = (comp.vertices, comp.edge_ids)
                        bases += 1
            prev, prev_entries = cur, entries

        calls = {"smith_normal_form": 0, "cycle_basis": 0, "fundamental_basis": 0,
                 "linking_matrix": 0, "moves.matrix_from_pairs": 0, "cli.matrix_from_pairs": 0}

        def counted(module, name, key=None):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(smith, "smith_normal_form")
        counted(linking, "cycle_basis")
        counted(moves, "fundamental_basis")
        counted(cli, "linking_matrix")
        counted(moves, "matrix_from_pairs", "moves.matrix_from_pairs")
        counted(cli, "matrix_from_pairs", "cli.matrix_from_pairs")
        assert cli.main(["perturb", str(src), "--steps", "200", "--seed", "7", "--json"]) == 0
        capsys.readouterr()
        assert calls == {"smith_normal_form": 1 + matrix_steps, "cycle_basis": 2,
                         "fundamental_basis": bases, "linking_matrix": 1 + 200,
                         "moves.matrix_from_pairs": reads, "cli.matrix_from_pairs": 1}
        assert 0 < matrix_steps < 200 and 0 < graph_steps < 200
        assert graph_steps < bases < 2 * graph_steps
        assert graph_steps <= reads <= graph_steps + 1

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

    def test_unexpected_exception_exit_4(self, hopf_file, monkeypatch, capsys):
        def crash(d, check=True):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_read_diagram", crash)
        assert cli.main(["invariant", hopf_file]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"
