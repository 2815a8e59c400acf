"""Diagram model, SGD parsing/serialization, and the validator."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import passage_counts, random_diagram
from sglink import (
    Diagram,
    DomainError,
    Edge,
    SgdParseError,
    canonical_diagram,
    parse_sgd,
    serialize_sgd,
    validate,
)
from sglink.moves import WalkState
from timing import ratio

HOPF_TEXT = """\
sgd 1
vertex v1
vertex v2
edge e1 v1 v1
edge e2 v2 v2
crossing x1 over e1 0 under e2 0 sign +
crossing x2 over e2 1 under e1 1 sign +
"""

DATA = Path(__file__).parent / "data"


class TestParse:
    def test_empty_diagram(self):
        d = parse_sgd("sgd 1\nvertex a\nvertex b\n")
        assert d.vertices == ("a", "b")
        assert d.edges == () and d.rows == ()
        assert len(d.components) == 2

    def test_hopf(self):
        d = parse_sgd(HOPF_TEXT)
        assert [c.edge_ids for c in d.components] == [("e1",), ("e2",)]
        assert [r[5] for r in d.rows if r[0] == "x1"] == [1]
        assert passage_counts(d)["e1"] == 2

    def test_comments_and_blanks(self):
        d = parse_sgd("# leading comment\n\nsgd 1\nvertex a  # trailing\n\n")
        assert d.vertices == ("a",)

    def test_passage_gap_is_an_error(self):
        text = (
            "sgd 1\nvertex v\nedge e1 v v\nedge e2 v v\n"
            "crossing x1 over e1 0 under e2 0 sign +\n"
            "crossing x2 over e1 2 under e2 1 sign +\n"
        )
        with pytest.raises(SgdParseError, match="passage"):
            parse_sgd(text)

    # (text, id label, line, column, message): one case for each error
    # parse_sgd raises, then cases where two checks fail on one line and
    # the earlier check in the line's order must win
    V = "sgd 1\nvertex a\nedge e a a\n"
    X1 = V + "crossing x1 over e 0 under e 1 sign +\n"
    REJECTS = [
        ("vertex a\n", "header", 1, 1, "expected header 'sgd 1'"),
        ("sgd 2\nvertex a\n", "header", 1, 1, "expected header 'sgd 1'"),
        ("  # a comment\n", "no header", 1, 1, "missing header 'sgd 1'"),
        ("sgd 1\nvertex a\nvertex a\n", "duplicate vertex", 3, 8, "duplicate vertex id 'a'"),
        ("sgd 1\nvertex a\nedge e a b\n", "undeclared vertex",
         3, 10, "edge references undeclared vertex 'b'"),
        ("sgd 1\nedge e a a\n", "undeclared vertex",
         2, 8, "edge references undeclared vertex 'a'"),
        ("sgd 1\nvertex a\nedge e a a\nvertex b\n", "after edges",
         4, 1, "vertex declared after edges or crossings"),
        (V + "crossing x over e 0 under f 0 sign +\n", "undeclared edge",
         4, 27, "crossing references undeclared edge 'f'"),
        (V + "crossing x over e 0 under e 1 sign *\n", "sign",
         4, 36, "bad sign '*', expected + or -"),
        (V + "crossing x over e ? under e 1 sign +\n", "passage index",
         4, 19, "bad passage index '?'"),
        (V + "crossing x over e \u00b2 under e 1 sign +\n", "passage index",
         4, 19, "bad passage index '\u00b2'"),
        (V + "crossing x over e \u0663 under e 1 sign +\n", "passage index",
         4, 19, "bad passage index '\u0663'"),
        ("sgd 1\nvertex a-b\n", "identifier", 2, 8, "bad identifier 'a-b'"),
        ("sgd 1\nfoo a\n", "unknown declaration", 2, 1, "unknown declaration 'foo'"),
        ("sgd 1\nvertex\n", "expected", 2, 1, "expected: vertex <vid>"),
        ("sgd 1\nvertex a\nedge e a\n", "expected edge",
         3, 1, "expected: edge <eid> <tail> <head>"),
        ("sgd 1\nvertex a\nedge e? a a\n", "edge identifier", 3, 6, "bad identifier 'e?'"),
        ("sgd 1\nvertex a\nedge e a-b a\n", "tail identifier", 3, 8, "bad identifier 'a-b'"),
        ("sgd 1\nvertex a\nedge e a a\nedge e a a\n", "duplicate edge",
         4, 6, "duplicate edge id 'e'"),
        (X1 + "edge f a a\n", "after crossings", 5, 1, "edge declared after crossings"),
        (V + "crossing x over e 0 beneath e 1 sign +\n", "keyword", 4, 1,
         "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->"),
        (V + "crossing x over e 0 under e 1\n", "expected crossing", 4, 1,
         "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->"),
        (V + "crossing x! over e 0 under e 1 sign +\n", "crossing identifier",
         4, 10, "bad identifier 'x!'"),
        (X1 + "crossing x1 over e 2 under e 3 sign +\n", "duplicate crossing",
         5, 10, "duplicate crossing id 'x1'"),
        (V + "crossing x over e-1 0 under e 1 sign +\n", "over identifier",
         4, 17, "bad identifier 'e-1'"),
        (V + "crossing x over e 0 under e " + "1" + "0" * 4300 + " sign +\n", "4301 digits",
         4, 29, "bad passage index of 4301 digits"),
        (V + "crossing x over e 0 under e 2 sign +\n", "invalid diagram",
         None, None, "invalid diagram: edge 'e' passage indices [0, 2] are not 0..1"),
        # an undeclared tail, then a bad head id: both ids are checked first
        ("sgd 1\nvertex a\nedge e b a-b\n", "tail undeclared head bad",
         3, 10, "bad identifier 'a-b'"),
        (X1 + "crossing x1 over e 2 beneath e 3 sign +\n", "keyword before duplicate", 5, 1,
         "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->"),
        (V + "crossing x over g ? under e 1 sign +\n", "over edge before over index",
         4, 17, "crossing references undeclared edge 'g'"),
        (V + "crossing x over e ? under g 1 sign +\n", "over index before under edge",
         4, 19, "bad passage index '?'"),
    ]

    # each case's id is its text and label, or its label alone when the
    # text is too long to read
    @pytest.mark.parametrize("text,line,column,message", [
        pytest.param(text, line, column, message,
                     id=f"{text}-{label}" if len(text) < 200 else label)
        for text, label, line, column, message in REJECTS])
    def test_rejects(self, text, line, column, message):
        with pytest.raises(SgdParseError) as err:
            parse_sgd(text)
        where = "" if line is None else f"line {line}, col {column}: "
        assert (err.value.line, err.value.column, str(err.value)) == (line, column, where + message)

    def test_error_carries_line_number(self):
        with pytest.raises(SgdParseError) as err:
            parse_sgd("sgd 1\nvertex a\nvertex a\n")
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("make", [
        lambda k: serialize_sgd(canonical_diagram(1, 1, (k,))),  # one long edge a side
        lambda k: "sgd 1\n" + "\n# vertex v\n   \t\n#\n" * 4 * k,  # blank and comment-only lines
    ], ids=["long_edge", "blank_lines"])
    def test_parse_is_linear_in_the_lines(self, make):
        # 4x the lines takes about 4x the time; a quadratic step would take
        # about 16x, so the bound at 8 tells the two apart on a loaded host
        assert ratio(parse_sgd, make(1500), make(6000)) < 8


class TestSerialize:
    def test_round_trip_hopf(self):
        d = parse_sgd(HOPF_TEXT)
        assert parse_sgd(serialize_sgd(d)) == d

    def test_empty_is_header_only(self):
        assert serialize_sgd(Diagram(())) == "sgd 1\n"

    def test_golden_canonical_hopf(self):
        golden = (DATA / "canonical_1_1_1.sgd").read_text(encoding="utf-8")
        assert serialize_sgd(canonical_diagram(1, 1, (1,))) == golden

    def test_deterministic_bytes(self):
        # same value built in a different declaration order
        a = Diagram(("q", "p"), (Edge("e2", "p", "q"), Edge("e1", "q", "p")))
        b = Diagram(("p", "q"), (Edge("e1", "q", "p"), Edge("e2", "p", "q")))
        assert a == b
        assert serialize_sgd(a) == serialize_sgd(b)

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(120):
            d = random_diagram(rng)
            assert parse_sgd(serialize_sgd(d)) == d

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        d = random_diagram(random.Random(seed))
        assert parse_sgd(serialize_sgd(d)) == d


class TestValidate:
    def test_valid_diagram(self):
        assert validate(parse_sgd(HOPF_TEXT)) == []

    def test_degenerate_crossing(self):
        d = Diagram(
            ("v",),
            (Edge("e", "v", "v"),),
            (("x", "e", 0, "e", 0, 1),),
        )
        codes = [v.code for v in validate(d)]
        assert "crossing-degenerate" in codes
        # the doubled reference also collides on the passage index
        assert "passage-duplicate" in codes

    def test_each_violation_class(self):
        edge = Edge("e", "v", "v")
        cases = {
            "duplicate-id": Diagram(("v", "v"), (edge,)),
            "dangling-vertex": Diagram(("v",), (Edge("f", "v", "w"),)),
            "dangling-edge": Diagram(("v",), (edge,), (("x", "g", 0, "e", 0, 1),)),
            "bad-sign": Diagram(("v",), (edge,), (("x", "e", 0, "e", 1, 2),)),
            "passage-gap": Diagram(("v",), (edge,), (("x", "e", 0, "e", 2, 1),)),
            "bad-identifier": Diagram(("v w",), ()),
        }
        for code, diagram in cases.items():
            assert code in [v.code for v in validate(diagram)], code

    @pytest.mark.parametrize("row", [
        ("x", "e", 0, "e", 1),  # five items
        ("x", "e", "0", "e", 1, 1),  # a passage index given as a string
        ["x", "e", 0, "e", 1, 1],  # a list, not a tuple
        (),  # no id to sort by
        (3, "e", 0, "e", 1, 1),  # an id that does not sort with "y"
    ])
    def test_malformed_row_is_one_violation(self, row):
        # a hand-built row of the wrong shape is reported, not raised on,
        # and none of its other checks run; a state refuses the diagram.
        # Rows that cannot be sorted by id are kept in the order given.
        good = ("y", "e", 0, "e", 1, 3)
        d = Diagram(("v",), (Edge("e", "v", "v"),), (row, good))
        assert [(v.code, v.entity, v.message) for v in validate(d)] == [
            ("bad-row", repr(row), f"crossing row {row!r} is not "
             "(id, over edge, over index, under edge, under index, sign)"),
            ("bad-sign", "y", "crossing 'y' sign must be +1 or -1"),
        ]
        with pytest.raises(DomainError, match="invalid diagram: crossing row"):
            WalkState(d)

    def test_edge_ids_that_cannot_be_sorted_are_kept_in_the_order_given(self):
        edges = (Edge("e", "a", "a"), Edge(7, "b", "b"))
        d = Diagram(("a", "b"), edges)
        assert d.edges == edges
        assert [(v.code, v.entity, v.message) for v in validate(d)] == [
            ("bad-identifier", 7, "identifier 7 is not an [A-Za-z0-9_]+ token")]

    def test_vertex_id_that_is_not_a_string_is_one_violation(self):
        assert [(v.code, v.entity, v.message) for v in validate(Diagram((1,)))] == [
            ("bad-identifier", 1, "identifier 1 is not an [A-Za-z0-9_]+ token")]

    def test_edge_id_that_is_not_a_string_is_one_violation(self):
        d = Diagram(("a",), (Edge(7, "a", "a"),))
        assert [(v.code, v.entity, v.message) for v in validate(d)] == [
            ("bad-identifier", 7, "identifier 7 is not an [A-Za-z0-9_]+ token")]

    def test_ids_that_do_not_hash_are_bad_identifiers_only(self):
        # each is reported once, takes no part in the duplicate checks, and
        # no edge can reference it; a state refuses the diagram, and the
        # diagram itself, holding a list, does not hash
        bad = "is not an [A-Za-z0-9_]+ token"
        cases = [
            (Diagram([["a"]]), [("bad-identifier", ["a"], f"identifier ['a'] {bad}")]),
            (Diagram([["a"], ["a"]]), [("bad-identifier", ["a"], f"identifier ['a'] {bad}")] * 2),
            (Diagram(("a",), (Edge(["e"], "a", "a"), Edge(["e"], "a", "a"))),
             [("bad-identifier", ["e"], f"identifier ['e'] {bad}")] * 2),
            (Diagram(("a", ["b"]), (Edge("e", "a", ["b"]),)), [
                ("bad-identifier", ["b"], f"identifier ['b'] {bad}"),
                ("dangling-vertex", "e", "edge 'e' references missing vertex ['b']")]),
            (Diagram(("a",), (Edge(["e"], "a", "a"),), (("x", "e", 0, "e", 1, 1),)), [
                ("bad-identifier", ["e"], f"identifier ['e'] {bad}"),
                ("dangling-edge", "x", "crossing 'x' references missing edge 'e'"),
                ("dangling-edge", "x", "crossing 'x' references missing edge 'e'")]),
        ]
        for d, want in cases:
            assert [(v.code, v.entity, v.message) for v in validate(d)] == want
            with pytest.raises(DomainError, match=r"invalid diagram: identifier \["):
                WalkState(d)
            with pytest.raises(TypeError, match="unhashable"):
                hash(d)

    def test_duplicate_and_gap_messages(self):
        edge = Edge("e", "v", "v")
        dup = Diagram(("v",), (edge,), (
            ("x1", "e", 2, "e", 0, 1),
            ("x2", "e", 2, "e", 0, 1),
            ("x3", "e", 1, "e", 3, 1),
        ))
        assert [v.message for v in validate(dup)] == [
            "edge 'e' passage indices used twice: [0, 2]"
        ]
        gap = Diagram(("v",), (edge,), (("x", "e", 3, "e", 0, 1),))
        assert [v.message for v in validate(gap)] == [
            "edge 'e' passage indices [0, 3] are not 0..1"
        ]

    def test_message_order(self):
        # the reference and passage checks run apart and their messages
        # interleave: identifiers, vertices, edges, then per crossing its
        # id, sign, degeneracy and references, then passage indices
        d = Diagram(
            ("v", "v", "w-"),
            (Edge("e", "v", "v"), Edge("f", "v", "u"), Edge("f", "w-", "w-")),
            (("x1", "e", 0, "e", 0, 1),
             ("x2", "g", 0, "g", 0, 2),
             ("x2", "e", 1, "h", 0, 1),
             ("x3", "e", 1, "e", 3, 0)),
        )
        assert [(v.code, v.message) for v in validate(d)] == [
            ("bad-identifier", "identifier 'w-' is not an [A-Za-z0-9_]+ token"),
            ("duplicate-id", "vertex id 'v' declared twice"),
            ("dangling-vertex", "edge 'f' references missing vertex 'u'"),
            ("duplicate-id", "edge id 'f' declared twice"),
            ("crossing-degenerate", "crossing 'x1' over and under reference the same passage"),
            ("bad-sign", "crossing 'x2' sign must be +1 or -1"),
            ("crossing-degenerate", "crossing 'x2' over and under reference the same passage"),
            ("dangling-edge", "crossing 'x2' references missing edge 'g'"),
            ("dangling-edge", "crossing 'x2' references missing edge 'g'"),
            ("duplicate-id", "crossing id 'x2' declared twice"),
            ("dangling-edge", "crossing 'x2' references missing edge 'h'"),
            ("bad-sign", "crossing 'x3' sign must be +1 or -1"),
            ("passage-duplicate", "edge 'e' passage indices used twice: [0, 1]"),
        ]


class TestComponents:
    def test_order_by_smallest_vertex(self):
        d = parse_sgd("sgd 1\nvertex z9\nvertex a0\nedge e1 z9 z9\n")
        assert d.components[0].vertices == ("a0",)
        assert d.components[1].edge_ids == ("e1",)

    def test_component_lookup(self):
        d = parse_sgd(HOPF_TEXT)
        assert [c.index for c in d.components if "e1" in c.edge_ids] == [1]
        assert [c.index for c in d.components if "e2" in c.edge_ids] == [2]
        assert [c.index for c in d.components if "v2" in c.vertices] == [2]
        with pytest.raises(DomainError):
            d.component(3)
        assert [c.index for c in d.components if "nope" in c.edge_ids] == []

    def test_multi_edge_component(self):
        d = parse_sgd(
            "sgd 1\nvertex a\nvertex b\nvertex c\nvertex d\nedge e1 a b\nedge e2 b c\n"
        )
        assert len(d.components) == 2
        assert d.components[0].vertices == ("a", "b", "c")
