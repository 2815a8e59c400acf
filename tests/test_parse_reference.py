"""``parse_sgd`` against the parser it replaced, kept here as a reference.

``reference_parse_sgd`` below is ``parse_sgd`` as it stood when every token
was paired with its column and three id sets stood beside three lists,
copied verbatim.  Today's parser splits a line into bare tokens and works
out a column only for a line it rejects.  On good input both must build
equal diagrams; on mutated input both must raise the same error: type,
text, line and column.  The mutations lay tabs, runs of spaces, other
Unicode blanks and mid-line ``#`` comments before the failing token, so
the column arithmetic is exercised, not just the messages.
"""

import random
from pathlib import Path

import pytest

from gen import random_diagram
from sglink import SgdParseError, canonical_diagram, parse_sgd, serialize_sgd
from sglink.moves import random_homotopy_walk
from sglink.sgd import _ID_RE, _LINE_RE, _TOKEN_RE, SGD_HEADER, Crossing, Diagram, Edge, validate

DATA = Path(__file__).parent / "data"

def _check_id(token: str, line: int, col: int) -> str:
    if not _ID_RE.match(token):
        raise SgdParseError(f"bad identifier {token!r}", line, col)
    return token


def reference_parse_sgd(text: str, check: bool = True) -> Diagram:
    """Parse SGD text into a Diagram.

    Syntax problems (bad tokens, wrong declaration order, duplicate or
    forward references) raise SgdParseError with the line and column.  With
    ``check`` (the default) the structural invariants are also enforced and
    their violations raised; pass ``check=False`` to obtain the raw diagram
    for use with :func:`validate`.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    crossings: list[Crossing] = []
    vertex_ids: set[str] = set()
    edge_ids: set[str] = set()
    crossing_ids: set[str] = set()
    saw_header = False
    section = "vertex"  # advances vertex -> edge -> crossing

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if not toks:
            continue
        if not saw_header:
            if [t for t, _ in toks] != SGD_HEADER.split():
                raise SgdParseError(f"expected header {SGD_HEADER!r}", lineno, toks[0][1])
            saw_header = True
            continue
        kind, kind_col = toks[0]
        words = [t for t, _ in toks]

        if kind == "vertex":
            if section != "vertex":
                raise SgdParseError("vertex declared after edges or crossings", lineno, kind_col)
            if len(words) != 2:
                raise SgdParseError("expected: vertex <vid>", lineno, kind_col)
            vid = _check_id(toks[1][0], lineno, toks[1][1])
            if vid in vertex_ids:
                raise SgdParseError(f"duplicate vertex id {vid!r}", lineno, toks[1][1])
            vertex_ids.add(vid)
            vertices.append(vid)
        elif kind == "edge":
            if section == "crossing":
                raise SgdParseError("edge declared after crossings", lineno, kind_col)
            section = "edge"
            if len(words) != 4:
                raise SgdParseError("expected: edge <eid> <tail> <head>", lineno, kind_col)
            eid = _check_id(toks[1][0], lineno, toks[1][1])
            if eid in edge_ids:
                raise SgdParseError(f"duplicate edge id {eid!r}", lineno, toks[1][1])
            tail = _check_id(toks[2][0], lineno, toks[2][1])
            head = _check_id(toks[3][0], lineno, toks[3][1])
            for vid, col in ((tail, toks[2][1]), (head, toks[3][1])):
                if vid not in vertex_ids:
                    raise SgdParseError(f"edge references undeclared vertex {vid!r}", lineno, col)
            edge_ids.add(eid)
            edges.append(Edge(eid, tail, head))
        elif kind == "crossing":
            section = "crossing"
            if len(words) != 10 or words[2] != "over" or words[5] != "under" or words[8] != "sign":
                raise SgdParseError(
                    "expected: crossing <xid> over <eid> <idx> under <eid> <idx> sign <+|->",
                    lineno, kind_col,
                )
            xid = _check_id(toks[1][0], lineno, toks[1][1])
            if xid in crossing_ids:
                raise SgdParseError(f"duplicate crossing id {xid!r}", lineno, toks[1][1])
            refs = []
            for eid_tok, idx_tok in ((toks[3], toks[4]), (toks[6], toks[7])):
                eid = _check_id(eid_tok[0], lineno, eid_tok[1])
                if eid not in edge_ids:
                    raise SgdParseError(f"crossing references undeclared edge {eid!r}",
                                        lineno, eid_tok[1])
                if not (idx_tok[0].isascii() and idx_tok[0].isdigit()):
                    raise SgdParseError(f"bad passage index {idx_tok[0]!r}", lineno, idx_tok[1])
                refs.append((eid, int(idx_tok[0])))
            sign_tok, sign_col = toks[9]
            if sign_tok not in ("+", "-"):
                raise SgdParseError(f"bad sign {sign_tok!r}, expected + or -", lineno, sign_col)
            crossing_ids.add(xid)
            crossings.append(Crossing(xid, refs[0], refs[1], 1 if sign_tok == "+" else -1))
        else:
            raise SgdParseError(f"unknown declaration {kind!r}", lineno, kind_col)

    if not saw_header:
        raise SgdParseError(f"missing header {SGD_HEADER!r}", 1, 1)
    d = Diagram(tuple(vertices), tuple(edges), tuple(crossings))
    if check:
        problems = validate(d)
        if problems:
            detail = "; ".join(v.message for v in problems)
            raise SgdParseError(f"invalid diagram: {detail}")
    return d


SEPARATORS = (" ", "  ", "\t", " \t", "\t\t ", "   ", "　", "\xa0")
BAD_TOKENS = (
    "a-b", "?", "²", "٣", "1²", "*", "+", "-", "-1", "1.5",
    "x!", "é", "over", "under", "sign", "vertex", "zz9",
)
MESSAGES = (
    "expected header", "missing header", "unknown declaration", "bad identifier",
    "vertex declared after", "edge declared after", "expected: vertex",
    "expected: edge", "expected: crossing", "duplicate vertex id",
    "duplicate edge id", "duplicate crossing id", "undeclared vertex",
    "undeclared edge", "bad passage index", "bad sign", "invalid diagram",
)


def outcome(parse, text, check=True):
    """The diagram a parser builds, or the error it raises as comparable data."""
    try:
        return parse(text, check=check)
    except Exception as exc:  # any difference must show
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def assert_same(text):
    """Both parsers agree with and without ``check``; returns the checked outcome."""
    for check in (False, True):
        got = outcome(parse_sgd, text, check)
        assert got == outcome(reference_parse_sgd, text, check), (text, check)
    return got


def layout(rng, lines):
    """SGD text from token lists: random blanks between tokens, some lines
    indented, some trailing or token-glued comments, some blank lines."""
    out = []
    for words in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(("", "   ", "# comment only", "\t# vertex q")))
        text = rng.choice(("", "", "", " ", "\t", "  \t")) + rng.choice(SEPARATORS).join(words)
        if rng.random() < 0.2:
            text += rng.choice(SEPARATORS) + rng.choice(("#", "# edge e a a", "#x1 over"))
        out.append(text)
    return "\n".join(out) + rng.choice(("", "\n", "\r\n"))


def mutate(rng, lines):
    """One edit of the kind a hand-written or damaged file carries."""
    i = rng.randrange(len(lines))
    words = lines[i]
    k = rng.randrange(len(words)) if words else 0
    kind = rng.choice(("token", "token", "reuse", "drop", "extra", "move", "dup",
                       "comment", "glued", "index", "sign", "keyword"))
    if kind == "token" and words:
        words[k] = rng.choice(BAD_TOKENS)
    elif kind == "reuse" and words:
        # an id of another line: a duplicate, a wrong reference or a clash
        other = lines[rng.randrange(len(lines))]
        if len(other) > 1:
            words[k] = other[1]
    elif kind == "drop" and words:
        del words[k]
    elif kind == "extra":
        words.insert(k, rng.choice(BAD_TOKENS + ("v1", "0")))
    elif kind == "move":
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(i))
    elif kind == "dup":
        lines.insert(rng.randrange(len(lines) + 1), list(words))
    elif kind == "comment":
        words.insert(k, "#")
    elif kind == "glued" and words:
        words[k] += rng.choice(("#", "#tail", "#" + SGD_HEADER))
    elif kind == "index" and len(words) == 10:
        words[rng.choice((4, 7))] = rng.choice(("²", "٣", "-1", "+2", "9", "0", "01"))
    elif kind == "sign" and len(words) == 10:
        words[9] = rng.choice(("*", "++", "+1", "−", "plus", "+-"))
    elif kind == "keyword" and words:
        words[0] = rng.choice(("vertex", "edge", "crossing", "Vertex", "sgd", "node"))


def walked_canonical(count, steps):
    return [random_homotopy_walk(canonical_diagram(3, 3, (1, 2, 4)), steps, seed)[0]
            for seed in range(count)]


def test_good_input_builds_equal_diagrams():
    rng = random.Random(5)
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.sgd"))]
    texts += [serialize_sgd(random_diagram(rng)) for _ in range(150)]
    texts += [serialize_sgd(d) for d in walked_canonical(6, 40)]
    assert len(texts) > 150
    for text in texts:
        lines = [ln.split() for ln in text.splitlines()]
        for variant in (text, layout(rng, lines)):
            d = assert_same(variant)
            assert isinstance(d, Diagram) and serialize_sgd(d) == text


def test_mutated_input_raises_identical_errors():
    rng = random.Random(11)
    bases = [serialize_sgd(d) for d in walked_canonical(6, 40)]
    bases += [serialize_sgd(random_diagram(rng)) for _ in range(20)]
    texts = ("", "\n\t\n", "# sgd 1\n", "  #\n\n")  # no significant line
    seen, columns = set(), set()
    for trial in range(3000 + len(texts)):
        if trial < len(texts):
            got = assert_same(texts[trial])
        else:
            lines = [ln.split() for ln in bases[trial % len(bases)].splitlines()]
            for _ in range(rng.choice((1, 1, 2, 3))):
                mutate(rng, lines)
            got = assert_same(layout(rng, lines))
        if isinstance(got, tuple):
            assert got[0] is SgdParseError
            seen.update(m for m in MESSAGES if m in got[1])
            columns.add(got[3])
    # the edits reach every check, at columns well inside their lines
    assert seen == set(MESSAGES)
    assert len(columns) > 20


SMALL = ["sgd 1", "vertex a", "vertex b", "edge e a a", "edge f b b",
         "crossing x1 over e 0 under f 0 sign +", "crossing x2 over f 1 under e 1 sign +"]


def test_lines_the_pattern_accepts_but_a_check_rejects():
    # Each last line has a valid shape, so _LINE_RE accepts it, and clashes
    # with the lines before it; blanks are tabs and Unicode spaces, and a
    # comment may follow the last token with no blank before it.
    cases = {
        "\tcrossing\u3000x1 over\te 2 under f\xa02 sign -#x1": "duplicate crossing id 'x1'",
        "crossing x3 over  g 2 under e 2 sign +  # g": "crossing references undeclared edge 'g'",
        "crossing x3 over e 2\tunder  g 2 sign +": "crossing references undeclared edge 'g'",
        "vertex\u2003c": "vertex declared after edges or crossings",
        " edge h a b#c": "edge declared after crossings",
    }
    for last, message in cases.items():
        assert _LINE_RE.fullmatch(last).lastgroup is not None, last
        got = assert_same("\n".join(SMALL + [last]) + "\n")
        assert got[:3] == (SgdParseError, f"line {len(SMALL) + 1}, col {got[3]}: {message}",
                           len(SMALL) + 1), last
    decls = SMALL[:3]
    for last, message in {"vertex\ta #": "duplicate vertex id 'a'",
                          "edge e a c": "edge references undeclared vertex 'c'",
                          "edge e b a\nedge e a a": "duplicate edge id 'e'"}.items():
        got = assert_same("\n".join(decls + [last]) + "\n")
        assert got[0] is SgdParseError and message in got[1], last


def test_index_past_the_digit_limit_is_a_parse_error():
    # the reference parser leaks int()'s ValueError here; the line itself
    # passes the pattern, and int() rejects it
    long = "0" * 5000 + "1"
    line = f"crossing x2 over f {long}\tunder e 1 sign +"
    assert _LINE_RE.fullmatch(line).lastgroup == "crossing"
    for check in (False, True):
        got = outcome(parse_sgd, "\n".join(SMALL[:-1] + [line]), check)
        assert got == (SgdParseError, f"line 7, col 20: bad passage index of 5001 digits", 7, 20)


def test_mid_line_comment_ends_the_declaration():
    text = "\n".join(SMALL[:4] + ["edge f b b#edge g b b", SMALL[5] + "#", SMALL[6] + "\t# x3"])
    assert assert_same(text) == parse_sgd("\n".join(SMALL))


def test_failed_match_is_linear_in_the_line():
    # every token class excludes blanks, so a long run of them cannot make
    # the pattern backtrack quadratically (10**6 blanks take ~0.1 s)
    blanks = " " * 10**6
    for line in (blanks + "x", "vertex" + blanks + "a b", "crossing x over e 0" + blanks + "?"):
        with pytest.raises(SgdParseError):
            parse_sgd("sgd 1\n" + line)
