"""Fuzzing the CLI's exit-code contract.

Whatever the input -- SGD text, a matrix file, a ``--replay`` move list or
``canonical`` arguments -- ``sglink`` must exit 0, 1, 2 or 3, never with a
traceback, and write nothing to stderr but ``error:`` lines.  Exit 4 means
an internal failure, so any input that reaches it is a bug in the program.
Inputs are valid files with random edits as well as arbitrary text.
"""

import contextlib
import io
import json
import random
import re
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sglink.cli as cli
from sglink import SgdParseError, canonical_diagram, parse_sgd, random_homotopy_walk, serialize_sgd
from sglink import validate
from sglink.moves import format_move

FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_start = canonical_diagram(2, 2, (1, 2))
_walked, _walk_moves = random_homotopy_walk(_start, 12, 3)
SGD_SEEDS = [serialize_sgd(d) for d in (
    canonical_diagram(1, 1, (1,)), canonical_diagram(2, 3, (1, 2)), _start, _walked)]
# the walk that made SEED3 from SEED2, so an unedited replay succeeds there
REPLAY_SEED = "".join(f"{format_move(r)}\n" for r in _walk_moves)
MATRIX_SEEDS = ["2 2\n4 2\n2 4\n", "3 2\n1 0\n0 6\n0 0\n", "1 1\n7\n"]
DATA_SGD = [p.read_text(encoding="utf-8")
            for p in sorted((Path(__file__).parent / "data").glob("*.sgd"))]
# The interpreter's limit on the digits int() converts (4300 by default);
# README documents that longer input integers are parse failures.
DIGIT_LIMIT = sys.get_int_max_str_digits()
# digit counts on both sides of the limit, and far past it
LONG_DIGITS = st.integers(DIGIT_LIMIT - 10, DIGIT_LIMIT + 10) | st.just(5001)

TOKENS = st.sampled_from([
    "", "0", "1", "2", "-1", "+", "-", "+1", "x1", "x2", "a1", "b1", "u1", "u2",
    "a1.tail", "b1.head", "over", "under", "sign", "vertex", "edge", "crossing",
    "clasp", "crossing_change", "contract_edge", "split_vertex", "sgd", "#",
    "x999", "\t", "\x00",
]) | st.text(max_size=6)
# stand-ins for a number: other integers, non-ASCII digits, and int() spellings
NUMBERS = st.sampled_from([
    "²", "٣", "１", "-1", "+1", "1_0", "007", "99999999999999999999", "1e3", "0x1",
]) | st.integers(-3, 1000).map(str)
# stand-ins for an identifier: tokens that are not [A-Za-z0-9_]+, and other ids
IDENTS = st.sampled_from([
    "v-1", "é", "e.9", "x!", "w²", "٣", "a1.tail", "-", "v9", "zz", "_",
])
IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
KEYWORDS = {"sgd", "vertex", "edge", "crossing", "over", "under", "sign",
            "crossing_change", "clasp", "contract_edge", "split_vertex"}
# edit -> (which tokens it replaces, what it puts in their place)
STAND_INS = {
    "number": (lambda t: t.isascii() and t.isdigit(), NUMBERS),
    "ident": (lambda t: bool(IDENT_RE.fullmatch(t)) and not t.isdigit() and t not in KEYWORDS,
              IDENTS),
}


@st.composite
def mutated(draw, seeds):
    """A seed text with a few random line and token edits."""
    seed = draw(st.sampled_from(seeds))
    lines = seed.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(
            ["drop", "dup", "swap", "token", "retoken", "number", "ident", "insert"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=10))))
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op in STAND_INS:
            # any number or id past the header: passage indices, move
            # positions and entries; vertex, edge, crossing and move ids
            fits, stand_ins = STAND_INS[op]
            spots = [(i, k) for i, line in enumerate(lines) if line != "sgd 1"
                     for k, t in enumerate(line.split(" ")) if fits(t)]
            if spots:
                i, k = draw(st.sampled_from(spots))
                toks = lines[i].split(" ")
                toks[k] = draw(stand_ins)
                lines[i] = " ".join(toks)
        else:
            # "retoken" reuses a token of the seed, which keeps more edits valid
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(
                st.sampled_from(seed.split()) if op == "retoken" else TOKENS)
            lines[i] = " ".join(toks)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def edited(seeds):
    return mutated(seeds).map(str.encode)


ARBITRARY = st.text().map(str.encode) | st.binary(max_size=64)


@st.composite
def matrix_files(draw):
    """A 'rows cols' header, either of which may be negative, and exactly
    rows * cols integers of any size."""
    rows, cols = draw(st.integers(-3, 5)), draw(st.integers(-3, 5))
    size = max(rows * cols, 0)
    entries = draw(st.lists(st.integers(), min_size=size, max_size=size))
    return " ".join(map(str, [rows, cols] + entries)).encode()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for k, text in enumerate(SGD_SEEDS):
        (d / f"seed{k}.sgd").write_text(text)
    return d


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (code, argv, err.getvalue())
    for line in err.getvalue().splitlines():
        assert line.startswith("error: "), (argv, err.getvalue())
    return code, out.getvalue(), err.getvalue()


def run_on(work, data, template):
    """Write ``data`` to a file and run ``template``, where IN names that
    file and SEEDk the k-th seed diagram."""
    path = work / "input"
    path.write_bytes(data)
    names = {"IN": str(path)}
    names.update((f"SEED{k}", str(work / f"seed{k}.sgd")) for k in range(len(SGD_SEEDS)))
    return run_cli([names.get(a, a) for a in template])


SGD_COMMANDS = [
    ["validate", "IN"],
    ["invariant", "IN"],
    ["invariant", "IN", "--json", "--show-basis"],
    ["invariant", "IN", "--show-matrix", "--show-basis"],
    ["perturb", "IN", "--steps", "4", "--json"],
    ["classify", "IN", "SEED0"],
]
REPLAY_COMMANDS = [["perturb", f"SEED{k}", "--replay", "IN", "--json"]
                   for k in range(len(SGD_SEEDS))]
SNF_COMMANDS = [["snf", "IN"], ["snf", "IN", "--json"]]


@settings(FUZZ, max_examples=500)
@given(data=edited(SGD_SEEDS), command=st.sampled_from(SGD_COMMANDS))
def test_sgd_input(work, data, command):
    run_on(work, data, command)


@FUZZ
@given(
    data=edited(MATRIX_SEEDS) | matrix_files(),
    command=st.sampled_from(SNF_COMMANDS),
)
def test_matrix_input(work, data, command):
    run_on(work, data, command)


@FUZZ
@example(data="split_vertex u1 v-1 é.x\n".encode(), command=REPLAY_COMMANDS[0])
@given(data=edited([REPLAY_SEED, "clasp a1 0 b1 0 1\n", "split_vertex u1 v9 e9 a1.tail\n"]),
       command=st.sampled_from(REPLAY_COMMANDS))
def test_replay_input(work, data, command):
    code, out, _ = run_on(work, data, command)
    if code == 0:  # a replay that succeeds writes SGD the parser reads back
        parse_sgd(json.loads(out)["sgd"])


@FUZZ
@given(data=ARBITRARY,
       command=st.sampled_from(SGD_COMMANDS + REPLAY_COMMANDS + SNF_COMMANDS))
def test_arbitrary_bytes(work, data, command):
    run_on(work, data, command)


@FUZZ
@given(
    m=st.integers(-3, 12),
    n=st.integers(-3, 12),
    divisors=st.lists(st.integers(-3, 40), max_size=6),
)
def test_canonical_arguments(work, m, n, divisors):
    out = str(work / "canonical.sgd")
    code, _, _ = run_cli(["canonical", str(m), str(n)] + [str(x) for x in divisors] + ["--out", out])
    if code == 0:
        assert run_cli(["validate", out])[0] == 0


def _random_digits(draw, count: int) -> str:
    """``count`` digits, the first nonzero.  They come from a seeded
    generator, so hypothesis draws a seed, not thousands of characters."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=count - 1))


@st.composite
def long_passage_index(draw):
    """A seed diagram with one passage index written with thousands of
    digits: the same index zero-padded, or random digits (a passage gap).
    Returns the text, the unedited seed, the line and column of the index,
    its digit count and whether it is padded."""
    seed = draw(st.sampled_from(SGD_SEEDS))
    lines = seed.splitlines()
    row = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith("crossing ")]))
    words = lines[row].split(" ")
    slot = draw(st.sampled_from((4, 7)))
    count = draw(LONG_DIGITS)
    padded = draw(st.booleans())
    col = len(" ".join(words[:slot])) + 2
    words[slot] = words[slot].zfill(count) if padded else _random_digits(draw, count)
    lines[row] = " ".join(words)
    return "\n".join(lines) + "\n", seed, row + 1, col, count, padded


@FUZZ
@given(case=long_passage_index(), command=st.sampled_from(SGD_COMMANDS))
def test_passage_index_digit_limit(work, case, command):
    text, seed, line, col, count, padded = case
    got = run_on(work, text.encode(), command)
    if count > DIGIT_LIMIT:
        assert got == (3, "", f"error: line {line}, col {col}: bad passage index of {count} digits\n")
    elif padded:  # the same diagram: the same result
        assert got == run_on(work, seed.encode(), command)
    else:  # an index far past its edge's passages
        assert got[0] == (2 if command[0] == "validate" else 3)


@st.composite
def long_entry_matrix(draw):
    """A matrix file of at most 2 x 3 small entries, one of them with
    thousands of digits and either sign.  Returns the text, the entries as
    text and the digit count."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entries = [str(x) for x in draw(st.lists(st.integers(-9, 9),
                                             min_size=rows * cols, max_size=rows * cols))]
    count = draw(LONG_DIGITS)
    entries[draw(st.integers(0, rows * cols - 1))] = (
        draw(st.sampled_from(("", "-"))) + _random_digits(draw, count))
    return f"{rows} {cols}\n" + " ".join(entries) + "\n", entries, count


@FUZZ
@given(case=long_entry_matrix(), command=st.sampled_from(SNF_COMMANDS))
def test_matrix_entry_digit_limit(work, case, command):
    text, entries, count = case
    code, out, err = run_on(work, text.encode(), command)
    if count > DIGIT_LIMIT:
        assert (code, out) == (3, "")
        assert err.startswith("error: matrix file: ") and f"{count} digits" in err
    else:
        assert (code, err) == (0, "")
        if command == ["snf", "IN"]:  # the first divisor is the gcd of the entries
            assert out.split()[0] == str(gcd(*map(int, entries)))


@settings(FUZZ, max_examples=300)
@given(text=mutated(SGD_SEEDS + DATA_SGD))
def test_parse_check_reports_what_validate_finds(text):
    # parse_sgd checks references line by line and runs only validate's
    # passage checks on the result; together they find what validate finds
    try:
        raw = parse_sgd(text, check=False)
    except SgdParseError as exc:
        with pytest.raises(SgdParseError) as checked:
            parse_sgd(text)
        assert str(checked.value) == str(exc)
        return
    problems = [v.message for v in validate(raw)]
    if problems:
        with pytest.raises(SgdParseError) as checked:
            parse_sgd(text)
        assert str(checked.value) == "invalid diagram: " + "; ".join(problems)
    else:
        assert parse_sgd(text) == raw
