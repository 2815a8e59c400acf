"""Command-line interface.

Subcommands: ``validate``, ``invariant``, ``classify``, ``canonical``,
``perturb``, and ``snf``.  Exit codes are a stable contract:

    0  success / equivalent
    1  inequivalent
    2  domain violation (bad component count, divisibility, a bad perturb
       seed, step count or move; the structural violations ``validate`` lists;
       a diagram that fails the over/under check, read by ``classify`` or
       ``perturb``)
    3  I/O or parse failure, a structurally invalid diagram included
       when any other command reads it
    4  internal self-check failure (signals a bug)

JSON output carries ``"schema": 1``.  Randomized subcommands take a seed
and default to a fixed constant, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from .classify import Result, classify
from .errors import DomainError, SelfCheckError, SgdParseError
from .homology import CycleBasis
from .linking import UNREALIZABLE, linking_matrix, matrix_from_pairs, over_under_consistent
from .moves import MoveCheckError, MoveRecord, WalkState, format_move, replay_steps, walk_steps
from .moves import canonical_diagram as _canonical
from .sgd import parse_sgd, serialize_sgd, validate
from .smith import IntMatrix, lk_invariant, smith_normal_form

DEFAULT_SEED = 1729
SCHEMA = 1

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_SELFCHECK = 4


def _read_text(path: str) -> str:
    """The file's text, decoded in one step with no newline translation:
    every reader splits lines with ``str.splitlines`` or tokens with
    ``str.split``, which take ``\r`` and ``\r\n`` as breaks or blanks."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SgdParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_diagram(path: str, check: bool = True):
    return parse_sgd(_read_text(path), check=check)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_validate(args) -> int:
    problems = validate(_read_diagram(args.path, check=False))
    if not problems:
        print("OK")
        return EXIT_OK
    for v in problems:
        print(f"violation [{v.code}] {v.message}")
    return EXIT_DOMAIN


def _basis_json(basis: CycleBasis) -> dict:
    return {
        "tree": list(basis.tree_edges),
        "cycles": [dict(sorted(c.coeffs.items())) for c in basis.cycles],
    }


def cmd_invariant(args) -> int:
    d = _read_diagram(args.path)
    mat = linking_matrix(d)
    inv = lk_invariant(mat)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "ranks": [mat.rows, mat.cols],
            "matrix": [list(r) for r in mat.entries],
            "divisors": list(inv.divisors),
            "invariant": "0" if inv.is_zero else "chain",
            "over_under_consistent": over_under_consistent(d),
        }
        if args.show_basis:
            payload["basis1"] = _basis_json(mat.basis1)
            payload["basis2"] = _basis_json(mat.basis2)
        print(json.dumps(payload))
        return EXIT_OK
    print(inv)
    if args.show_matrix:
        print(f"# matrix {mat.rows} x {mat.cols}")
        for row in mat.entries:
            print(" ".join(str(x) for x in row))
    if args.show_basis:
        for basis in (mat.basis1, mat.basis2):
            print(f"# basis {basis.component} tree: {' '.join(basis.tree_edges) or '-'}")
            for k, c in enumerate(basis.cycles):
                body = " ".join(f"{e}:{v:+d}" for e, v in sorted(c.coeffs.items()))
                print(f"cycle {basis.component}.{k + 1}: {body}")
    return EXIT_OK


def cmd_classify(args) -> int:
    a = _read_diagram(args.path_a)
    b = _read_diagram(args.path_b)
    verdict = classify(a, b, ordered=args.ordered)
    if args.json:
        print(json.dumps({
            "schema": SCHEMA,
            "result": verdict.result.value,
            "pairing": verdict.pairing,
            "obstruction": verdict.obstruction,
            "ranks": [list(verdict.ranks[0]), list(verdict.ranks[1])],
            "invariants": [str(verdict.invariants[0]), str(verdict.invariants[1])],
            "mode": "handlebody" if args.handlebody else "graph",
        }))
    else:
        print(verdict.describe(handlebody=args.handlebody))
    return EXIT_OK if verdict.result is Result.EQUIVALENT else EXIT_INEQUIVALENT


def cmd_canonical(args) -> int:
    d = _canonical(args.m, args.n, args.divisors)
    _emit(serialize_sgd(d), args.out)
    return EXIT_OK


def _write_moves(path: str, move_lines: list[str]) -> None:
    Path(path).write_text("".join(f"{ln}\n" for ln in move_lines), encoding="utf-8")


def cmd_perturb(args) -> int:
    # The state's bases start as cycle_basis's defaults, so its first
    # matrix is the one `invariant` reads off the start diagram.  Each step
    # compares only the entries of the matrix the state keeps, which it
    # reads without making its bases unless a move dropped the matrix, and
    # only when they changed runs SNF on those entries, with no basis
    # made, and compares the invariant.  So no step makes a basis twice.
    # The final checks, of the matrix over the kept bases and of the
    # components they were made from, catch running sums or component
    # lists that a faulty move left wrong without failing a per-step
    # check.  A failed self-check still writes --moves-out, so the failing
    # walk can be replayed.
    d = _read_diagram(args.path)
    # the moves keep a consistent diagram consistent; an inconsistent one
    # would fail a self-check at the first move that renumbers components
    if not over_under_consistent(d):
        raise DomainError(f"diagram {UNREALIZABLE}")
    start = WalkState(d)
    mat = linking_matrix(start)
    entries, inv = mat.entries, lk_invariant(mat)

    if args.replay:
        walk = replay_steps(start, _read_text(args.replay))
    elif args.steps < 0:
        raise DomainError("steps must be nonnegative")
    elif not 0 <= args.seed < 2**64:
        raise DomainError("seed must fit in 64 unsigned bits")
    else:
        walk = walk_steps(start, args.steps, args.seed)

    records: list[MoveRecord] = []
    try:
        for rec, _ in walk:  # every step yields start, updated in place
            records.append(rec)
            new_entries = start.linking_entries()
            if new_entries == entries:  # the invariant too is as it was
                continue
            # a renumbering transposes the entries, so the shape is theirs
            rows = len(new_entries)
            new_inv = lk_invariant(IntMatrix(rows, len(new_entries[0]) if rows else 0, new_entries))
            if rec.homotopy_preserving and new_inv != inv:
                raise SelfCheckError(
                    f"invariant changed from {inv} to {new_inv} "
                    f"after homotopy-preserving move {format_move(rec)}"
                )
            entries, inv = new_entries, new_inv
        mat = linking_matrix(start)
        final = start.diagram()
        rebuilt = matrix_from_pairs(final.sign_sums, mat.basis1, mat.basis2)
        if rebuilt.entries != mat.entries:
            raise SelfCheckError(
                "the linking matrix kept along the walk differs from the one "
                "rebuilt from the final diagram's crossings"
            )
        # a kept basis is made from its component, the edges and its tree;
        # the final diagram has the state's edges, so its components must
        # match the state's for the kept bases to be bases of it
        for k in (1, 2):
            if start.component(k) != final.component(k):
                raise SelfCheckError(
                    f"component {k} kept along the walk differs from the final diagram's"
                )
    except SelfCheckError as exc:
        if isinstance(exc, MoveCheckError):
            records.append(exc.move)
        if args.moves_out:
            try:
                _write_moves(args.moves_out, [format_move(r) for r in records])
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
        raise

    move_lines = [format_move(r) for r in records]
    if args.moves_out:
        _write_moves(args.moves_out, move_lines)
    if args.json:
        text = json.dumps({
            "schema": SCHEMA,
            "invariant": str(inv),
            "moves": move_lines,
            "sgd": serialize_sgd(final),
        }) + "\n"
    else:
        text = serialize_sgd(final) + "".join(f"# move {ln}\n" for ln in move_lines)
    _emit(text, args.out)
    return EXIT_OK


# Matrix file tokens joined by single spaces: ASCII decimal integers with
# an optional sign.  ``int`` alone would also take ``_`` separators and
# non-ASCII digits.
_INTEGERS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def _read_matrix(path: str) -> IntMatrix:
    tokens = _read_text(path).split()
    if len(tokens) < 2:
        raise SgdParseError("matrix file needs a 'rows cols' header")
    # one match over the whole file keeps the per-entry path to int() alone
    if not _INTEGERS.fullmatch(" ".join(tokens)):
        bad = next(t for t in tokens if not _INTEGERS.fullmatch(t))
        raise SgdParseError(f"matrix file: {bad!r} is not an integer")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        entries = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise SgdParseError(f"matrix file: {exc}") from None
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise SgdParseError(
            f"matrix file declares {rows}x{cols} but carries {len(entries)} entries"
        )
    return IntMatrix(rows, cols, tuple(
        tuple(entries[i * cols:(i + 1) * cols]) for i in range(rows)
    ))


# Decimal digits per piece _decimal converts with str: under the smallest
# int/str digit limit the interpreter accepts (640).
_PIECE = 600
_PIECE_POWER = 10 ** _PIECE


def _decimal(x: int) -> str:
    """``str(x)`` for an integer of any length.

    ``str`` refuses an integer past the interpreter's int/str digit limit,
    which SNF transforms can pass however small their input is.  The limit
    is process wide and ``main`` runs in process in tests and benchmarks,
    so it is not lifted: a longer integer is split by dividing by powers of
    ten into pieces of at most _PIECE digits, and each piece goes through
    ``str``.  Input parsing keeps the limit (converting a long decimal to
    an integer is quadratic)."""
    if -_PIECE_POWER < x < _PIECE_POWER:
        return str(x)
    if x < 0:
        return "-" + _decimal(-x)
    powers = [_PIECE_POWER]  # powers[j] = 10 ** (_PIECE * 2**j)
    while powers[-1] <= x:
        powers.append(powers[-1] * powers[-1])

    def text(y: int, j: int, pad: bool) -> str:
        # y < powers[j]; pad zero-fills to all _PIECE * 2**j digits
        if j == 0:
            return str(y).zfill(_PIECE) if pad else str(y)
        hi, lo = divmod(y, powers[j - 1])
        if hi or pad:
            return text(hi, j - 1, pad) + text(lo, j - 1, True)
        return text(lo, j - 1, False)

    return text(x, len(powers) - 1, False)


def _json_list(values) -> str:
    """A sequence of integers as ``json.dumps`` writes it."""
    return "[" + ", ".join(map(_decimal, values)) + "]"


def _json_matrix(m: IntMatrix) -> str:
    return "[" + ", ".join(map(_json_list, m.entries)) + "]"


def cmd_snf(args) -> int:
    mat = _read_matrix(args.path)
    cert = smith_normal_form(mat)  # verified internally before returning
    if args.json:
        # json.dumps writes the same text, but through str
        text = (f'{{"schema": {SCHEMA}, "divisors": {_json_list(cert.divisors)}, '
                f'"D": {_json_matrix(cert.D)}, "U": {_json_matrix(cert.U)}, '
                f'"V": {_json_matrix(cert.V)}}}')
    else:
        text = " ".join(map(_decimal, cert.divisors))
    print(text)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after that:
    parsing reads it and never changes it."""
    p = argparse.ArgumentParser(
        prog="sglink",
        description="Linking divisor invariants, moves, and classification "
                    "for two-component spatial-graph diagrams.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check an SGD file's structural invariants")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("invariant", help="compute the divisor-chain invariant of a diagram")
    sp.add_argument("path")
    sp.add_argument("--show-basis", action="store_true")
    sp.add_argument("--show-matrix", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("classify", help="decide equivalence of two diagrams")
    sp.add_argument("path_a")
    sp.add_argument("path_b")
    sp.add_argument("--ordered", action="store_true",
                    help="keep the component pairing fixed instead of trying both")
    sp.add_argument("--handlebody", action="store_true",
                    help="read diagrams as handlebody spines (genus labels)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("canonical", help="generate the canonical diagram for ranks and divisors")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("divisors", type=int, nargs="*")
    sp.add_argument("--out", help="write SGD here instead of stdout")
    sp.set_defaults(func=cmd_canonical)

    sp = sub.add_parser("perturb", help="apply random invariant-preserving moves, with self-check")
    sp.add_argument("path")
    sp.add_argument("--steps", type=int, default=20)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--replay", help="apply moves from this file instead of sampling")
    sp.add_argument("--out", help="write perturbed SGD here instead of stdout")
    sp.add_argument("--moves-out", help="write the raw move list here (replayable)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("snf", help="diagonalize an integer matrix file, printing the divisors")
    sp.add_argument("path")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_snf)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SgdParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELFCHECK
    except Exception as exc:  # a crash must never read as "inequivalent"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SELFCHECK


if __name__ == "__main__":
    sys.exit(main())
