"""The four workloads: a fixed, seeded list of sglink commands each.

Each workload function writes its inputs under ``work`` and returns the
commands in the order every pass runs them.  Each command carries the
check its output must pass; the defaults are the benchmark's sizes, and
the smoke test passes tiny ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import inputs
import oracle


@dataclass(frozen=True)
class Op:
    """One sglink command line and the check of its standard output."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], None]


def _chain_text(chain) -> str:
    return " ".join(map(str, chain)) or "0"


def invariant_walked(seed: int, work: Path, ranks=(4, 8, 16, 32), steps=(200, 1000),
                     walks: int = 2, top_walks: int = 4) -> list[Op]:
    """`invariant --json` on canonical rank-r diagrams walked by the
    benchmark's own move sampler.

    The largest case (top rank, most steps) gets ``top_walks`` walks, so
    that op_ms.p90 falls inside that group rather than between two groups.
    """
    rng = random.Random(seed)
    ops = []
    for r in ranks:
        chain = inputs.walk_chain(r)
        for n in steps:
            count = top_walks if (r, n) == (ranks[-1], steps[-1]) else walks
            for w in range(count):
                walk_seed = rng.randrange(2**32)
                d = inputs.canonical(r, r, chain)
                d.walk(n, random.Random(walk_seed))
                path = work / f"walk-r{r}-s{n}-{w}.sgd"
                path.write_text(d.sgd(f"ranks {r} {r} chain {_chain_text(chain)} "
                                      f"walked {n} steps with walk seed {walk_seed}"),
                                encoding="utf-8")
                ops.append(Op(path.stem, ("invariant", str(path), "--json"),
                              partial(oracle.check_invariant, ranks=(r, r), chain=chain)))
    return ops


def perturb_selfcheck(seed: int, work: Path,
                      diagrams=((2, 2, (1, 3)), (3, 3, (1, 2, 4)), (4, 4, (1, 2, 4, 8))),
                      steps: int = 200, walks: int = 4) -> list[Op]:
    """`perturb --steps N --seed S --json` from small canonical diagrams,
    ``walks`` program seeds each, so each quantile falls inside a group."""
    rng = random.Random(seed)
    ops = []
    for m, n, chain in diagrams:
        path = work / f"canon-{m}-{n}-{'-'.join(map(str, chain))}.sgd"
        text = inputs.canonical(m, n, chain).sgd(f"ranks {m} {n} chain {_chain_text(chain)}")
        path.write_text(text, encoding="utf-8")
        for w in range(walks):
            s = rng.randrange(2**32)
            ops.append(Op(f"{path.stem}-{w}",
                          ("perturb", str(path), "--steps", str(steps), "--seed", str(s), "--json"),
                          partial(oracle.check_perturb, source=text, steps=steps, chain=chain)))
    return ops


def snf_dense(seed: int, work: Path, dense=((8, 2), (12, 2), (16, 2), (20, 2), (24, 3)),
              chain_sizes=(8, 9, 10, 11, 12)) -> list[Op]:
    """`snf --json` on dense matrices with entries in [-9, 9]
    ((size, count) pairs), and on A * diag(chain) * B with unimodular A
    and B.

    The chain-built matrices are kept small, so that all of them cost less
    than the median command and op_ms.p50 falls on the dense 12 x 12 pair;
    the extra 24 x 24 matrix puts op_ms.p90 inside the largest group.
    """
    rng = random.Random(seed)
    mats = []
    for size, count in dense:
        mats += [(f"dense-{size}-{k}", inputs.dense_matrix(size, 9, rng), None) for k in range(count)]
    for size in chain_sizes:
        chain = inputs.random_chain(size, rng)
        mats.append((f"chain-{size}", inputs.chain_matrix(chain, rng, ops=size), chain))
    ops = []
    for label, rows, expected in mats:
        path = work / f"{label}.txt"
        inputs.write_matrix(path, rows)
        ops.append(Op(label, ("snf", str(path), "--json"),
                      partial(oracle.check_snf, matrix=rows, chain=expected)))
    return ops


def long_edge(seed: int, work: Path, bases=(40, 80, 120, 160, 200, 240)) -> list[Op]:
    """`canonical 1 1 k`, then `invariant --json` on the SGD it printed."""
    rng = random.Random(seed)
    ops = []
    for base in bases:
        k = base + rng.randrange(4)
        path = work / f"long-{k}.sgd"

        def check_and_keep(out: str, k=k, path=path) -> None:
            oracle.check_long_edge(out, k)
            if not path.exists():
                path.write_text(out, encoding="utf-8")

        ops.append(Op(f"canonical-{k}", ("canonical", "1", "1", str(k)), check_and_keep))
        ops.append(Op(f"invariant-{k}", ("invariant", str(path), "--json"),
                      partial(oracle.check_invariant, ranks=(1, 1), chain=(k,))))
    return ops


WORKLOADS = {
    "invariant_walked": invariant_walked,
    "perturb_selfcheck": perturb_selfcheck,
    "snf_dense": snf_dense,
    "long_edge": long_edge,
}
