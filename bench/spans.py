"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each sglink module and puts the
wrapper in place of every reference to the original across the loaded
``sglink.*`` modules, so calls made through the CLI, through aliases such
as ``cli._canonical``, and between modules are all traced while the
program's code stays as it is.  Spans nest on a stack; a span's self time
is its duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

# module -> public functions traced, in pipeline order
TRACED = {
    "sgd": ("parse_sgd", "validate", "serialize_sgd"),
    "homology": ("spanning_tree", "cycle_basis"),
    "linking": ("linking_matrix", "over_under_consistent"),
    "smith": ("smith_normal_form", "verify_certificate"),
    "moves": ("apply_move", "walk_steps", "canonical_diagram"),
}


class Tracer:
    """Span totals per name: calls, duration and self time in ns."""

    def __init__(self):
        self.totals: dict[str, list[int]] = {}
        self.steps = 0          # items yielded by moves.walk_steps
        self.max_bits = 0       # largest transform entry seen, in bits
        self.absent: list[str] = []
        self._stack: list[list[int]] = []
        self._patches: list[tuple[dict, str, object, object]] = []

    def prepare(self) -> None:
        """Build a wrapper for every traced function that exists; record
        the names that do not as absent."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "sglink" or name.startswith("sglink."))]
        for modname, names in TRACED.items():
            owner = sys.modules.get(f"sglink.{modname}")
            for name in names:
                fn = getattr(owner, name, None)
                if not callable(fn):
                    self.absent.append(f"{modname}.{name}")
                    continue
                after = self._record_bits if name == "smith_normal_form" else None
                wrapper = self._wrap(f"{modname}.{name}", fn, after)
                for m in mods:
                    space = vars(m)
                    for key, value in list(space.items()):
                        if value is fn:
                            self._patches.append((space, key, fn, wrapper))

    def enable(self) -> None:
        for space, key, _, wrapper in self._patches:
            space[key] = wrapper

    def disable(self) -> None:
        for space, key, fn, _ in self._patches:
            space[key] = fn

    def enter(self) -> None:
        self._stack.append([perf_counter_ns(), 0])

    def exit(self, name: str) -> None:
        end = perf_counter_ns()
        start, children = self._stack.pop()
        dur = end - start
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = [0, 0, 0]
        t[0] += 1
        t[1] += dur
        t[2] += dur - children
        if self._stack:
            self._stack[-1][1] += dur

    def _exclude_since(self, start: int) -> None:
        # Bookkeeping done between spans is charged to no layer.
        if self._stack:
            self._stack[-1][1] += perf_counter_ns() - start

    def _record_bits(self, cert) -> None:
        start = perf_counter_ns()
        try:
            rows = cert.U.entries + cert.V.entries
        except AttributeError:
            return
        bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
        self.max_bits = max(self.max_bits, bits)
        self._exclude_since(start)

    def _wrap(self, name, fn, after):
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                # One span per resumption, so the consumer's work between
                # items is not charged to the generator.
                gen = fn(*args, **kwargs)
                while True:
                    self.enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit(name)
                    self.steps += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if after is not None:
                after(result)
            return result
        return traced
