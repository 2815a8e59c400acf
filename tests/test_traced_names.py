"""Every function the benchmark's tracer wraps is still in the package.

``bench/spans.py`` names, per ``sglink`` module, the functions it times
(``TRACED``).  A name that is gone is reported absent there and fails the
benchmark's own smoke test, which this suite does not run.  Reading
``TRACED`` from that one file, loaded by path, makes removing or renaming a
traced function fail here as well.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_callable_of_its_module():
    traced = traced_names()
    assert traced
    missing = [f"{mod}.{name}" for mod, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"sglink.{mod}"), name, None))]
    assert missing == []
