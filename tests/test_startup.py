"""What ``import sglink.cli`` loads, in a fresh interpreter.

Every command line pays for the imports of ``sglink.cli`` before it does
any work.  The value types are plain classes on one small base, so the
CLI loads neither ``dataclasses`` nor the ``inspect``, ``ast``, ``dis``
and ``tokenize`` chain behind it.  The import must still load every
module a command can run: deferring one to the command that needs it
would only move its cost, out of sight of a probe that imports and exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")
LOADED = ("sglink.moves", "sglink.classify", "sglink.smith", "sglink.linking",
          "sglink.homology", "sglink.sgd")


def loaded_by_cli_import() -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, sglink.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out))


def test_cli_import_loads_every_command_module_and_no_dataclasses_chain():
    modules = loaded_by_cli_import()
    assert [m for m in NOT_LOADED if m in modules] == []
    assert [m for m in LOADED if m not in modules] == []
