"""The README's library example and its command transcript run against
the source tree, so a doc example that names a removed function or shows
output the program no longer prints fails here first."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import sglink.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README.md has no ```python block"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        run = subprocess.run([sys.executable, "-c", block], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


def run_shell_line(line: str) -> None:
    """Run one transcript command: ``sglink ARGS`` through ``cli.main``, or
    ``printf FMT > FILE``, joined by ``&&``; anything else fails."""
    words = shlex.split(line, comments=True)
    while words:
        cmd = words[:words.index("&&")] if "&&" in words else words
        words = words[len(cmd) + 1:]
        if cmd[0] == "sglink":
            assert cli.main(cmd[1:]) == 0, line
        else:
            assert cmd[0] == "printf" and len(cmd) == 4 and cmd[2] == ">", line
            Path(cmd[3]).write_text(cmd[1].replace("\\n", "\n"), encoding="utf-8")


def test_command_transcript_replays(tmp_path, monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(\$ sglink .*?)^```", text, re.M | re.S)
    assert len(blocks) == 1, "README.md has no single ```-block of `$ sglink` commands"
    monkeypatch.chdir(tmp_path)
    expected: list[str] = []
    for line in blocks[0].splitlines() + ["$"]:  # a sentinel ends the last command
        if not line.startswith("$"):
            expected.append(line)
            continue
        assert capsys.readouterr().out.splitlines() == expected
        expected = []
        if line != "$":
            run_shell_line(line[2:])
