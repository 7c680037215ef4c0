"""The README's examples and the demo scripts run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fdpriv.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_block(heading: str, lang: str = "") -> str:
    """The first fenced code block after a README section heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    return match.group(1)


def test_readme_library_tour_runs():
    exec(readme_block("Library tour", "python"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_block("Command line").replace("\\\n", " ").splitlines()
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "fdpriv"
        assert main(argv[1:]) == 0, line


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
