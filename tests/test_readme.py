import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hgrec
from hgrec.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_tour_runs():
    """The README's ``python`` block runs as written, so a renamed or deleted API breaks here."""
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    env = {**os.environ, "PYTHONPATH": str(Path(hgrec.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", tour],
        env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    error, missing, spurious = done.stdout.split()
    assert float(error) < 0.05 and missing == spurious == "0"


def test_readme_command_lines_parse():
    """Every ``hgrec`` line of the README's command block parses, so a deleted flag breaks here."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```$", section, re.S | re.M).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("hgrec ")]
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
