import os
import re
import subprocess
import sys
from pathlib import Path

import hgrec

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_tour_runs():
    """The README's ``python`` block runs as written, so a renamed or deleted API breaks here."""
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    env = {**os.environ, "PYTHONPATH": str(Path(hgrec.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", tour],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    error, missing, spurious = done.stdout.split()
    assert float(error) < 0.05 and missing == spurious == "0"
