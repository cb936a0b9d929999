"""Run one ``hgrec`` CLI command with the tracer installed (child of run.py).

Usage: ``python3 perfbench/stage.py SPANS_JSON SPAWN_TIME -- <hgrec argv>``.
SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so the gap to entering ``hgrec.cli.main`` is the CLI start-up cost.
The spans and counts are written to SPANS_JSON when the command returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    out_path, spawn_time, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: stage.py SPANS_JSON SPAWN_TIME -- <hgrec argv>")
    import hgrec.cli

    from tracer import HOOKS, Tracer

    startup_s = time.time() - float(spawn_time)
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        code = hgrec.cli.main(argv)
    finally:
        tracer.uninstall()
        doc = {"startup_s": startup_s, "spans": tracer.spans, "counts": tracer.counts, "maxima": tracer.maxima}
        Path(out_path).write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
