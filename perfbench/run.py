"""hgrec benchmark: four fixed-seed workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-pipeline --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 25    # all four workloads, one line each
    python3 perfbench/run.py --smoke                  # all four at tiny sizes, traced and not

One run repeats whole passes, closed loop from this one process, for about
``--seconds`` seconds and at least two passes, and sets the inputs up again
between passes (``setup_s`` is the median set-up time). A pass's time is the
sum over its operations of each one's median time in the run, every time
scaled to the reference host's speed by a probe run around and during it
(``workloads.timed``). Output digests must equal the pinned
ones (``digests.json``, seed 0) or, for other seeds, agree between passes.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics. The last line of standard output is the result as JSON; a fuller
record, with span self times and an environment stamp, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("cli-pipeline", "exact-recovery", "align", "sweep")
#: Setup is repeated in batches of at least this long; setup_s is the median batch mean.
SETUP_BATCH_S = 0.2
#: Setup batches before the first pass; one more follows every pass.
SETUP_BATCHES = 3
MIN_PASSES = 2
SWEEP_CALLEES = {
    "meta_graph": "sampling.meta_graph",
    "path_bound": "sampling.path_bound",
    "sample_mm": "sampling.sample_mm",
    "train": "oracle.train",
    "recover": "recovery.recover",
}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, counts: dict, maxima: dict, res) -> dict[str, float]:
    """Per-layer metrics of one traced pass (layers the workload skips read 0)."""
    from tracer import durations_under, outermost_total, span_stats
    from workloads import Align, CliPipeline

    stats = span_stats(spans)

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return [(end - start) * 1000.0 for n, start, end, _, _ in spans if n == name]

    extra = res.extra
    records = counts.get("sampling.records", 0)
    candidates = counts.get("recovery.candidates", 0)
    cell_total = total("sweep.cell")
    m = {"cli.startup_s": statistics.median(res.startups) if res.startups else 0.0}
    for stage in CliPipeline.STAGES:
        m[f"cli.stage.{stage}_s"] = extra.get(f"cli.stage.{stage}_s", 0.0)
        m[f"cli.stage.{stage}_rss_mb"] = extra.get(f"cli.stage.{stage}_rss_mb", 0.0)
    m.update({
        "sampling.mm_decode_s": total("sampling.mm_decode"),
        "sampling.mm_encode_s": total("sampling.mm_encode"),
        "sampling.ds_encode_s": total("sampling.ds_encode"),
        "sampling.sample_mm_s": total("sampling.sample_mm"),
        "sampling.sample_ds_s": total("sampling.sample_ds"),
        "sampling.records": records,
        "sampling.distinct_lines": extra.get("sampling.distinct_lines", 0),
        "sampling.distinct_share": extra.get("sampling.distinct_lines", 0) / records if records else 0.0,
        "sampling.mm_bytes": extra.get("sampling.mm_bytes", 0),
        "sampling.meta_graph_s": total("sampling.meta_graph"),
        "sampling.meta_pairs": counts.get("sampling.meta_pairs", 0),
        "sampling.path_bound_s": total("sampling.path_bound"),
        "sampling.L": maxima.get("sampling.L", 0),
        "oracle.train_s": total("oracle.train"),
        "oracle.save_s": total("oracle.save"),
        "oracle.load_s": total("oracle.load"),
        "oracle.forms": counts.get("oracle.forms", 0),
        "oracle.queries": calls("oracle.query"),
        "oracle.query_s": total("oracle.query"),
        "recovery.recover_s": total("recovery.recover"),
        "recovery.recover_self_s": stats.get("recovery.recover", (0, 0.0, 0.0))[2],
        "recovery.recover_s.star": sum(durations_under(spans, "recovery.recover", "bench.instance.star")),
        "recovery.recover_s.wcgnm": sum(durations_under(spans, "recovery.recover", "bench.instance.wcgnm")),
        "recovery.bf_s": total("recovery.bf"),
        "recovery.candidates": candidates,
        "recovery.kept": counts.get("recovery.kept", 0),
        "recovery.kept_ratio": counts.get("recovery.kept", 0) / candidates if candidates else 0.0,
        "recovery.components": calls("recovery.bf"),
        "recovery.report_s": total("recovery.report"),
        "recovery.plugin_s": total("recovery.plugin"),
        "generators.build_s": total("generators.build"),
        "generators.calls": calls("generators.build"),
        "rng.derive_seed_calls": calls("rng.derive_seed"),
        "rng.alias_build_s": total("rng.alias_build"),
        "alignment.exact_p50_ms": _percentile(ms("alignment.exact"), 0.5),
        "alignment.exact_p90_ms": _percentile(ms("alignment.exact"), 0.9),
        "alignment.exact_perms": counts.get("alignment.exact_perms", 0),
        "alignment.backtracks": counts.get("alignment.backtracks", 0),
        "alignment.failures": extra.get("alignment.failures", 0),
        "core.hg_io_s": outermost_total(spans, "core.hg_io"),
        "core.relabel_s": total("core.relabel"),
        "core.dissimilarity_s": total("core.dissimilarity"),
        "sweep.cells": counts.get("sweep.cells", 0),
        "sweep.cells_not_ok": counts.get("sweep.cells_not_ok", 0),
        "sweep.cell_p50_ms": _percentile(ms("sweep.cell"), 0.5),
        "sweep.cell_p90_ms": _percentile(ms("sweep.cell"), 0.9),
    })
    for label, *_ in Align.SIZES["full"]["wl"]:
        m[f"alignment.wl_ir_s.{label}"] = sum(durations_under(spans, "alignment.wl_ir", f"bench.op.{label}"))
    for short, name in SWEEP_CALLEES.items():
        inside = sum(durations_under(spans, name, "sweep.cell"))
        m[f"sweep.share.{short}"] = inside / cell_total if cell_total else 0.0
    return m


def _env_stamp(trace: bool) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # a checkout exported without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "trace": trace,
    }


def setup_batch(workload, seed: int, workdir: Path, means: list):
    """Set the inputs up repeatedly for ``SETUP_BATCH_S``; append the mean time to ``means``."""
    from workloads import PassResult, timed

    batch = PassResult()
    n = 0
    with timed(batch, "setup"):
        start = time.perf_counter()
        while True:
            inputs = workload.setup(seed, workdir)
            n += 1
            if time.perf_counter() - start >= SETUP_BATCH_S:
                break
    means.append(batch.op_s["setup"] / n)
    return inputs


def pass_time(passes) -> float:
    """One pass: the sum over operations of each operation's median time over ``passes``.

    Operation times are scaled to the reference host's speed (``workloads.timed``).
    """
    ops = {op: None for p in passes for op in p.op_s}
    return sum(statistics.median(p.op_s[op] for p in passes if op in p.op_s) for op in ops)


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """One benchmark run: (the result line, the full record)."""
    import workloads
    from tracer import HOOKS, Tracer, select, span_stats

    # One CPU for this process and the hgrec processes it starts, so that the
    # host-speed probe and the work it scales run on the same CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[name](size)
    pins = {}
    if size == "full":
        pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(name, {}).get(str(seed), {})
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_means = []
    defects = None
    try:
        tracer = Tracer() if trace else None
        if tracer is not None:  # traced setup and known defects: pass id 0, counted into every traced pass
            tracer.install(HOOKS)
            try:
                inputs = workload.setup(seed, workdir)
                if hasattr(workload, "run_known_defects"):
                    defects = workload.run_known_defects(inputs, tracer, workdir)
            finally:
                tracer.uninstall()
        deadline = time.perf_counter() + seconds
        for _ in range(SETUP_BATCHES):
            inputs = setup_batch(workload, seed, workdir, setup_means)
        plain, traced, cycles = [], [], []
        while True:
            cycle_start = time.perf_counter()
            gc.collect()
            plain.append(workload.run_pass(inputs, None, workdir))
            if tracer is not None:
                gc.collect()
                tracer.pass_id = len(traced) + 1
                tracer.install(HOOKS)
                try:
                    traced.append(workload.run_pass(inputs, tracer, workdir))
                finally:
                    tracer.uninstall()
            inputs = setup_batch(workload, seed, workdir, setup_means)
            now = time.perf_counter()
            cycles.append(now - cycle_start)
            # Stop when another cycle would likely end further from the deadline than now.
            if len(plain) >= MIN_PASSES and now + statistics.median(cycles) / 2 > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setup_means)

    passes = plain + traced
    mismatches = []
    first = passes[0].digests
    for i, p in enumerate(passes):
        for key in sorted(set(pins) | set(first) | set(p.digests)):
            want = pins.get(key, first.get(key))
            if p.digests.get(key) != want:
                mismatches.append(f"pass {i}: {key}")
                if key in p.digests:
                    p.fail(key, "output digest differs from the reference")
    checked = passes + [defects] if defects is not None else passes
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    correct = failed == 0 and not mismatches

    plain_wall = pass_time(plain)
    if tracer is None:
        values = {
            "wall_s": plain_wall,
            "items_per_s": workload.items(inputs) / plain_wall,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "success_rate": (attempted - failed) / attempted,
            "setup_s": setup_s,
        }
        spans_summary = {}
    else:
        per_pass = []
        for i, p in enumerate(traced, start=1):
            if defects is not None:
                for key, value in defects.extra.items():
                    p.extra[key] = p.extra.get(key, 0) + value
            spans = select(tracer.spans, {0, i})
            counts = {k.partition(":")[2]: v for k, v in tracer.counts.items() if k.split(":")[0] in ("0", str(i))}
            maxima = {k.partition(":")[2]: v for k, v in tracer.maxima.items() if k.split(":")[0] in ("0", str(i))}
            per_pass.append(layer_metrics(spans, counts, maxima, p))
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = pass_time(traced) - plain_wall
        n = len(traced)
        spans_summary = {
            k: {"calls_per_pass": c / n, "total_s_per_pass": t / n, "self_s_per_pass": s / n}
            for k, (c, t, s) in sorted(span_stats(select(tracer.spans, set(range(n + 1)))).items())
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "env": _env_stamp(trace),
        "result": line,
        "setup_batch_means_s": setup_means,
        "passes": [
            {
                "traced": i >= len(plain),
                "wall_s": p.wall_s,
                "op_s": p.op_s,
                "raw_op_s": p.raw_op_s,
                "peak_rss_mb": p.peak_rss_mb,
                "attempted": p.attempted,
                "failed": p.failed,
                "errors": p.errors,
                "known_defects": p.known_defects,
                "extra": p.extra,
                "digests": p.digests,
            }
            for i, p in enumerate(passes)
        ],
        "pinned_digests": bool(pins),
        "digest_mismatches": mismatches,
        "known_defect_ops": None if defects is None else {
            "wall_s": defects.wall_s,
            "attempted": defects.attempted,
            "failed": defects.failed,
            "errors": defects.errors,
            "known_defects": defects.known_defects,
            "digests": defects.digests,
        },
        "spans": spans_summary,
    }
    return line, record


def run_all(seed: int, seconds: float, trace: int, smoke: bool) -> int:
    """Run every workload in its own process and check each result line.

    Each line must be correct, with no failed operation, and carry exactly the
    metrics of ``BENCHMARK.json`` with their units. ``smoke`` runs tiny sizes,
    traced and untraced.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOAD_NAMES:
        for t in (0, 1) if smoke else (trace,):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)]
            out = subprocess.run(argv + ["--smoke"] * smoke, cwd=ROOT, capture_output=True, text=True, timeout=170)
            found = []
            if out.returncode != 0:
                found.append(f"exit {out.returncode}: {out.stderr.strip()[-500:]}")
            else:
                line = json.loads(out.stdout.strip().splitlines()[-1])
                print(json.dumps({"workload": name, "trace": t, **line}))
                if not line["correct"] or line["failed"] or line["attempted"] < 1:
                    found.append(f"correct={line['correct']} failed={line['failed']}")
                wanted = spec["per_layer"] if t else spec["end_to_end"]
                for m in wanted:
                    got = line["metrics"].get(m["name"], {})
                    if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                        found.append(f"metric {m['name']} missing or without unit {m['unit']}")
                extra = set(line["metrics"]) - {m["name"] for m in wanted}
                if extra:
                    found.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{name} trace={t}: {'; '.join(found) or 'ok'}", file=sys.stderr)
            problems += found
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="omit to run all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to test the benchmark itself")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hgrec" / "__init__.py").is_file():
        print(f"error: no hgrec sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload is None:
        return run_all(args.seed, 0 if args.smoke else args.seconds, args.trace, args.smoke)
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                       "smoke" if args.smoke else "full")
    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for p in record["passes"] + [record["known_defect_ops"] or {"errors": []}]:
        for err in p["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
