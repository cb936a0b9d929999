"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed (``setup``), runs one
timed pass over them (``run_pass``) and returns the pass's wall time, the time
of each of its operations, peak resident set, operation counts and the sha256
of every output. Timing happens only outside the program: around whole
``hgrec`` processes for the CLI workloads, around whole library calls for the
in-process ones. Operation times are scaled to the reference host's speed by
a probe sampled before, during and after each operation (``timed``). Output
checks run after the timed part of a pass and outside any traced pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hgrec import alignment, core, errors, generators, oracle, recovery, sampling
from hgrec.sweep import CSV_COLUMNS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0
#: Weighted error allowed when recovering from the exact oracle (float rounding only).
EXACT_RECOVERY_TOL = 1e-9
#: Iterations of the host-speed probe's loop; the probe time that reported
#: times are scaled to, about the probe's time on the reference host when no
#: other tenant slows it; and how often the probe runs during an operation
#: (README.md, "Host speed").
PROBE_ITERS = 4_000
PROBE_REF_S = 0.0004
PROBE_EVERY_S = 0.1
#: How strongly the time of an ``hgrec`` child process follows the probe's:
#: when the probe takes x times as long, a child takes about x ** 0.75 times
#: as long (part of its time is process start-up and file I/O, which slow
#: down less). Operations in this process follow the probe one to one.
CHILD_EXPONENT = 0.75


def sub_seed(seed: int, *tags) -> int:
    """A 64-bit program seed derived from the benchmark seed and a purpose tag."""
    text = "/".join(str(t) for t in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassResult:
    wall_s: float = 0.0
    #: seconds per operation of the pass, by label, scaled to the reference host's speed
    op_s: dict[str, float] = field(default_factory=dict)
    #: the same operations' wall seconds as measured; they add up to about ``wall_s``
    raw_op_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: per-layer numbers the benchmark measures itself (stage times, file sizes)
    extra: dict[str, float] = field(default_factory=dict)
    #: operations that ended in a documented known defect, by label
    known_defects: dict[str, str] = field(default_factory=dict)
    #: traced CLI children: seconds from spawn to entering ``hgrec.cli.main``
    startups: list[float] = field(default_factory=list)

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{op}: {reason}")


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@contextmanager
def _checking(tracer):
    """Spans recorded while checking outputs go to pass -1, which no metric reads."""
    if tracer is None:
        yield
        return
    pass_id, tracer.pass_id = tracer.pass_id, -1
    try:
        yield
    finally:
        tracer.pass_id = pass_id


def host_probe() -> float:
    """Seconds of one run of a fixed pure-Python loop, about half a millisecond.

    The host's speed drifts: other tenants slow this process down by up to
    twice, in stretches from a few seconds to half a minute or more. The probe
    runs the same kind of interpreter work as the program, so it slows down
    with it (``CHILD_EXPONENT``).
    """
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_ITERS):
        k = i % 977
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - start


@contextmanager
def timed(res: PassResult, label: str, child: bool = False, during: bool = True):
    """Time one operation into ``res``, scaled by the probe's median around and during it.

    The scaled time is ``(raw - probe time during it) * (PROBE_REF_S / median
    probe) ** exponent``, the exponent being ``CHILD_EXPONENT`` for an
    operation that is an ``hgrec`` child process (``child``) and 1 otherwise.

    During the operation the probe runs from a ``SIGALRM`` handler every
    ``PROBE_EVERY_S``, on this CPU (``run.py`` pins the benchmark and its child
    processes to one), and its own time is taken out of the operation's.
    ``during=False`` leaves the operation's stack alone, for operations that
    end by exhausting the recursion limit.
    """
    samples = [host_probe() for _ in range(5)]
    edge = len(samples)

    def on_alarm(signum, frame):
        samples.append(host_probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    if during:
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = time.perf_counter()
    try:
        yield
    finally:
        raw = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        probing = sum(samples[edge:])
        samples += [host_probe() for _ in range(5)]
        res.raw_op_s[label] = raw
        exponent = CHILD_EXPONENT if child else 1.0
        res.op_s[label] = (raw - probing) * (PROBE_REF_S / statistics.median(samples)) ** exponent


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child processes --------------------------------------------------------------


def _run_child(argv: list[str], cwd: Path, log_path: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(args: list[str], workdir: Path, tracer, res: PassResult, label: str):
    """One ``hgrec`` command as its own process; traced runs go through stage.py."""
    log = workdir / f"{label}.log"
    if tracer is None:
        argv = [sys.executable, "-m", "hgrec.cli", *args]
        code, wall, rss = _run_child(argv, workdir, log)
    else:
        spans_path = workdir / f"{label}.spans.json"
        argv = [sys.executable, str(HERE / "stage.py"), str(spans_path), repr(time.time()), "--", *args]
        code, wall, rss = _run_child(argv, workdir, log)
        if spans_path.exists():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            tracer.merge(doc)
            res.startups.append(doc["startup_s"])
    res.peak_rss_mb = max(res.peak_rss_mb, rss)
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        res.fail(label, f"exit code {code}: {' '.join(tail)}")
    return code, wall, rss


# -- cli-pipeline -------------------------------------------------------------------


class CliPipeline:
    """The README pipeline, one ``hgrec`` process per stage, files between stages."""

    name = "cli-pipeline"
    SIZES = {
        "full": dict(n=200, p=0.03, records=200_000, k=1),
        "smoke": dict(n=30, p=0.15, records=2_000, k=1),
    }
    STAGES = ("gen", "sample", "mm-sample", "train", "recover", "report")
    OUTPUTS = ("g.hg", "d.ds", "d.mm", "oracle.json", "rec.hg", "report.json")

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def items(self, inputs) -> int:
        return self.size["records"]

    def setup(self, seed: int, workdir: Path):
        s = self.size
        gen_seed, ds_seed, mm_seed = (sub_seed(seed, tag) for tag in ("gen", "sample", "mm-sample"))
        truth = generators.GeneratorSpec("wcgnm", s["n"], s["p"], 1.0, 10.0, gen_seed).build()
        n_rec = str(s["records"])
        stages = (
            ("gen", ["gen", "--structure", "wcgnm", "--n", str(s["n"]), "--p", repr(s["p"]),
                     "--w-min", "1", "--w-max", "10", "--seed", str(gen_seed), "-o", "g.hg"]),
            ("sample", ["sample", "--hypergraph", "g.hg", "-n", n_rec, "--seed", str(ds_seed),
                        "-o", "d.ds"]),
            ("mm-sample", ["mm-sample", "--hypergraph", "g.hg", "-n", n_rec, "-k", str(s["k"]),
                           "--seed", str(mm_seed), "-o", "d.mm"]),
            ("train", ["train", "--mm-data", "d.mm", "-o", "oracle.json"]),
            ("recover", ["recover", "--oracle", "oracle.json", "--candidates", "pairs",
                         "--mask", "uniform1", "-o", "rec.hg"]),
            ("report", ["report", "--truth", "g.hg", "--rec", "rec.hg", "-o", "report.json"]),
        )
        return {"stages": stages, "truth_hg": core.encode(truth)}

    def run_pass(self, inputs, tracer, workdir: Path) -> PassResult:
        res = PassResult()
        work = workdir / "pipeline"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        start = time.perf_counter()
        for label, args in inputs["stages"]:
            res.attempted += 1
            with timed(res, label, child=True), _span(tracer, f"bench.stage.{label}"):
                code, wall, rss = run_cli(args, work, tracer, res, label)
            res.extra[f"cli.stage.{label}_s"] = wall
            res.extra[f"cli.stage.{label}_rss_mb"] = rss
            if code != 0:
                break  # later stages read this stage's output
        res.wall_s = time.perf_counter() - start
        with _checking(tracer):
            for name in self.OUTPUTS:
                path = work / name
                if path.exists():
                    res.digests[name] = sha256(path.read_bytes())
            g = work / "g.hg"
            if g.exists() and g.read_text(encoding="utf-8") != inputs["truth_hg"]:
                res.fail("gen", "g.hg differs from the in-process GeneratorSpec build")
            if (work / "d.mm").exists():
                mm = (work / "d.mm").read_bytes()
                res.extra["sampling.distinct_lines"] = len(set(mm.split(b"\n")) - {b""})
                res.extra["sampling.mm_bytes"] = len(mm)
        return res


# -- exact-recovery -------------------------------------------------------------------


class ExactRecovery:
    """Exact-oracle recovery over all node pairs; no parsing and no sampling."""

    name = "exact-recovery"
    # (label, structure, n, p, compute the path-length bound)
    SIZES = {
        "full": (("star", "star", 400, None, False), ("wcgnm", "wcgnm", 500, 0.01, True)),
        "smoke": (("star", "star", 30, None, False), ("wcgnm", "wcgnm", 40, 0.1, True)),
    }

    def __init__(self, size: str):
        self.instances = self.SIZES[size]

    def items(self, inputs) -> int:
        return sum(math.comb(truth.n, 2) for _, truth, _ in inputs)

    def setup(self, seed: int, workdir: Path):
        return [
            (label, generators.GeneratorSpec(structure, n, p, 1.0, 10.0, sub_seed(seed, label)).build(), bound)
            for label, structure, n, p, bound in self.instances
        ]

    def run_pass(self, inputs, tracer, workdir: Path) -> PassResult:
        res = PassResult()
        outcomes = []
        start = time.perf_counter()
        for label, truth, bound in inputs:
            res.attempted += 1

            def step(name, fn, *args, **kwargs):
                with timed(res, f"{label}.{name}"):
                    return fn(*args, **kwargs)

            with _span(tracer, f"bench.instance.{label}"):
                try:
                    strategy = sampling.uniform_single_mask()
                    meta = step("meta_graph", sampling.build_meta_graph, truth, strategy)
                    length = step("path_bound", sampling.mm_path_length_bound, meta) if bound else None
                    exact = step("oracle", oracle.ExactOracle, truth, strategy)
                    rec, connected = step("recover", recovery.recover_from_oracle, exact, recovery.ALL_PAIRS, strategy)
                    report = step("report", recovery.recovery_report, rec, truth, meta_connected=connected)
                    hg_text = step("encode", core.encode, rec)
                    outcomes.append((label, truth, bound, length, rec, connected, hg_text, report))
                except Exception as exc:  # every outcome here is a failed operation
                    res.fail(label, repr(exc))
        res.wall_s = time.perf_counter() - start
        res.peak_rss_mb = _self_rss_mb()
        with _checking(tracer):
            for label, truth, bound, length, rec, connected, hg_text, report in outcomes:
                res.digests[f"{label}.hg"] = sha256(hg_text)
                res.digests[f"{label}.report.json"] = sha256(report.to_json())
                if set(rec.edge_set) != set(truth.edge_set):
                    res.fail(label, "recovered edge set differs from the truth")
                elif not connected or report.weighted_error > EXACT_RECOVERY_TOL:
                    res.fail(label, f"exact oracle gave error {report.weighted_error!r}")
                elif bound and length is None:
                    res.fail(label, "connected meta-graph reported no path-length bound")
        return res


# -- align ------------------------------------------------------------------------------


def _shuffled(h, seed: int):
    """``h`` with its node names permuted among themselves."""
    nodes = list(h.nodes)
    perm = nodes[:]
    random.Random(seed).shuffle(perm)
    return core.relabel(h, core.NodeRelabeling(dict(zip(nodes, perm))))


class Align:
    """Exact and anchored-search alignment of hypergraphs against relabeled copies."""

    name = "align"
    SIZES = {
        "full": dict(exact_pairs=10, exact_n=8, exact_p=0.4,
                     wl=(("wcgnm300", "wcgnm", 300, 0.02), ("star600", "star", 600, None),
                         ("star1200", "star", 1200, None))),
        "smoke": dict(exact_pairs=2, exact_n=6, exact_p=0.5,
                      wl=(("wcgnm300", "wcgnm", 30, 0.15), ("star600", "star", 20, None),
                          ("star1200", "star", 40, None))),
    }
    #: Operations whose outcome is a documented known defect of the program (see
    #: README.md). They take most of a minute to fail, so they stay out of the
    #: timed passes: ``run_known_defects`` runs them once per traced run.
    KNOWN_DEFECTS = {"star1200": "RecursionError"}

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def items(self, inputs) -> int:
        return sum(label not in self.KNOWN_DEFECTS for label, *_ in inputs)

    def setup(self, seed: int, workdir: Path):
        s = self.size
        ops = []
        for i in range(s["exact_pairs"]):
            h = generators.GeneratorSpec("wcgnm", s["exact_n"], s["exact_p"], 1.0, 10.0,
                                         sub_seed(seed, "exact", i)).build()
            ops.append((f"exact{i}", "exact", h, _shuffled(h, sub_seed(seed, "perm", i))))
        for label, structure, n, p in s["wl"]:
            h = generators.GeneratorSpec(structure, n, p, 1.0, 10.0, sub_seed(seed, label)).build()
            ops.append((label, "wl-ir", h, _shuffled(h, sub_seed(seed, "perm", label))))
        return ops

    def run_pass(self, inputs, tracer, workdir: Path) -> PassResult:
        return self._align([op for op in inputs if op[0] not in self.KNOWN_DEFECTS], tracer, True)

    def run_known_defects(self, inputs, tracer, workdir: Path) -> PassResult:
        """The known-defect operations, once; an outcome other than the documented one fails."""
        return self._align([op for op in inputs if op[0] in self.KNOWN_DEFECTS], tracer, False)

    def _align(self, ops, tracer, probe_during: bool) -> PassResult:
        res = PassResult()
        outcomes = []
        start = time.perf_counter()
        for label, kind, h1, h2 in ops:
            res.attempted += 1
            with timed(res, label, during=probe_during), _span(tracer, f"bench.op.{label}"):
                try:
                    if kind == "exact":
                        found = alignment.align_exact(h1, h2)
                    else:
                        found = alignment.align_wl_anchored(h1, h2)
                    outcomes.append((label, h1, h2, found, None))
                except Exception as exc:  # classified below, after the timed part
                    outcomes.append((label, h1, h2, None, exc))
        res.wall_s = time.perf_counter() - start
        res.peak_rss_mb = _self_rss_mb()
        with _checking(tracer):
            res.extra["alignment.failures"] = sum(exc is not None for *_, exc in outcomes)
            for label, h1, h2, found, exc in outcomes:
                if exc is not None:
                    if type(exc).__name__ == self.KNOWN_DEFECTS.get(label):
                        res.known_defects[label] = type(exc).__name__
                    else:
                        res.fail(label, repr(exc))
                elif found is None:
                    res.fail(label, "no isomorphism found for a relabeled copy")
                elif found.cost != 0.0 or core.relabel(h1, found.mapping).edges != h2.edges:
                    res.fail(label, f"mapping is not an isomorphism (cost {found.cost!r})")
                else:
                    res.digests[label] = sha256(alignment.format_alignment(found))
        return res


# -- sweep ------------------------------------------------------------------------------


_STATUSES = {"ok", "ValueError"} | {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)
}


class Sweep:
    """``hgrec sweep --jobs 1``: many small cells through every layer, no file I/O inside."""

    name = "sweep"
    INSTANCES = (
        {"structure": "star", "n": 20, "p": None, "w_min": 1.0, "w_max": 10.0},
        {"structure": "chain", "n": 20, "p": None, "w_min": 1.0, "w_max": 10.0},
        {"structure": "x", "n": 21, "p": None, "w_min": 1.0, "w_max": 10.0},
        {"structure": "wcgnm", "n": 30, "p": 0.15, "w_min": 1.0, "w_max": 10.0},
    )
    SIZES = {
        "full": dict(n_grid=[1000, 4000, 16000, 32000], k_grid=[1, 4], num_seeds=4),
        "smoke": dict(n_grid=[200, 400, 800], k_grid=[1], num_seeds=1),
    }

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def items(self, inputs) -> int:
        return inputs["cells"]

    def setup(self, seed: int, workdir: Path):
        # The config has no seed field: the instance order, which feeds the
        # config hash every cell seed derives from, carries the benchmark seed.
        instances = [dict(i) for i in self.INSTANCES]
        random.Random(sub_seed(seed, "order")).shuffle(instances)
        cfg = {"instances": instances, **self.size, "masking": "uniform1"}
        (workdir / "sweep.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        cells = len(instances) * len(cfg["n_grid"]) * len(cfg["k_grid"]) * cfg["num_seeds"]
        return {"cells": cells}

    def run_pass(self, inputs, tracer, workdir: Path) -> PassResult:
        res = PassResult()
        rows_path = workdir / "rows.csv"
        rows_path.unlink(missing_ok=True)
        args = ["sweep", "--config", "sweep.json", "--jobs", "1", "-o", rows_path.name]
        res.attempted += 1
        start = time.perf_counter()
        with timed(res, "sweep", child=True), _span(tracer, "bench.stage.sweep"):
            code, _, _ = run_cli(args, workdir, tracer, res, "sweep")
        res.wall_s = time.perf_counter() - start
        if code != 0:
            return res
        with _checking(tracer):
            rows = list(csv.reader(io.StringIO(rows_path.read_text(encoding="utf-8"))))
            header, body = rows[0], rows[1:]
            if tuple(header) != CSV_COLUMNS or len(body) != inputs["cells"]:
                res.fail("sweep", f"CSV has {len(body)} rows and header {header}")
                return res
            status = header.index("status")
            bad = [r[status] for r in body if r[status] not in _STATUSES]
            if bad:
                res.fail("sweep", f"undocumented cell statuses {sorted(set(bad))}")
            drop = header.index("runtime_ms")
            text = "".join(",".join(v for i, v in enumerate(r) if i != drop) + "\n" for r in rows)
            res.digests["rows.csv"] = sha256(text)
        return res


WORKLOADS = {w.name: w for w in (CliPipeline, ExactRecovery, Align, Sweep)}
