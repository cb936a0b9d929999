"""Recovery-error sweeps over structures, dataset sizes, and seeds.

Config schema (JSON)::

    {
      "instances": [{"structure": "star", "n": 6, "p": null,
                     "w_min": 1.0, "w_max": 10.0}, ...],
      "n_grid":    [100, 1000, 10000],
      "k_grid":    [1],
      "num_seeds": 5,
      "masking":   "uniform1"
    }

Each (instance, seed) group generates its truth and builds the masking
strategy, its constants, the meta-graph and ``L`` once. Each cell (instance,
N, K, seed) of the group then draws a masked-modeling dataset, trains the
count-ratio oracle, recovers along both routes (plug-in on the same N outer
draws, and the two-phase oracle path), and reports both errors. Rows come back
sorted by cell, whatever order the groups ran in. Cell randomness is derived
from the SHA-256 hash of the canonical config text, so replaying a config
reproduces every row; the ``runtime_ms`` column, the cell's own time plus its
group's shared set-up time, is the one wall-clock field and is excluded from
reproducibility guarantees. Failed cells keep their row with the error name in
``status``; a set-up error marks every cell of its group.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import chain, product, repeat
from pathlib import Path
from typing import Iterable, Mapping

from .core import WeightedHypergraph, read_json, read_text, write_text
from .errors import HgrecError
from .generators import GeneratorSpec
from .oracle import train_tabular
from .recovery import ALL_PAIRS, recover_from_oracle, recovery_report
from .recovery import recover_from_dataset
from .rng import derive_seed
from .sampling import (
    MaskingStrategy,
    build_meta_graph,
    make_masking_strategy,
    mm_path_length_bound,
    sample_mm_dataset,
    strategy_constants,
)

_MASK64 = (1 << 64) - 1

CSV_COLUMNS = (
    "structure",
    "n",
    "m",
    "kappa_target",
    "kappa_realized",
    "L",
    "c_pi",
    "C_pi",
    "N",
    "K",
    "seed",
    "d_plugin",
    "d_oracle",
    "sketch_missing",
    "sketch_spurious",
    "meta_connected",
    "status",
    "runtime_ms",
)


@dataclass(frozen=True)
class InstanceSpec:
    structure: str
    n: int = 0
    p: float | None = None
    w_min: float = 1.0
    w_max: float = 1.0


def _integral(where: str, x) -> int:
    """``x`` as an int if it is an integral JSON number (2 or 2.0, not 2.5 or true)."""
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ValueError(f"sweep config: {where} must be an integer, got {x!r}")
    return int(x)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _instance_from_dict(index: int, doc) -> InstanceSpec:
    if not isinstance(doc, Mapping):
        raise ValueError(f"sweep config: instance {index} must be an object")
    unknown = sorted(set(doc) - {f.name for f in fields(InstanceSpec)})
    if unknown:
        raise ValueError(f"sweep config: instance {index} has unknown key {unknown[0]!r}")
    if "structure" not in doc:
        raise ValueError(f"sweep config: instance {index} is missing key 'structure'")
    doc = dict(doc)
    if "n" in doc:
        doc["n"] = _integral(f"instance {index} key 'n'", doc["n"])
    for key, kind in (("p", "a number or null"), ("w_min", "a number"), ("w_max", "a number")):
        if key not in doc or key == "p" and doc[key] is None:
            continue
        if not _is_number(doc[key]):
            raise ValueError(
                f"sweep config: instance {index} key {key!r} must be {kind}, got {doc[key]!r}"
            )
        try:
            float(doc[key])  # integers stay integers: they feed the master seed
        except OverflowError:
            raise ValueError(
                f"sweep config: instance {index} key {key!r} is too large for a float"
            ) from None
    return InstanceSpec(**doc)


def _grid(doc: Mapping, key: str) -> tuple[int, ...]:
    if not isinstance(doc[key], (list, tuple)):
        raise ValueError(f"sweep config: {key!r} must be a list, got {doc[key]!r}")
    return tuple(_integral(f"{key!r} entry", x) for x in doc[key])


@dataclass(frozen=True)
class SweepConfig:
    instances: tuple[InstanceSpec, ...]
    n_grid: tuple[int, ...]
    k_grid: tuple[int, ...]
    num_seeds: int
    masking: str = "uniform1"

    def __post_init__(self):
        if not self.instances or not self.n_grid or not self.k_grid:
            raise ValueError("instances, n_grid, and k_grid must be nonempty")
        if self.num_seeds < 1:
            raise ValueError(f"num_seeds must be >= 1, got {self.num_seeds}")

    def to_dict(self) -> dict:
        return {
            "instances": [asdict(i) for i in self.instances],
            "n_grid": list(self.n_grid),
            "k_grid": list(self.k_grid),
            "num_seeds": self.num_seeds,
            "masking": self.masking,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SweepConfig":
        if not isinstance(doc, Mapping):
            raise ValueError("sweep config must be an object")
        for key in ("instances", "n_grid", "k_grid", "num_seeds"):
            if key not in doc:
                raise ValueError(f"sweep config: missing key {key!r}")
        if not isinstance(doc["instances"], (list, tuple)):
            raise ValueError(f"sweep config: 'instances' must be a list, got {doc['instances']!r}")
        masking = doc.get("masking", "uniform1")
        if not isinstance(masking, str):
            raise ValueError(f"sweep config: 'masking' must be a string, got {masking!r}")
        return cls(
            instances=tuple(_instance_from_dict(idx, i) for idx, i in enumerate(doc["instances"])),
            n_grid=_grid(doc, "n_grid"),
            k_grid=_grid(doc, "k_grid"),
            num_seeds=_integral("'num_seeds'", doc["num_seeds"]),
            masking=masking,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(read_json(text, "sweep config"))

    @classmethod
    def load(cls, path: str | Path) -> "SweepConfig":
        return cls.from_json(read_text(path))

    def master_seed(self) -> int:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return int.from_bytes(hashlib.sha256(canonical.encode()).digest()[:8], "little")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass(frozen=True)
class _Setup:
    """What the cells of one (instance, seed) group share; ``truth`` is None when building it failed."""

    row: Mapping  # the group's columns, ``status`` included
    seconds: float
    truth: WeightedHypergraph | None
    strategy: MaskingStrategy | None


def _run_group(cfg: SweepConfig, master: int, inst_idx: int, seed_idx: int) -> list[tuple]:
    """``(cell, row)`` for each cell (instance, N, K, seed) of one instance and seed.

    The truth, the masking strategy, its constants, the meta-graph and ``L``
    are built once for all of them. A set-up error marks every cell with its name.
    """
    inst = cfg.instances[inst_idx]
    start = time.perf_counter()
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        structure=inst.structure,
        n=inst.n,
        # A zero w_min has no ratio; the generator rejects it and the row's status says so.
        kappa_target=_fmt(inst.w_max / inst.w_min) if inst.w_min else "",
        seed=seed_idx,
        status="ok",
    )
    try:
        weight_seed = derive_seed(master, "sweep-weights", inst_idx, seed_idx) & _MASK64
        truth = GeneratorSpec(**asdict(inst), seed=weight_seed).build()
        strategy = make_masking_strategy(cfg.masking)
        c_pi, big_c_pi = strategy_constants(truth, strategy)
        length_bound = mm_path_length_bound(build_meta_graph(truth, strategy))
        row.update(
            m=truth.m,
            kappa_realized=_fmt(truth.range_ratio),
            L="" if length_bound is None else length_bound,
            c_pi=_fmt(c_pi),
            C_pi=big_c_pi,
        )
    except (HgrecError, ValueError) as exc:
        row["status"] = type(exc).__name__
        truth = strategy = None
    setup = _Setup(row, time.perf_counter() - start, truth, strategy)
    cells = product([inst_idx], range(len(cfg.n_grid)), range(len(cfg.k_grid)), [seed_idx])
    return [(cell, _run_cell(cfg, master, cell, setup)) for cell in cells]


def _run_cell(cfg: SweepConfig, master: int, cell: tuple[int, int, int, int], setup: _Setup) -> dict:
    """One cell's row; ``runtime_ms`` is its own time plus its group's set-up time."""
    inst_idx, n_idx, k_idx, seed_idx = cell
    n_samples = cfg.n_grid[n_idx]
    k_inner = cfg.k_grid[k_idx]
    row = dict(setup.row, N=n_samples, K=k_inner)
    start = time.perf_counter()
    if setup.truth is not None:
        truth, strategy = setup.truth, setup.strategy
        try:
            mm_seed = derive_seed(master, "sweep-mm", inst_idx, n_idx, k_idx, seed_idx) & _MASK64
            mm = sample_mm_dataset(truth, n_samples, k_inner, strategy, mm_seed)

            plugin = recover_from_dataset(mm.outer_dataset(k_inner))
            row["d_plugin"] = _fmt(recovery_report(plugin, truth).weighted_error)

            oracle = train_tabular(mm.counts())
            recovered, connected = recover_from_oracle(oracle, ALL_PAIRS, strategy)
            report = recovery_report(recovered, truth, meta_connected=connected)
            row.update(
                d_oracle=_fmt(report.weighted_error),
                sketch_missing=len(report.sketch_missing),
                sketch_spurious=len(report.sketch_spurious),
                meta_connected=_fmt(connected),
            )
        except (HgrecError, ValueError) as exc:
            row["status"] = type(exc).__name__
    row["runtime_ms"] = int(round((setup.seconds + time.perf_counter() - start) * 1000))
    return row


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[dict]:
    """All cell rows, sorted by cell; ``jobs > 1`` runs (instance, seed) groups in parallel.

    The pool starts every worker at once, so it gets no more than one per group and per CPU.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    master = cfg.master_seed()
    inst_idxs, seed_idxs = zip(*product(range(len(cfg.instances)), range(cfg.num_seeds)))
    jobs = min(jobs, len(inst_idxs), os.cpu_count() or 1)
    if jobs == 1:
        results = map(_run_group, repeat(cfg), repeat(master), inst_idxs, seed_idxs)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_group, repeat(cfg), repeat(master), inst_idxs, seed_idxs))
    # Cells are distinct, so the sort never compares two rows.
    return [row for _, row in sorted(chain.from_iterable(results))]


def rows_to_csv(rows: Iterable[Mapping]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in CSV_COLUMNS})
    return buf.getvalue()


def save_csv(rows: Iterable[Mapping], path: str | Path) -> None:
    write_text(path, rows_to_csv(rows))
