"""Span tracer that wraps hgrec's public functions from outside the library.

A hook rebinds one function or method wherever hgrec's modules look it up, so
calls made inside the library reach the wrapper too; ``uninstall`` puts the
original objects back. Every call records one span ``[name, start, end,
parent, pass_id]`` (``parent`` is the index of the enclosing span, -1 at top
level) and hooks may add counts. Spans stay in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager

from hgrec.recovery import ALL_PAIRS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}  # "pass_id:name" -> sum
        self.maxima: dict[str, float] = {}  # "pass_id:name" -> largest value seen
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float = 1) -> None:
        key = f"{self.pass_id}:{name}"
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, name: str, value: float) -> None:
        key = f"{self.pass_id}:{name}"
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def merge(self, doc: dict) -> None:
        """Append a traced child process's spans and counts under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, _ in doc["spans"]:
            self.spans.append([name, start, end, base + p if p >= 0 else parent, self.pass_id])
        for key, value in doc["counts"].items():
            self.add(key.partition(":")[2], value)
        for key, value in doc["maxima"].items():
            self.maximum(key.partition(":")[2], value)

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self, hooks) -> None:
        """Rebind every ``(module:qualname, span name, after)`` hook."""
        for path, name, after in hooks:
            module_name, _, qualname = path.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, after))
                else:
                    new = self._wrap(raw, name, after)
                self._rebind(owner, attr, new)
                continue
            new = self._wrap(raw, name, after)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "hgrec":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._rebind(mod, key, new)

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


# -- hooks: what each one counts ------------------------------------------------


def _records(t, args, result):
    t.add("sampling.records", len(result))


def _meta_pairs(t, args, result):
    h, strategy = args[0], args[1]
    owners: dict = {}
    for e in h.edge_set:
        for form, _ in strategy.support(e):
            owners[form] = owners.get(form, 0) + 1
    t.add("sampling.meta_pairs", sum(math.comb(k, 2) for k in owners.values()))


def _path_bound(t, args, result):
    t.maximum("sampling.L", result or 0)


def _trained_forms(t, args, result):
    t.add("oracle.forms", len(result.counts))


def _exact_forms(t, args, result):
    _, h, strategy = args[:3]
    t.add("oracle.forms", len({f for e in h.edge_set for f, _ in strategy.support(e)}))


def _recovered(t, args, result):
    oracle, candidates = args[0], args[1]
    if isinstance(candidates, str) and candidates == ALL_PAIRS:
        t.add("recovery.candidates", math.comb(len(oracle.known_nodes()), 2))
    else:
        t.add("recovery.candidates", len(set(candidates)))
    t.add("recovery.kept", result[0].m)


def _exact_perms(t, args, result):
    t.add("alignment.exact_perms", math.factorial(args[0].n))


def _backtracks(t, args, result):
    if result is not None:
        t.add("alignment.backtracks", result.backtracks or 0)


def _cell(t, args, result):
    t.add("sweep.cells")
    if result["status"] != "ok":
        t.add("sweep.cells_not_ok")


HOOKS = (
    ("hgrec.cli:main", "cli.main", None),
    ("hgrec.sampling:MMDataset.decode", "sampling.mm_decode", _records),
    ("hgrec.sampling:MMDataset.encode", "sampling.mm_encode", None),
    ("hgrec.sampling:Dataset.encode", "sampling.ds_encode", None),
    ("hgrec.sampling:sample_mm_dataset", "sampling.sample_mm", None),
    ("hgrec.sampling:sample_dataset", "sampling.sample_ds", None),
    ("hgrec.sampling:build_meta_graph", "sampling.meta_graph", _meta_pairs),
    ("hgrec.sampling:mm_path_length_bound", "sampling.path_bound", _path_bound),
    ("hgrec.oracle:train_tabular", "oracle.train", _trained_forms),
    ("hgrec.oracle:TabularOracle.save", "oracle.save", None),
    ("hgrec.oracle:TabularOracle.load", "oracle.load", None),
    ("hgrec.oracle:TabularOracle.query", "oracle.query", None),
    ("hgrec.oracle:ExactOracle.__init__", "oracle.exact_init", _exact_forms),
    ("hgrec.oracle:ExactOracle.query", "oracle.query", None),
    ("hgrec.recovery:recover_from_oracle", "recovery.recover", _recovered),
    ("hgrec.recovery:bf_weight_estimation", "recovery.bf", None),
    ("hgrec.recovery:recovery_report", "recovery.report", None),
    ("hgrec.recovery:recover_from_dataset", "recovery.plugin", None),
    ("hgrec.generators:GeneratorSpec.build", "generators.build", None),
    ("hgrec.rng:derive_seed", "rng.derive_seed", None),
    ("hgrec.rng:AliasSampler.__init__", "rng.alias_build", None),
    ("hgrec.alignment:align_exact", "alignment.exact", _exact_perms),
    ("hgrec.alignment:align_wl_anchored", "alignment.wl_ir", _backtracks),
    ("hgrec.core:load_hypergraph", "core.hg_io", None),
    ("hgrec.core:save_hypergraph", "core.hg_io", None),
    ("hgrec.core:encode", "core.hg_io", None),
    ("hgrec.core:decode", "core.hg_io", None),
    ("hgrec.core:relabel", "core.relabel", None),
    ("hgrec.core:dissimilarity", "core.dissimilarity", None),
    ("hgrec.sweep:_run_cell", "sweep.cell", _cell),
)


# -- reading spans back -----------------------------------------------------------


def select(spans, pass_ids) -> list[list]:
    """The spans of the given passes, with parent indices renumbered."""
    index: dict[int, int] = {}
    out = []
    for i, (name, start, end, parent, pass_id) in enumerate(spans):
        if pass_id in pass_ids:
            index[i] = len(out)
            out.append([name, start, end, index.get(parent, -1), pass_id])
    return out


def span_stats(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the time its direct children cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return stats


def outermost_total(spans, name: str) -> float:
    """Total time of ``name`` spans not nested inside another ``name`` span."""
    total = 0.0
    for span_name, start, end, parent, _ in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def durations_under(spans, name: str, ancestor: str) -> list[float]:
    """Durations of ``name`` spans that have an ``ancestor`` span above them."""
    out = []
    for span_name, start, end, parent, _ in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            out.append(end - start)
    return out
