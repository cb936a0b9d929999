"""Hyperedge datasets, masking strategies, masked-modeling data, and the share-a-mask meta-graph.

RNG streams (see :mod:`hgrec.rng`): ``sample_dataset`` uses tag
``"sample-dataset"``; ``sample_mm_dataset`` uses ``"mm-outer"`` for the outer
hyperedge draws and ``"mm-mask"`` for the per-record mask choices.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .core import Hyperedge, WeightedHypergraph, check_token, parse_lines, read_chunks, write_text
from .errors import EmptyHypergraph, NotNormalized

if TYPE_CHECKING:  # numpy and rng are imported by the functions that build columns or draw
    import numpy as np


class MaskedHyperedge(tuple):
    """A hyperedge with some nodes hidden: the tuple ``(visible tokens, masked_count)``."""

    __slots__ = ()

    def __new__(cls, visible: Iterable[str], masked_count: int):
        tokens = tuple(sorted({check_token(t) for t in visible}))
        count = int(masked_count)
        if count < 1:
            raise ValueError(f"masked_count must be >= 1, got {masked_count}")
        return tuple.__new__(cls, (tokens, count))

    @classmethod
    def _of_checked(cls, visible: tuple[str, ...], masked_count: int) -> "MaskedHyperedge":
        """A form over checked, sorted, distinct tokens, such as a slice of ``Hyperedge.nodes``."""
        return tuple.__new__(cls, (visible, masked_count))

    visible = property(itemgetter(0))
    masked_count = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[tuple[str, ...], int]:
        return tuple(self)

    @property
    def key(self) -> str:
        """Canonical text key: visible tokens joined by '+', then '|' and the count."""
        return "+".join(self.visible) + "|" + str(self.masked_count)

    @classmethod
    def from_key(cls, key: str) -> "MaskedHyperedge":
        visible_part, _, count_part = key.rpartition("|")
        tokens = visible_part.split("+") if visible_part else ()
        return cls(tokens, int(count_part))

    def is_mask_of(self, e: Hyperedge) -> bool:
        """True when this form can be obtained from ``e`` by hiding nodes."""
        return (
            len(e) == len(self.visible) + self.masked_count
            and set(self.visible) <= set(e.nodes)
        )

    def __repr__(self) -> str:
        return f"MaskedHyperedge({self.key!r})"


class MaskingStrategy(ABC):
    """A conditional distribution over masked forms of each hyperedge."""

    @abstractmethod
    def support(self, e: Hyperedge) -> tuple[tuple[MaskedHyperedge, float], ...]:
        """All (masked form, probability) pairs for ``e``, in canonical form order."""

    def prob(self, masked: MaskedHyperedge, e: Hyperedge) -> float:
        """Probability of producing ``masked`` from ``e`` (0 outside the support)."""
        for form, p in self.support(e):
            if form == masked:
                return p
        return 0.0


class UniformSingleMask(MaskingStrategy):
    """Hide exactly one node of the hyperedge, chosen uniformly."""

    def __init__(self):
        self._cache: dict[Hyperedge, tuple[tuple[MaskedHyperedge, float], ...]] = {}

    def support(self, e: Hyperedge) -> tuple[tuple[MaskedHyperedge, float], ...]:
        cached = self._cache.get(e)
        if cached is None:
            nodes = e.nodes
            p = 1.0 / len(nodes)
            form = MaskedHyperedge._of_checked
            # Hiding a later node of the sorted tuple leaves a smaller visible
            # tuple, so descending i is the canonical (sorted) form order.
            cached = tuple([(form(nodes[:i] + nodes[i + 1 :], 1), p) for i in reversed(range(len(nodes)))])
            self._cache[e] = cached
        return cached


def uniform_single_mask() -> UniformSingleMask:
    return UniformSingleMask()


MASKING_KINDS = {"uniform1": uniform_single_mask}


def make_masking_strategy(kind: str) -> MaskingStrategy:
    try:
        return MASKING_KINDS[kind]()
    except KeyError:
        raise ValueError(f"unknown masking kind {kind!r}; expected one of {sorted(MASKING_KINDS)}") from None


# -- datasets -------------------------------------------------------------------


class _Records:
    """Records stored by columns and written one text line each.

    ``table`` holds each distinct record once and ``ids`` (read-only ``int32``,
    one per record, in order) indexes into it; a table built from columns may
    also repeat a record or hold one that never occurs. ``records`` is built on
    first read. Each subclass names its line parser, ``_parse``: ``load`` and
    ``decode`` keep each line's table index as its id, ``load_counts`` tallies them.
    """

    def __init__(self, records: Iterable):
        import numpy as np

        index: dict = {}
        ids = [index.setdefault(r, len(index)) for r in records]
        self._set(tuple(index), np.array(ids, dtype=np.int32))

    @classmethod
    def _from_columns(cls, table, ids: np.ndarray):
        """A dataset over a ready table and ``int32`` ids."""
        self = cls.__new__(cls)
        self._set(tuple(table), ids)
        return self

    def _set(self, table: tuple, ids: np.ndarray) -> None:
        ids.flags.writeable = False
        self.table = table
        self.ids = ids

    @cached_property
    def records(self) -> tuple:
        return tuple(map(self.table.__getitem__, self.ids.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.records == other.records

    def __iter__(self):
        return iter(self.records)

    def counts(self) -> dict:
        """Occurrences of each record that occurs, in table order; repeated table entries add up."""
        import numpy as np

        counts: dict = {}
        for record, c in zip(self.table, np.bincount(self.ids, minlength=len(self.table)).tolist()):
            if c:
                counts[record] = counts.get(record, 0) + c
        return counts

    def _encode_lines(self, line) -> str:
        """The text of every record: each table entry is formatted once by ``line``."""
        import numpy as np

        lines = np.array([line(r) for r in self.table], dtype=object)
        return "".join(lines[self.ids].tolist())

    def save(self, path: str | Path) -> None:
        write_text(path, self.encode())

    @classmethod
    def load(cls, path: str | Path):
        return cls._read(read_chunks(path))

    @classmethod
    def _read(cls, chunks: Iterable[str]):
        """The records of the non-blank lines of ``chunks``, built chunk by chunk through ``parse_lines``."""
        import numpy as np

        table: list = []
        ids = np.fromiter(chain.from_iterable(parse_lines(chunks, cls._parse, table)), dtype=np.int32)
        return cls._from_columns(table, ids[ids >= 0])  # -1 marks a blank line

    @classmethod
    def load_counts(cls, path: str | Path) -> dict:
        """``load(path).counts()`` without numpy, in chunks: memory grows with the distinct lines, not the records."""
        table: list = []
        tally = Counter(chain.from_iterable(parse_lines(read_chunks(path), cls._parse, table)))
        counts: dict = {}
        for i, record in enumerate(table):  # each entry's line was read, so its tally is positive
            counts[record] = counts.get(record, 0) + tally[i]
        return counts


class Dataset(_Records):
    """An i.i.d. sequence of hyperedge samples."""

    samples = property(attrgetter("records"))
    n = property(len)
    _parse = staticmethod(lambda line: Hyperedge(line.split()))

    def encode(self) -> str:
        return self._encode_lines(lambda e: " ".join(e) + "\n")

    @classmethod
    def decode(cls, text: str) -> "Dataset":
        return cls._read([text])


class MMDataset(_Records):
    """A sequence of masked-modeling records ``(hyperedge, masked form)``."""

    def outer_dataset(self, k_inner: int) -> Dataset:
        """One outer draw per ``k_inner`` consecutive records, as ``sample_mm_dataset`` writes them."""
        if k_inner < 1 or len(self) % k_inner:
            raise ValueError(f"k_inner must be >= 1 and divide the {len(self)} records, got {k_inner}")
        return Dataset._from_columns([full for full, _ in self.table], self.ids[::k_inner])

    def encode(self) -> str:
        return self._encode_lines(
            lambda r: " ".join(r[0]) + "\t" + " ".join(r[1].visible + ("_",) * r[1].masked_count) + "\n"
        )

    @classmethod
    def decode(cls, text: str) -> "MMDataset":
        return cls._read([text])

    @staticmethod
    def _parse(line: str) -> tuple[Hyperedge, MaskedHyperedge]:
        """One ``<full>\\t<masked>`` line; raises ``ValueError`` saying what is wrong."""
        left, sep, right = line.partition("\t")
        if not sep:
            raise ValueError("expected '<full>\\t<masked>'")
        full = Hyperedge(left.split())
        tokens = right.split()
        count = tokens.count("_")
        if count < 1:
            raise ValueError("masked side needs at least one '_' slot")
        masked = MaskedHyperedge((t for t in tokens if t != "_"), count)
        if not masked.is_mask_of(full):
            raise ValueError(f"{masked.key!r} is not a masked form of {full.key!r}")
        return full, masked


def sample_dataset(h: WeightedHypergraph, n_samples: int, seed: int) -> Dataset:
    """Draw ``n_samples`` hyperedges i.i.d. with probabilities given by the weights."""
    if not h.normalized:
        raise NotNormalized("sample_dataset requires a normalized hypergraph")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    import numpy as np

    from .rng import AliasSampler, rng_stream

    edges = h.edge_set
    sampler = AliasSampler([h.weight(e) for e in edges])
    idx = sampler.draw(rng_stream(seed, "sample-dataset"), n_samples)
    return Dataset._from_columns(edges, idx.astype(np.int32))


def sample_mm_dataset(
    h: WeightedHypergraph,
    n_outer: int,
    k_inner: int,
    strategy: MaskingStrategy,
    seed: int,
) -> MMDataset:
    """Draw N outer hyperedges, then K masked variants of each; each draw writes K consecutive records.

    A record's form is the first support entry whose cumulative probability
    exceeds its uniform draw (the last entry if none does): its index is the
    number of the support's cdf values, the last one aside, at or below the
    draw. Edges whose supports have the same probabilities share a shape and
    one row of ``cdf``.
    """
    if not h.normalized:
        raise NotNormalized("sample_mm_dataset requires a normalized hypergraph")
    if n_outer < 1 or k_inner < 1:
        raise ValueError(f"n_outer and k_inner must be >= 1, got ({n_outer}, {k_inner})")
    import numpy as np

    from .rng import AliasSampler, rng_stream

    edges = h.edge_set
    sampler = AliasSampler([h.weight(e) for e in edges])
    outer = sampler.draw(rng_stream(seed, "mm-outer"), n_outer)
    u = rng_stream(seed, "mm-mask").random((n_outer, k_inner))

    table: list[tuple[Hyperedge, MaskedHyperedge]] = []
    shapes: dict[tuple[float, ...], int] = {}  # support probabilities -> shape id
    offset = np.zeros(len(edges), dtype=np.int32)  # first table entry of each drawn edge
    shape = np.zeros(len(edges), dtype=np.int32)
    for ei in np.flatnonzero(np.bincount(outer, minlength=len(edges))).tolist():
        e = edges[ei]
        support = strategy.support(e)
        offset[ei] = len(table)
        shape[ei] = shapes.setdefault(tuple([p for _, p in support]), len(shapes))
        table.extend([(e, f) for f, _ in support])
    cdf = np.full((len(shapes), max(map(len, shapes)) - 1), np.inf)  # padding counts no draw
    for s, probs in enumerate(shapes):
        cdf[s, : len(probs) - 1] = np.cumsum(probs[:-1])

    row = shape[outer]
    ids = np.zeros((n_outer, k_inner), dtype=np.int32)
    for j in range(cdf.shape[1]):
        ids += cdf[row, j][:, None] <= u
    ids += offset[outer][:, None]
    return MMDataset._from_columns(table, ids.ravel())


# -- the share-a-mask relation over hyperedges -----------------------------------


@dataclass(frozen=True)
class MetaGraph:
    """Hyperedges as vertices; two are adjacent when they share a masked form.

    Stored as the edge <-> form incidence: ``forms`` maps each edge to its
    support forms, ``owners`` maps each form to the edges that can produce it,
    both canonically sorted. Edge-to-edge distance is half the distance in
    this bipartite graph, so walks never build the (edge, edge) pair table.
    """

    vertices: tuple[Hyperedge, ...]
    forms: Mapping[Hyperedge, tuple[MaskedHyperedge, ...]]
    owners: Mapping[MaskedHyperedge, tuple[Hyperedge, ...]]

    @classmethod
    def over(cls, edges: Iterable[Hyperedge], strategy: MaskingStrategy) -> "MetaGraph":
        """The share-a-mask incidence over ``edges``; forms keep ``strategy.support``'s canonical order."""
        vertices = tuple(sorted(set(edges)))
        forms = {e: tuple([f for f, _ in strategy.support(e)]) for e in vertices}
        owners: dict[MaskedHyperedge, list[Hyperedge]] = {}
        for e in vertices:
            for form in forms[e]:
                owners.setdefault(form, []).append(e)
        return cls(vertices, forms, {f: tuple(es) for f, es in owners.items()})


def build_meta_graph(h: WeightedHypergraph, strategy: MaskingStrategy) -> MetaGraph:
    """The share-a-mask relation over the hyperedges of ``h``."""
    return MetaGraph.over(h.edge_set, strategy)


def mm_path_length_bound(mg: MetaGraph) -> int | None:
    """Longest shortest path counted in hyperedges (endpoints included).

    Returns ``None`` when the meta-graph is disconnected; a single hyperedge
    gives 1 and direct neighbors give 2.

    All starts advance at once: ``reach[i]`` is a bitmask of the edges within
    the current distance of edge ``i``, and each round widens every mask by one
    step, forms taking the OR of their owners and edges the OR of their forms.
    The masks stop changing one round after the longest shortest path is
    covered. A round costs the incidence size times m/64 machine words.
    """
    if not mg.vertices:
        raise EmptyHypergraph("meta-graph has no vertices")
    index = {e: i for i, e in enumerate(mg.vertices)}
    owners = [[index[e] for e in es] for es in mg.owners.values()]
    form_index = {f: j for j, f in enumerate(mg.owners)}
    forms = [[form_index[f] for f in mg.forms[e]] for e in mg.vertices]
    reach = [1 << i for i in range(len(mg.vertices))]
    rounds = 0
    while True:
        via = []
        for es in owners:
            acc = 0
            for i in es:
                acc |= reach[i]
            via.append(acc)
        nxt = []
        for i, fs in enumerate(forms):
            acc = reach[i]
            for j in fs:
                acc |= via[j]
            nxt.append(acc)
        if nxt == reach:
            break
        reach = nxt
        rounds += 1
    full = (1 << len(reach)) - 1
    return rounds + 1 if all(r == full for r in reach) else None


def strategy_constants(h: WeightedHypergraph, strategy: MaskingStrategy) -> tuple[float, int]:
    """(smallest support probability, largest support size) over the edges of ``h``."""
    if h.m == 0:
        raise EmptyHypergraph("no edges")
    c_pi = math.inf
    c_support = 0
    for e in h.edge_set:
        support = strategy.support(e)
        c_support = max(c_support, len(support))
        c_pi = min(c_pi, min(p for _, p in support))
    return float(c_pi), c_support
