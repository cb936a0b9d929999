"""Masked-modeling oracles: the count-ratio minimizer and the exact population belief.

Both oracle kinds expose ``query(masked) -> {completion: probability} | None``
(``None`` signals an unseen / unsupported masked form), ``forms()`` (the masked
forms the oracle holds a distribution for, in canonical order; ``query`` returns
a distribution for each of them and ``None`` for every other form) and
``known_nodes()``. Recovery reads only ``forms()`` and ``query()``:
``known_nodes()`` covers every node of every form and completion the oracle
holds, so the ``ALL_PAIRS`` candidates need no node filter.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .core import Hyperedge, WeightedHypergraph, read_json, read_text, write_text
from .errors import NotNormalized
from .sampling import MaskedHyperedge, MaskingStrategy


class TabularOracle:
    """The cross-entropy minimizer over an expressive model class: plain count ratios.

    ``counts[masked][full]`` is the number of records pairing that masked form
    with that completion; queries normalize per masked form at lookup time.
    """

    def __init__(self, counts: dict[MaskedHyperedge, dict[Hyperedge, int]] | None = None):
        table: dict[MaskedHyperedge, dict[Hyperedge, int]] = {}
        for masked, per_edge in (counts or {}).items():
            for e, c in per_edge.items():
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(
                        f"count for {e.key!r} given {masked.key!r} must be an integer, got {c!r}"
                    )
                if c <= 0:
                    raise ValueError(f"counts must be positive, got {c} for {e.key}")
                if not masked.is_mask_of(e):
                    raise ValueError(f"{masked.key!r} is not a masked form of {e.key!r}")
            if per_edge:
                table[masked] = {e: per_edge[e] for e in sorted(per_edge)}
        self._counts = {m: table[m] for m in sorted(table)}

    @property
    def counts(self) -> dict[MaskedHyperedge, dict[Hyperedge, int]]:
        return {m: dict(per) for m, per in self._counts.items()}

    def query(self, masked: MaskedHyperedge) -> dict[Hyperedge, float] | None:
        per = self._counts.get(masked)
        if not per:
            return None
        total = sum(per.values())
        return {e: c / total for e, c in per.items()}

    def forms(self) -> tuple[MaskedHyperedge, ...]:
        return tuple(self._counts)

    def known_nodes(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for masked, per in self._counts.items():
            seen.update(masked.visible)
            for e in per:
                seen.update(e.nodes)
        return tuple(sorted(seen))

    def to_json(self) -> str:
        doc = {
            "format": "hgrec-oracle-v1",
            "counts": {
                m.key: {e.key: c for e, c in per.items()} for m, per in self._counts.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TabularOracle":
        doc = read_json(text, "oracle JSON")
        if not isinstance(doc, dict):
            raise ValueError("oracle JSON must be an object")
        if doc.get("format") != "hgrec-oracle-v1":
            raise ValueError(f"unknown oracle format {doc.get('format')!r}")
        table = doc.get("counts")
        if not isinstance(table, dict) or not all(isinstance(per, dict) for per in table.values()):
            raise ValueError("oracle 'counts' must map masked forms to objects of counts")
        counts: dict[MaskedHyperedge, dict[Hyperedge, int]] = {}
        for mk, per in table.items():
            try:
                masked = MaskedHyperedge.from_key(mk)
            except ValueError as exc:
                raise ValueError(f"masked key {mk!r}: {exc}") from None
            if masked in counts:
                raise ValueError(f"masked key {mk!r} repeats the form {masked.key!r}")
            completions = counts[masked] = {}
            for ek, c in per.items():
                try:
                    e = Hyperedge.from_key(ek)
                except ValueError as exc:
                    raise ValueError(f"completion key {ek!r} given {mk!r}: {exc}") from None
                if e in completions:
                    raise ValueError(f"completion key {ek!r} given {mk!r} repeats the edge {e.key!r}")
                completions[e] = c
        return cls(counts)

    def save(self, path: str | Path) -> None:
        write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "TabularOracle":
        return cls.from_json(read_text(path))

    def __repr__(self) -> str:
        return f"TabularOracle({len(self._counts)} masked forms)"


def train_tabular(counts: Mapping[tuple[Hyperedge, MaskedHyperedge], int]) -> TabularOracle:
    """The count-ratio oracle of ``(hyperedge, masked form) -> count``, as ``MMDataset.counts()`` gives it.

    Empty counts are allowed.
    """
    table: dict[MaskedHyperedge, dict[Hyperedge, int]] = {}
    for (full, masked), c in counts.items():
        table.setdefault(masked, {})[full] = c
    return TabularOracle(table)


class ExactOracle:
    """The population belief: completion probability proportional to weight x mask probability."""

    def __init__(self, hypergraph: WeightedHypergraph, strategy: MaskingStrategy):
        if not hypergraph.normalized:
            raise NotNormalized("ExactOracle requires a normalized hypergraph")
        self.hypergraph = hypergraph
        support_map: dict[MaskedHyperedge, list[tuple[Hyperedge, float]]] = {}
        for e in hypergraph.edge_set:
            for form, p in strategy.support(e):
                support_map.setdefault(form, []).append((e, p))
        self._support_map = {m: sorted(support_map[m]) for m in sorted(support_map)}

    def query(self, masked: MaskedHyperedge) -> dict[Hyperedge, float] | None:
        entries = self._support_map.get(masked)
        if not entries:
            return None
        raw = {e: self.hypergraph.weight(e) * p for e, p in entries}
        total = sum(raw.values())
        return {e: v / total for e, v in raw.items()}

    def forms(self) -> tuple[MaskedHyperedge, ...]:
        return tuple(self._support_map)

    def known_nodes(self) -> tuple[str, ...]:
        return self.hypergraph.nodes

    def __repr__(self) -> str:
        return f"ExactOracle({self.hypergraph!r})"
