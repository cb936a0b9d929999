"""Hypergraph estimation: plug-in counts from datasets and two-phase recovery from oracles.

The oracle path first keeps every candidate hyperedge the oracle assigns
positive belief to under at least one of its masked forms. It finds them as a
join: each form in the oracle's own table is read once, and a believed
completion is kept when it is a candidate (checked first, so only candidates'
supports are read) whose support contains that form. It then propagates
relative weights outward from a seed edge per share-a-mask component via
breadth-first search, and finally normalizes globally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .core import (
    Hyperedge,
    NodeRelabeling,
    WeightedHypergraph,
    dissimilarity,
    relabel,
    sketch_diff,
)
from .errors import EmptyDataset, NothingRecovered, UndefinedRatio

if TYPE_CHECKING:  # sampling loads numpy, which recovery_report and a CLI report never need
    from .sampling import Dataset, MaskedHyperedge, MaskingStrategy, MetaGraph

#: Candidate-set sentinel: enumerate all 2-subsets of the oracle's known nodes.
ALL_PAIRS = "all-pairs"


def recover_from_dataset(d: Dataset) -> WeightedHypergraph:
    """Empirical-frequency estimate: distinct samples weighted by their share."""
    if d.n == 0:
        raise EmptyDataset("cannot recover from an empty dataset")
    counts = d.counts()
    n = d.n
    return WeightedHypergraph({e: c / n for e, c in counts.items()}, normalized=True)


def bf_weight_estimation(
    e_init: Hyperedge,
    mg: MetaGraph,
    beliefs: Mapping[MaskedHyperedge, Mapping[Hyperedge, float]],
    strategy: MaskingStrategy,
    w_tilde: dict[Hyperedge, float],
) -> dict[Hyperedge, float]:
    """Propagate relative weights from ``e_init`` over the share-a-mask relation.

    ``mg`` is the share-a-mask incidence the walk reads; it must cover whole
    components. ``beliefs`` maps each form the oracle holds to its answer; a
    form missing from it has no distribution. ``e_init`` must be a vertex of
    ``mg`` and the only weighted edge of its component: ``w_tilde[e_init]`` is
    1.0 and every other edge of it is missing from ``w_tilde`` or at most 0.
    The walk then reaches exactly that component.

    The step from ``e`` to a neighbour ``nb`` through a shared form ``m`` is
    ``M(nb|m) pi(m|e) / (M(e|m) pi(m|nb))``, read off the canonically
    smallest shared form ``m`` with positive belief on both sides; each edge
    is assigned on its first visit. (Under ``uniform1`` two distinct edges
    share at most one form; a strategy whose edges share several still uses
    only that smallest one.) Pairs whose shared forms all lack belief on one
    side cannot carry a ratio. :class:`UndefinedRatio` names the edge when an
    assigned weight leaves the positive float range (0.0 or inf), or else the
    smallest stranded edge: one the walk reads as a neighbour of a reached
    edge but that no carrying pair reaches.
    """
    if e_init not in mg.forms:
        raise ValueError(f"{e_init.key} is not a vertex of the share-a-mask incidence")
    if w_tilde.get(e_init, 0.0) != 1.0:
        raise ValueError("w_tilde[e_init] must be 1.0 before propagation")
    # Per form read, its owners still unweighted: a neighbour stays listed until it is weighted.
    pending: dict[MaskedHyperedge, list[Hyperedge]] = {}

    queue = [e_init]
    for e in queue:  # a list iterator sees the edges appended below
        shared: dict[Hyperedge, list[MaskedHyperedge]] = {}
        for form in mg.forms[e]:
            unweighted = [
                u for u in pending.get(form, mg.owners[form]) if w_tilde.get(u, 0.0) <= 0.0
            ]
            pending[form] = unweighted
            for nb in unweighted:
                shared.setdefault(nb, []).append(form)
        for nb in sorted(shared):
            for form in shared[nb]:
                dist = beliefs.get(form) or {}
                m_e = dist.get(e, 0.0)
                m_nb = dist.get(nb, 0.0)
                if m_e > 0.0 and m_nb > 0.0:
                    break
            else:
                continue  # uncarryable pair; another path may still reach nb
            ratio = (m_nb * strategy.prob(form, e)) / (m_e * strategy.prob(form, nb))
            w = w_tilde[nb] = ratio * w_tilde[e]
            if not 0.0 < w < math.inf:
                raise UndefinedRatio(
                    f"{nb.key} gets weight {w!r} relative to {e_init.key}, outside the float range"
                )
            queue.append(nb)

    stranded = [u for us in pending.values() for u in us if w_tilde.get(u, 0.0) <= 0.0]
    if stranded:
        raise UndefinedRatio(
            f"{min(stranded).key} shares masked forms with reached edges but none carries "
            "positive belief on both sides"
        )
    return w_tilde


def recover_from_oracle(
    oracle, candidates, strategy: MaskingStrategy
) -> tuple[WeightedHypergraph, bool]:
    """Two-phase estimation from a masked-modeling oracle.

    Phase 1 keeps each candidate with positive belief under some masked form in
    its support. It checks ``candidates`` before any query, queries each form
    the oracle holds once, and keeps each completion with positive belief that
    is a candidate (under ``ALL_PAIRS``, a 2-node edge over the oracle's known
    nodes) and, checked after that, has the form in its support. Its cost
    follows the oracle's form table, not the n(n-1)/2 pairs of ``ALL_PAIRS``.
    Phase 2 passes the share-a-mask incidence over the kept edges and phase 1's
    belief table to :func:`bf_weight_estimation` once per component, seeding
    each walk with scale 1 at the smallest kept edge still unweighted (a walk
    weights its whole component or raises), and normalizes globally. Raises
    :class:`UndefinedRatio` naming an edge when the weights sum to inf or one
    normalizes to 0.0. Returns the estimate and whether the kept edges formed a
    single component.
    """
    if isinstance(candidates, str):
        if candidates != ALL_PAIRS:
            raise ValueError(f"unknown candidate set {candidates!r}")
        wanted = None
    else:
        wanted = set(candidates)
        if not wanted:
            raise NothingRecovered("empty candidate set")
    beliefs = {form: oracle.query(form) for form in oracle.forms()}
    believed: set[Hyperedge] = set()
    for form, dist in beliefs.items():
        for e, belief in dist.items():
            if (
                belief > 0.0
                and e not in believed
                and (len(e) == 2 if wanted is None else e in wanted)
                and any(f == form for f, _ in strategy.support(e))
            ):
                believed.add(e)
    if not believed:
        raise NothingRecovered("no candidate hyperedge has positive belief under the oracle")

    from .sampling import MetaGraph

    mg = MetaGraph.over(believed, strategy)
    w_tilde: dict[Hyperedge, float] = dict.fromkeys(mg.vertices, 0.0)
    seeds = 0
    for seed in mg.vertices:
        if w_tilde[seed] <= 0.0:
            seeds += 1
            w_tilde[seed] = 1.0
            bf_weight_estimation(seed, mg, beliefs, strategy, w_tilde)
    total = sum(w_tilde.values())
    if total == math.inf:
        big = max(mg.vertices, key=w_tilde.get)
        raise UndefinedRatio(f"{big.key} has the largest weight, and the weights sum to inf")
    weights = {e: w / total for e, w in w_tilde.items()}
    if 0.0 in weights.values():
        zero = min(e for e, w in weights.items() if w == 0.0)
        raise UndefinedRatio(f"{zero.key} normalizes to weight 0.0, outside the float range")
    return WeightedHypergraph(weights, normalized=True), seeds == 1


@dataclass(frozen=True)
class RecoveryReport:
    """Weighted error plus the unweighted sketch difference against the truth."""

    weighted_error: float
    sketch_missing: tuple[Hyperedge, ...]
    sketch_spurious: tuple[Hyperedge, ...]
    per_edge_abs_error: Mapping[Hyperedge, float]
    meta_connected: bool

    def to_json(self) -> str:
        doc = {
            "d": self.weighted_error,
            "sketch_missing": [e.key for e in self.sketch_missing],
            "sketch_spurious": [e.key for e in self.sketch_spurious],
            "meta_connected": self.meta_connected,
            "per_edge_abs_error": {
                e.key: err for e, err in sorted(self.per_edge_abs_error.items())
            },
        }
        return json.dumps(doc, indent=2) + "\n"


def recovery_report(
    recovered: WeightedHypergraph,
    truth: WeightedHypergraph,
    relabeling: NodeRelabeling | None = None,
    *,
    meta_connected: bool = True,
) -> RecoveryReport:
    """Compare an estimate against the truth, optionally after relabeling it."""
    mapped = relabel(recovered, relabeling) if relabeling is not None else recovered
    missing, spurious = sketch_diff(truth, mapped)
    per_edge = {
        e: abs(truth.weight(e) - mapped.weight(e))
        for e in sorted(set(truth.edge_set) | set(mapped.edge_set))
    }
    return RecoveryReport(
        weighted_error=dissimilarity(mapped, truth),
        sketch_missing=missing,
        sketch_spurious=spurious,
        per_edge_abs_error=per_edge,
        meta_connected=meta_connected,
    )
