"""Entity alignment between two hypergraphs.

Four routes, cheapest applicable first:

* :func:`align_exact` minimizes the weighted dissimilarity over all node
  bijections (small inputs only), scanning them as numpy columns: edges are
  keyed by the bitmask of their node indices into a dense weight table, and
  the bijections come in blocks of at most 8! in lexicographic order.
* :func:`align_by_hyperedge_ids` uses a known edge correspondence: each node is
  labeled by the descending tuple of its incident edge identifiers and the two
  sorted label sequences are matched positionally.
* :func:`wl_refine` is plain 1-dimensional color refinement on a simple graph.
* :func:`align_wl_anchored` searches for a structural isomorphism with
  individualization-refinement, pruned by anchor pairs; hyperedges of any size
  are handled through the node/edge incidence graph with the two vertex kinds
  colored apart and edge-vertices further colored by size and weight bucket.

Ties are broken lexicographically on canonical tokens throughout, so every
route is deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, permutations
from typing import Iterable, Mapping

import numpy as np

from .core import (
    Hyperedge,
    NodeRelabeling,
    SimpleGraph,
    WeightedHypergraph,
    dissimilarity,
    relabel,
)
from .errors import (
    AmbiguousLabels,
    InconsistentAnchors,
    NotABijection,
    NotAnIsomorphism,
    SizeMismatch,
    TooLarge,
)
from .sampling import Dataset

#: Weights are considered structurally equal within this tolerance.
STRUCT_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Alignment:
    """A node bijection with its weighted dissimilarity cost.

    ``backtracks`` counts abandoned individualization branches when the
    alignment came out of the anchored search (None otherwise).
    """

    mapping: NodeRelabeling
    cost: float
    backtracks: int | None = None


@dataclass(frozen=True)
class AnchorSet:
    """Known node and hyperedge correspondences used to prune the search."""

    node_pairs: tuple[tuple[str, str], ...] = ()
    edge_pairs: tuple[tuple[Hyperedge, Hyperedge], ...] = ()

    def __post_init__(self):
        for side in (0, 1):
            nodes = [p[side] for p in self.node_pairs]
            if len(set(nodes)) != len(nodes):
                raise NotABijection("a node appears twice on one side of the anchors")
            edges = [p[side] for p in self.edge_pairs]
            if len(set(edges)) != len(edges):
                raise NotABijection("an edge appears twice on one side of the anchors")

    @classmethod
    def empty(cls) -> "AnchorSet":
        return cls()


#: Positions permuted within one block of :func:`align_exact`'s scan: 8! rows.
_BLOCK = 8


@lru_cache(maxsize=None)
def _lex_permutations(k: int) -> np.ndarray:
    """Every permutation of ``range(k)`` as a read-only ``(k, k!)`` uint8 array.

    Column ``j`` is the ``j``-th permutation in lexicographic order. Built
    without a list of tuples and stored as uint8, the cached 8! table takes
    322 KB, not the 2.6 MB of int64.
    """
    count = math.factorial(k)
    flat = np.fromiter(chain.from_iterable(permutations(range(k))), np.uint8, k * count)
    table = np.ascontiguousarray(flat.reshape(count, k).T)
    table.flags.writeable = False
    return table


def align_exact(
    h1: WeightedHypergraph, h2: WeightedHypergraph, max_nodes: int = 8
) -> Alignment:
    """Global minimum of the dissimilarity over all node bijections.

    Among minimizers the lexicographically smallest mapping (by sorted pair
    list) is returned. Cost grows as n!, hence the ``max_nodes`` cap.

    Each edge of ``h2`` is keyed by the bitmask of its node indices, and its
    weight sits in a dense table of ``2**n`` entries, zero where no edge is.
    The bijections are scanned as numpy columns, in blocks of at most 8! that
    fix the images of the first ``n - 8`` nodes, in lexicographic order. For
    every bijection the per-edge terms are added in ``h1``'s edge order, so
    each cost is the same float the one-bijection-at-a-time sum gives, and the
    first minimum wins.
    """
    v1, v2 = h1.nodes, h2.nodes
    if len(v1) != len(v2):
        raise SizeMismatch(f"node counts differ: {len(v1)} vs {len(v2)}")
    if len(v1) > max_nodes:
        raise TooLarge(f"{len(v1)} nodes exceeds max_nodes={max_nodes}")
    n = len(v1)
    weights2 = h2.edges
    idx2 = {v: i for i, v in enumerate(v2)}
    table = np.zeros(1 << n)
    for e, w in weights2.items():
        table[sum(1 << idx2[v] for v in e)] = w
    total2 = sum(weights2.values())
    idx1 = {v: i for i, v in enumerate(v1)}
    edges1 = [([idx1[v] for v in e], w) for e, w in h1.edges.items()]
    m1, m2 = len(edges1), len(weights2)

    fixed = max(n - _BLOCK, 0)
    tail = _lex_permutations(n - fixed)
    rows = tail.shape[1]
    best_cost = math.inf
    best_perm: tuple[int, ...] = ()
    for prefix in permutations(range(n), fixed):
        rest = sorted(set(range(n)).difference(prefix))
        # bits[i, j]: the bit of the h2 node that h1's node i maps to under bijection j.
        bits = np.empty((n, rows), dtype=np.int64)
        bits[:fixed] = np.array([1 << p for p in prefix], dtype=np.int64).reshape(fixed, 1)
        bits[fixed:] = np.array([1 << r for r in rest], dtype=np.int64)[tail]
        acc = np.zeros(rows)
        hit = np.zeros(rows)
        hits = np.zeros(rows, dtype=np.int64)
        for nodes_idx, w in edges1:
            key = reduce(np.bitwise_or, (bits[i] for i in nodes_idx))
            wb = table[key]
            acc += np.abs(w - wb)
            hit += wb
            hits += wb > 0.0  # every edge weight is positive
        if m1 == m2:
            # every edge matched: the unmatched remainder is exactly zero
            cost = np.where(hits == m1, acc, acc + (total2 - hit))
        else:
            cost = acc + (total2 - hit)
        j = int(np.argmin(cost))
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            best_perm = prefix + tuple(rest[t] for t in tail[:, j].tolist())
    mapping = NodeRelabeling({v1[i]: v2[best_perm[i]] for i in range(n)})
    return Alignment(mapping=mapping, cost=best_cost)


def align_by_hyperedge_ids(
    h1: WeightedHypergraph,
    h2: WeightedHypergraph,
    edge_pairs: Iterable[tuple[Hyperedge, Hyperedge]],
) -> Alignment:
    """Align nodes through a complete hyperedge correspondence.

    Paired edges share an identifier; every node is labeled with the descending
    tuple of its incident identifiers; the two label-sorted node sequences are
    matched position by position. Runs in near-linear time in the incidence
    size, so it scales to large sparse hypergraphs.
    """
    pairs = sorted(edge_pairs)
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    if len(set(lefts)) != len(pairs) or set(lefts) != set(h1.edge_set):
        raise NotABijection("edge pairs do not cover the first hypergraph exactly once")
    if len(set(rights)) != len(pairs) or set(rights) != set(h2.edge_set):
        raise NotABijection("edge pairs do not cover the second hypergraph exactly once")
    if h1.n != h2.n:
        raise SizeMismatch(f"node counts differ: {h1.n} vs {h2.n}")

    def labels(edges_with_ids: Iterable[tuple[Hyperedge, int]]) -> dict[str, tuple[int, ...]]:
        incident: dict[str, list[int]] = {}
        for e, ident in edges_with_ids:
            for v in e:
                incident.setdefault(v, []).append(ident)
        return {v: tuple(sorted(ids, reverse=True)) for v, ids in incident.items()}

    lab1 = labels((e, j) for j, e in enumerate(lefts))
    lab2 = labels((rights[j], j) for j in range(len(pairs)))

    ambiguous = []
    for lab in (lab1, lab2):
        by_label: dict[tuple[int, ...], list[str]] = {}
        for v, l in lab.items():
            by_label.setdefault(l, []).append(v)
        ambiguous.extend(tuple(sorted(vs)) for vs in by_label.values() if len(vs) > 1)
    if ambiguous:
        raise AmbiguousLabels(
            f"{len(ambiguous)} node classes share an identifier label", ambiguous
        )

    seq1 = sorted(lab1, key=lab1.__getitem__)
    seq2 = sorted(lab2, key=lab2.__getitem__)
    if [lab1[v] for v in seq1] != [lab2[v] for v in seq2]:
        raise NotAnIsomorphism("incidence label sequences differ between the two sides")
    mapping = dict(zip(seq1, seq2))
    if any(Hyperedge(mapping[v] for v in lefts[j]) != rights[j] for j in range(len(pairs))):
        raise NotAnIsomorphism("positional matching does not map the paired edges onto each other")
    return Alignment(
        mapping=NodeRelabeling(mapping),
        cost=dissimilarity(relabel(h1, NodeRelabeling(mapping)), h2),
    )


# -- color refinement -----------------------------------------------------------


def _refine(adjs, colorings):
    """Refine the colorings of one or more graphs, with shared color ids, to a fixpoint.

    A vertex's new color is the rank of its (own color, sorted neighbor colors)
    signature among the sorted signatures of all sides. Refinement stops when
    the number of color classes stops growing.
    """
    count = len(set().union(*(c.values() for c in colorings)))
    while True:
        sigs = [
            {v: (c[v], tuple(sorted(c[u] for u in nbrs))) for v, nbrs in adj.items()}
            for adj, c in zip(adjs, colorings)
        ]
        ids = {s: i for i, s in enumerate(sorted(set().union(*(sig.values() for sig in sigs))))}
        colorings = [{v: ids[s] for v, s in sig.items()} for sig in sigs]
        if len(ids) == count:
            return colorings
        count = len(ids)


def wl_refine(g: SimpleGraph, initial: Mapping[str, int] | None = None) -> dict[str, int]:
    """Refine vertex colors by (own color, sorted neighbor colors) to a fixpoint.

    Color ids are dense from 0, assigned by first occurrence over vertices in
    sorted order, so the result is independent of input vertex order.
    """
    order = sorted(g.vertices)
    if initial is None:
        colors = {v: 0 for v in order}
    else:
        colors = {v: int(initial[v]) for v in order}
        used = set(colors.values())
        if used != set(range(len(used))):
            raise ValueError("initial colors must be dense from 0")
    [refined] = _refine([{v: g.neighbors(v) for v in order}], [colors])
    ids: dict[int, int] = {}
    return {v: ids.setdefault(refined[v], len(ids)) for v in order}


def color_classes(coloring: Mapping[str, int]) -> tuple[tuple[str, ...], ...]:
    """Vertices grouped by color, classes ordered by color id."""
    groups: dict[int, list[str]] = {}
    for v, c in coloring.items():
        groups.setdefault(c, []).append(v)
    return tuple(tuple(sorted(groups[c])) for c in sorted(groups))


# -- anchored individualization-refinement ----------------------------------------


def _weight_buckets(h1: WeightedHypergraph, h2: WeightedHypergraph) -> dict[float, int]:
    ws = sorted({w for h in (h1, h2) for w in h.edges.values()})
    buckets: dict[float, int] = {}
    b = -1
    prev = None
    for w in ws:
        if prev is None or w - prev > STRUCT_WEIGHT_TOL:
            b += 1
        buckets[w] = b
        prev = w
    return buckets


def _incidence(h: WeightedHypergraph, buckets: dict[float, int]):
    """Bipartite incidence adjacency plus initial color keys per vertex."""
    adj: dict[tuple, list[tuple]] = {}
    init: dict[tuple, tuple] = {}
    for v in h.nodes:
        adj[("n", v)] = []
        init[("n", v)] = ("node",)
    for e, w in h.edges.items():
        ev = ("e", e.key)
        adj[ev] = []
        init[ev] = ("edge", len(e), buckets[w])
        for v in e:
            adj[ev].append(("n", v))
            adj[("n", v)].append(ev)
    return {v: tuple(sorted(nb)) for v, nb in adj.items()}, init


def _leaf_alignment(h1, h2, colors1, colors2, backtracks: int) -> Alignment | None:
    """The alignment a discrete coloring pairs up, if it maps ``h1`` onto ``h2``.

    The coloring is balanced, so each color names one vertex per side.
    """
    partner = {c: v for v, c in colors2.items()}
    pairs = [(v[1], partner[c]) for v, c in colors1.items() if v[0] == "n"]
    if any(w[0] != "n" for _, w in pairs):
        return None
    phi = NodeRelabeling({v: w[1] for v, w in pairs})
    mapped = relabel(h1, phi)
    edges1, edges2 = mapped.edges, h2.edges
    if edges1.keys() != edges2.keys():
        return None
    if any(abs(w - edges2[e]) > STRUCT_WEIGHT_TOL for e, w in edges1.items()):
        return None
    return Alignment(mapping=phi, cost=dissimilarity(mapped, h2), backtracks=backtracks)


def _ir_search(adjs, colorings, next_color: int, h1, h2) -> Alignment | None:
    """Depth-first individualization-refinement over an explicit stack.

    Each frame holds the refined colorings of one search node, the side-1
    vertex it individualizes and an iterator over the side-2 candidates not
    yet tried. The pair drawn from the frame at depth d gets color
    ``next_color + d``.
    """
    stack = []
    tried = 0
    while True:
        colors1, colors2 = _refine(adjs, colorings)
        sizes = Counter(colors1.values())
        if sizes == Counter(colors2.values()):
            open_colors = [(size, c) for c, size in sizes.items() if size > 1]
            if open_colors:
                _, target = min(open_colors)
                v1 = min(v for v, c in colors1.items() if c == target)
                candidates = iter(sorted(v for v, c in colors2.items() if c == target))
                stack.append(((colors1, colors2), v1, candidates))
            else:
                # Each frame's latest candidate leads here; every other one tried failed.
                found = _leaf_alignment(h1, h2, colors1, colors2, tried - len(stack))
                if found is not None:
                    return found
        while stack and (v2 := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            return None
        (colors1, colors2), v1, _ = stack[-1]
        color = next_color + len(stack) - 1
        colorings = ({**colors1, v1: color}, {**colors2, v2: color})
        tried += 1


def align_wl_anchored(
    h1: WeightedHypergraph,
    h2: WeightedHypergraph,
    anchors: AnchorSet | None = None,
) -> Alignment | None:
    """Search for a structural isomorphism, pruning with anchor pairs.

    Anchored vertices are individualized with matched colors before
    refinement; the search then branches on the smallest non-singleton color
    class, refining after each individualization. Returns ``None`` when the
    pruned tree is exhausted without finding an isomorphism. Anchor pairs
    whose anchor-free refined colors already differ raise
    :class:`InconsistentAnchors`.
    """
    anchors = anchors or AnchorSet.empty()
    if h1.n != h2.n:
        raise SizeMismatch(f"node counts differ: {h1.n} vs {h2.n}")
    buckets = _weight_buckets(h1, h2)
    adj1, init1 = _incidence(h1, buckets)
    adj2, init2 = _incidence(h2, buckets)
    ids = {k: i for i, k in enumerate(sorted(set(init1.values()) | set(init2.values())))}
    colors1 = {v: ids[k] for v, k in init1.items()}
    colors2 = {v: ids[k] for v, k in init2.items()}

    anchor_vertices = [(("n", a), ("n", b)) for a, b in anchors.node_pairs]
    anchor_vertices += [(("e", ea.key), ("e", eb.key)) for ea, eb in anchors.edge_pairs]
    for va, vb in anchor_vertices:
        if va not in adj1:
            raise InconsistentAnchors(f"anchor {va[1]!r} does not exist in the first hypergraph")
        if vb not in adj2:
            raise InconsistentAnchors(f"anchor {vb[1]!r} does not exist in the second hypergraph")

    adjs = (adj1, adj2)
    if anchor_vertices:
        base1, base2 = _refine(adjs, (colors1, colors2))
        for va, vb in anchor_vertices:
            if base1[va] != base2[vb]:
                raise InconsistentAnchors(
                    f"anchor pair ({va[1]!r}, {vb[1]!r}) has mismatched refined colors"
                )

    next_color = len(ids)
    for va, vb in anchor_vertices:
        colors1[va] = next_color
        colors2[vb] = next_color
        next_color += 1

    return _ir_search(adjs, (colors1, colors2), next_color, h1, h2)


def fuse_datasets(d1: Dataset, d2: Dataset, phi_star: NodeRelabeling) -> Dataset:
    """Relabel every sample of ``d1`` through the alignment and append ``d2``."""
    mapped = tuple(phi_star.apply_edge(e) for e in d1.samples)
    return Dataset(mapped + d2.samples)


# -- text formats -----------------------------------------------------------------


def format_alignment(a: Alignment) -> str:
    """One `<v1> <v2>` line per pair (sorted by v1) plus a trailing cost line."""
    lines = [f"{src} {dst}" for src, dst in a.mapping.pairs]
    lines.append(f"#cost {a.cost:.17g}")
    return "\n".join(lines) + "\n"


def parse_node_mapping(text: str) -> NodeRelabeling:
    """Read `<v1> <v2>` lines, ignoring blanks and `#` comments."""
    pairs = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected '<v1> <v2>', got {line!r}")
        pairs.append((parts[0], parts[1]))
    return NodeRelabeling(pairs)


def parse_anchor_file(text: str) -> AnchorSet:
    """Read `node <v1> <v2>` and `edge <e1-key> <e2-key>` lines."""
    node_pairs = []
    edge_pairs = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("node", "edge"):
            raise ValueError(f"expected 'node <v1> <v2>' or 'edge <e1> <e2>', got {line!r}")
        if parts[0] == "node":
            node_pairs.append((parts[1], parts[2]))
        else:
            edge_pairs.append((Hyperedge.from_key(parts[1]), Hyperedge.from_key(parts[2])))
    return AnchorSet(tuple(node_pairs), tuple(edge_pairs))


def parse_edge_pairs(text: str) -> tuple[tuple[Hyperedge, Hyperedge], ...]:
    """Read `<e1-key> <e2-key>` lines, ignoring blanks and `#` comments."""
    pairs = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected '<e1-key> <e2-key>', got {line!r}")
        pairs.append((Hyperedge.from_key(parts[0]), Hyperedge.from_key(parts[1])))
    return tuple(pairs)
