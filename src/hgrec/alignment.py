"""Entity alignment between two hypergraphs.

Four routes, cheapest applicable first:

* :func:`align_exact` minimizes the weighted dissimilarity over all node
  bijections (small inputs only), scanning them as numpy columns: edges are
  keyed by the bitmask of their node indices into a dense weight table, and
  the bijections come in blocks of at most 8! in lexicographic order.
* :func:`align_by_hyperedge_ids` uses a known edge correspondence: each node is
  labeled by the descending tuple of its incident edge identifiers and goes to
  the node of the other side with the same label, looked up by label.
* :func:`wl_refine` is plain 1-dimensional color refinement on a simple graph.
* :func:`align_wl_anchored` searches for a structural isomorphism with
  individualization-refinement, pruned by anchor pairs; hyperedges of any size
  are handled through the node/edge incidence graph with the two vertex kinds
  colored apart and edge-vertices further colored by size and weight bucket.

Ties are broken lexicographically on canonical tokens throughout, so every
route is deterministic.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
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
    _fields,
    _parsed,
    check_token,
    dissimilarity,
    relabel,
)
from .errors import (
    AmbiguousLabels,
    InconsistentAnchors,
    NotABijection,
    NotAnIsomorphism,
    ParseError,
    SizeMismatch,
    TooLarge,
)
from .sampling import Dataset

logger = logging.getLogger(__name__)

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
    tuple of its incident identifiers, and each node of ``h1`` maps to the node
    of ``h2`` with the same label, looked up by label. Runs in near-linear time
    in the incidence size, so it scales to large sparse hypergraphs.
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

    # Labels are distinct on each side, so each node goes to the one with the
    # same incident identifiers and every pair is preserved.
    node2 = {label: v for v, label in lab2.items()}
    if node2.keys() != set(lab1.values()):
        raise NotAnIsomorphism("incidence label sequences differ between the two sides")
    phi = NodeRelabeling({v: node2[label] for v, label in lab1.items()})
    return Alignment(mapping=phi, cost=dissimilarity(relabel(h1, phi), h2))


# -- color refinement -----------------------------------------------------------


class _Partition:
    """An ordered partition of integer vertices, refined in place, with an undo trail.

    The vertices of one graph, or of two graphs numbered one after the other
    (the first ``side1`` belong to the first graph), share one sequence of
    cells. A cell's label is its offset: the number of vertices in the cells
    before it. Offsets order the cells as plain refinement's color ids (the
    ranks of the classes) do, and an order-preserving relabeling does not
    change how sorted tuples of neighbor labels compare, so the cells split
    and sort exactly as those colors would.

    :meth:`refine` runs synchronous rounds that examine only the cells holding
    a touched vertex. A vertex is touched when a neighbor got a new cell id,
    and it carries a change record: the ids of the cells its neighbors moved
    to since its cell's members last agreed, one entry per move, or None where
    there is no record: for a pair individualized into an existing class, and
    for every vertex in the first round of the refinement that builds the
    partition. Within a round each new id has one old cell, so the record
    fixes the signed change -old +new of the vertex's multiset of neighbor
    cell ids exactly; labels are distinct, so equal multisets of neighbor cell
    ids are equal tuples of neighbor labels. A cell whose members are all
    touched and carry records equal as multisets cannot split, and is passed
    over without building a tuple. Otherwise each touched member gets its own
    tuple; the members not touched had equal tuples when the cell last agreed
    and no neighbor of theirs has moved since, so one of them stands for all.
    A cell whose tuples differ is replaced in place by its children in tuple
    order. Only the vertices whose cell id changed touch their neighbors for
    the next round: the child that keeps the cell's id may move to a new
    offset, but that changes no neighbor's multiset of cell ids. The partition
    is stable when a round splits nothing.

    Each change is appended to ``trail`` and :meth:`undo` rolls back to an
    earlier trail length, so a search frame stores one integer.
    """

    def __init__(self, adj: list[list[int]], colors: list, side1: int):
        self.adj = adj
        self.side1 = side1
        self.cell_of = [0] * len(adj)
        self.members: list[set[int]] = []
        self.label: list[int] = []
        #: The number of first-graph vertices in each cell.
        self.size1: list[int] = []
        self.trail: list[tuple] = []
        groups: dict = {}
        for v, color in enumerate(colors):
            groups.setdefault(color, []).append(v)
        offset = 0
        for color in sorted(groups):
            self._new_cell(groups[color], offset)
            offset += len(groups[color])
        #: Cell ids in order: ``cells[r]`` is the class of color id ``r``.
        self.cells = list(range(len(self.members)))
        self.refine(dict.fromkeys(range(len(adj))))
        self.trail.clear()

    def _new_cell(self, vertices, label: int) -> int:
        c = len(self.members)
        self.members.append(set(vertices))
        self.label.append(label)
        self.size1.append(sum(v < self.side1 for v in vertices))
        for v in vertices:
            self.cell_of[v] = c
        return c

    def _drop_newest(self, count: int) -> None:
        del self.members[-count:], self.label[-count:], self.size1[-count:]

    def balanced(self, c: int) -> bool:
        """Whether cell ``c`` holds as many vertices of each graph."""
        return 2 * self.size1[c] == len(self.members[c])

    def refine(self, changes: dict[int, list[int] | None]) -> bool:
        """Refine to the stable partition; ``changes`` maps each touched vertex to its change record.

        Returns whether every cell split on the way is balanced.
        """
        adj, cell_of, label, members = self.adj, self.cell_of, self.label, self.members
        balanced = True
        while changes:
            by_cell: dict[int, list[int]] = {}
            for v in changes:
                by_cell.setdefault(cell_of[v], []).append(v)
            splits = []
            for c, vs in by_cell.items():
                cell = members[c]
                if len(cell) == 1:
                    continue
                if len(vs) == len(cell):
                    moves = [changes[v] for v in vs]
                    if None not in moves:
                        first = sorted(moves[0])
                        if all(sorted(record) == first for record in moves):
                            continue
                groups: dict[tuple, list[int]] = {}
                for v in vs:
                    key = tuple(sorted([label[cell_of[u]] for u in adj[v]]))
                    groups.setdefault(key, []).append(v)
                untouched = None
                if len(vs) < len(cell):
                    rep = next(v for v in cell if v not in changes)
                    untouched = tuple(sorted([label[cell_of[u]] for u in adj[rep]]))
                    groups.setdefault(untouched, [])
                if len(groups) > 1:
                    splits.append((c, groups, untouched, len(cell) - len(vs)))
            changes = {}
            for split in splits:
                balanced &= self._split(*split, changes)
        return balanced

    def _split(self, c: int, groups: dict, untouched, rest: int, changes: dict) -> bool:
        """Replace cell ``c`` by one child per tuple, in tuple order.

        ``groups`` lists the touched members by tuple; the ``rest`` members not
        listed have the tuple ``untouched``. The largest child keeps ``c``'s id
        and set, so the fewest vertices move. Touches, in ``changes``, the
        neighbors of every vertex that got a new cell id and adds the move to
        their records. Returns whether all children are balanced.
        """
        adj, label, members = self.adj, self.label, self.members
        keys = sorted(groups)
        stay = max(keys, key=lambda k: len(groups[k]) + (rest if k == untouched else 0))
        if rest and stay != untouched:
            # No larger than the biggest touched group, so listing it costs no more.
            groups[untouched] += members[c].difference(*groups.values())
        old = label[c]
        pos = bisect_left(self.cells, old, key=label.__getitem__)
        children = []
        for key in keys:
            if key == stay:
                children.append(c)
                continue
            child = self._new_cell(groups[key], old)
            members[c].difference_update(groups[key])
            self.size1[c] -= self.size1[child]
            children.append(child)
            for u in chain.from_iterable(adj[v] for v in groups[key]):
                changes.setdefault(u, []).append(child)
        offset = old
        for child in children:
            label[child] = offset
            offset += len(members[child])
        self.cells[pos:pos + 1] = children
        self.trail.append(("split", pos, len(children), c, old))
        return all(self.balanced(child) for child in children)

    def _move(self, v1: int, v2: int, source: int, dest: int, between: list[int], shift: int) -> None:
        """Move the pair ``(v1, v2)`` from cell ``source`` to ``dest``, and the cells ``between`` by ``shift``.

        :meth:`undo` moves it back with the two cells swapped and ``-shift``.
        """
        for c in between:
            self.label[c] += shift
        # Out of the source first: the destination may be the source itself.
        self.members[source].difference_update((v1, v2))
        self.size1[source] -= 1
        self.members[dest].update((v1, v2))
        self.size1[dest] += 1
        self.cell_of[v1] = self.cell_of[v2] = dest

    def individualize(self, v1: int, v2: int, color: int) -> bool:
        """Give the pair ``(v1, v2)`` color id ``color``, then refine.

        As with plain color ids, a ``color`` below the number of cells puts
        the pair into the cell of that rank, and a larger one into a new last
        cell, which starts empty at offset n. Returns whether every cell split
        on the way is balanced.
        """
        cells, label = self.cells, self.label
        source = self.cell_of[v1]
        joins = color < len(cells)
        if not joins:
            color = len(cells)
            cells.append(self._new_cell((), len(self.adj)))
        dest = cells[color]
        i = bisect_left(cells, label[source], key=label.__getitem__)
        # The offsets of the cells between the source and the destination move by the pair.
        lo, hi, shift = (i + 1, color + 1, -2) if i < color else (color + 1, i + 1, 2)
        self._move(v1, v2, source, dest, cells[lo:hi], shift)
        self.trail.append(("move", v1, v2, source, dest, lo, hi, shift))
        changes: dict[int, list[int] | None] = {}
        if dest != source:
            for u in chain(self.adj[v1], self.adj[v2]):
                changes.setdefault(u, []).append(dest)
        if joins:
            # The pair's tuples may differ from the members it joined.
            changes[v1] = changes[v2] = None
        return self.refine(changes)

    def undo(self, mark: int) -> None:
        """Roll back every change after the trail was ``mark`` records long."""
        cells, members, size1, cell_of = self.cells, self.members, self.size1, self.cell_of
        while len(self.trail) > mark:
            record = self.trail.pop()
            if record[0] == "split":
                _, pos, count, c, old = record
                for child in cells[pos:pos + count]:
                    if child != c:
                        for v in members[child]:
                            cell_of[v] = c
                        members[c] |= members[child]
                        size1[c] += size1[child]
                cells[pos:pos + count] = [c]
                self.label[c] = old
                self._drop_newest(count - 1)
            else:
                _, v1, v2, source, dest, lo, hi, shift = record
                self._move(v1, v2, dest, source, cells[lo:hi], -shift)
                if not members[dest]:
                    # A class is never empty before a pair joins it, so this one was new.
                    cells.pop()
                    self._drop_newest(1)


def wl_refine(g: SimpleGraph, initial: Mapping[str, int] | None = None) -> dict[str, int]:
    """Refine vertex colors by (own color, sorted neighbor colors) to a fixpoint.

    Color ids are dense from 0, assigned by first occurrence over vertices in
    sorted order, so the result is independent of input vertex order.
    """
    order = sorted(g.vertices)
    if initial is None:
        colors = [0] * len(order)
    else:
        colors = [int(initial[v]) for v in order]
        used = set(colors)
        if used != set(range(len(used))):
            raise ValueError("initial colors must be dense from 0")
    index = {v: i for i, v in enumerate(order)}
    part = _Partition([[index[u] for u in g.neighbors(v)] for v in order], colors, len(order))
    ids: dict[int, int] = {}
    return {v: ids.setdefault(part.cell_of[i], len(ids)) for i, v in enumerate(order)}


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


def _incidence(h: WeightedHypergraph, buckets: dict[float, int], first: int):
    """Number ``h``'s incidence vertices from ``first``: hyperedges by ``key``, then sorted tokens.

    Returns the number map (hyperedge or token to vertex), the adjacency
    lists, each ascending, and every vertex's initial color key.
    """
    edges = sorted(h.edges.items(), key=lambda item: item[0].key)
    nodes = h.nodes
    number = {v: i for i, v in enumerate(chain((e for e, _ in edges), nodes), first)}
    adj = [[number[v] for v in e] for e, _ in edges] + [[] for _ in nodes]
    for e, _ in edges:
        for v in e:
            adj[number[v] - first].append(number[e])
    init = [("edge", len(e), buckets[w]) for e, w in edges] + [("node",)] * len(nodes)
    return number, adj, init


def _leaf_alignment(h1, h2, pairs, backtracks: int) -> Alignment | None:
    """The alignment that the matched incidence vertices ``pairs`` give, if it maps ``h1`` onto ``h2``."""
    pairs = [(v, w) for v, w in pairs if isinstance(v, str)]
    if not all(isinstance(w, str) for _, w in pairs):
        return None
    phi = NodeRelabeling(dict(pairs))
    mapped = relabel(h1, phi)
    edges1, edges2 = mapped.edges, h2.edges
    if edges1.keys() != edges2.keys():
        return None
    if any(abs(w - edges2[e]) > STRUCT_WEIGHT_TOL for e, w in edges1.items()):
        return None
    return Alignment(mapping=phi, cost=dissimilarity(mapped, h2), backtracks=backtracks)


def _ir_search(part: _Partition, next_color: int, h1, h2, keys) -> Alignment | None:
    """Depth-first individualization-refinement over an explicit stack.

    ``part`` is the ordered partition of both incidence graphs, refined;
    ``keys`` lists each side's incidence vertices in the order they are
    numbered: hyperedges by ``key``, then node tokens. After each
    individualization :meth:`_Partition.refine` examines only the cells next
    to what moved. A frame is the trail length of one search node's
    partition, the side-1 vertex it individualizes and an iterator over the
    side-2 candidates not yet tried; returning to a frame undoes the trail
    down to that length, so no frame copies a coloring. The search branches
    on the class with the fewest vertices per side, the lowest color id among
    those.

    The pair drawn from the frame at depth d gets color id ``next_color + d``.
    Below the class count that id is the rank of an existing class, which the
    pair then joins rather than getting a class of its own. The collision is
    kept on purpose: a fresh color would change ``backtracks`` and some
    mappings, and the outputs are pinned byte for byte.

    Logs one INFO record: the incidence vertex count, the individualizations
    tried, the deepest frame and the backtracks (every individualization
    tried, when none leads to an isomorphism).
    """
    side1 = part.side1
    keys1, keys2 = keys
    stack = []
    tried = depth = 0
    balanced = all(part.balanced(c) for c in part.cells)
    while True:
        if balanced:
            sizes = [(part.size1[c], part.label[c], c) for c in part.cells if part.size1[c] > 1]
            if sizes:
                *_, target = min(sizes)
                cell = sorted(part.members[target])  # side-1 vertices first
                candidates = iter(cell[part.size1[target]:])
                stack.append((len(part.trail), cell[0], candidates))
            else:
                # Each frame's latest candidate leads here; every other one tried failed.
                pairs = (sorted(part.members[c]) for c in part.cells)
                found = _leaf_alignment(
                    h1, h2, [(keys1[a], keys2[b - side1]) for a, b in pairs], tried - len(stack)
                )
                if found is not None:
                    break
        while stack and (v2 := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            found = None
            break
        mark, v1, _ = stack[-1]
        part.undo(mark)
        balanced = part.individualize(v1, v2, next_color + len(stack) - 1)
        tried += 1
        depth = max(depth, len(stack))
    logger.info(
        "anchored search: %d incidence vertices, %d individualizations, depth %d, %d backtracks",
        len(part.adj), tried, depth, tried if found is None else found.backtracks,
    )
    return found


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
    :class:`InconsistentAnchors`. Such a pair leaves the anchored partition
    unbalanced unless it starts in two initial classes, so the anchor-free
    refinement runs only in those two cases.
    """
    anchors = anchors or AnchorSet()
    if h1.n != h2.n:
        raise SizeMismatch(f"node counts differ: {h1.n} vs {h2.n}")
    buckets = _weight_buckets(h1, h2)
    number1, adj1, init1 = _incidence(h1, buckets, 0)
    number2, adj2, init2 = _incidence(h2, buckets, len(adj1))
    ids = {k: i for i, k in enumerate(sorted(set(init1) | set(init2)))}
    colors = [ids[k] for k in chain(init1, init2)]
    adj, side1 = adj1 + adj2, len(adj1)

    def name(v) -> str:
        return v if isinstance(v, str) else v.key

    anchor_vertices = [*anchors.node_pairs, *anchors.edge_pairs]
    for va, vb in anchor_vertices:
        if va not in number1:
            raise InconsistentAnchors(f"anchor {name(va)!r} does not exist in the first hypergraph")
        if vb not in number2:
            raise InconsistentAnchors(f"anchor {name(vb)!r} does not exist in the second hypergraph")
    anchor_pairs = [(number1[va], number2[vb]) for va, vb in anchor_vertices]
    anchored = colors[:]
    for color, (a, b) in enumerate(anchor_pairs, len(ids)):
        anchored[a] = anchored[b] = color
    part = _Partition(adj, anchored, side1)
    if anchor_pairs and (
        any(colors[a] != colors[b] for a, b in anchor_pairs)
        or not all(part.balanced(c) for c in part.cells)
    ):
        base = _Partition(adj, colors, side1)
        for (va, vb), (a, b) in zip(anchor_vertices, anchor_pairs):
            if base.cell_of[a] != base.cell_of[b]:
                raise InconsistentAnchors(
                    f"anchor pair ({name(va)!r}, {name(vb)!r}) has mismatched refined colors"
                )
    keys = (list(number1), list(number2))
    return _ir_search(part, len(ids) + len(anchor_pairs), h1, h2, keys)


def fuse_datasets(d1: Dataset, d2: Dataset, phi_star: NodeRelabeling) -> Dataset:
    """Relabel every sample of ``d1`` through the alignment and append ``d2``.

    Each edge that occurs is relabeled once, in order of first occurrence;
    an edge that never occurs needs no mapping.
    """
    used, first, inverse = np.unique(d1.ids, return_index=True, return_inverse=True)
    mapped = {i: phi_star.apply_edge(d1.table[i]) for i in d1.ids[np.sort(first)].tolist()}
    table = [mapped[i] for i in used.tolist()] + list(d2.table)
    return Dataset._from_columns(table, np.concatenate([inverse, d2.ids + len(used)]).astype(np.int32))


# -- text formats -----------------------------------------------------------------


def format_alignment(a: Alignment) -> str:
    """One `<v1> <v2>` line per pair (sorted by v1) plus a trailing cost line."""
    lines = [f"{src} {dst}" for src, dst in a.mapping.pairs]
    lines.append(f"#cost {a.cost:.17g}")
    return "\n".join(lines) + "\n"


def parse_node_mapping(text: str) -> NodeRelabeling:
    """Read `<v1> <v2>` lines, ignoring blanks and `#` comments; a pair may repeat exactly."""
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    for num, line, parts in _fields(text):
        if len(parts) != 2:
            raise ParseError(num, f"expected '<v1> <v2>', got {line!r}")
        src, dst = (_parsed(num, check_token, token) for token in parts)
        if forward.setdefault(src, dst) != dst:
            raise NotABijection(
                f"line {num}: node {src!r} mapped to both {forward[src]!r} and {dst!r}"
            )
        if backward.setdefault(dst, src) != src:
            raise NotABijection(
                f"line {num}: nodes {backward[dst]!r} and {src!r} both mapped to {dst!r}"
            )
    return NodeRelabeling(forward)


def parse_anchor_file(text: str) -> AnchorSet:
    """Read `node <v1> <v2>` and `edge <e1-key> <e2-key>` lines; a pair may repeat exactly."""
    pairs: dict[str, dict[tuple, None]] = {"node": {}, "edge": {}}
    partner: dict[tuple, tuple] = {}
    for num, line, parts in _fields(text):
        if len(parts) != 3 or parts[0] not in ("node", "edge"):
            raise ParseError(num, f"expected 'node <v1> <v2>' or 'edge <e1> <e2>', got {line!r}")
        tag = parts[0]
        parse = check_token if tag == "node" else Hyperedge.from_key
        pair = tuple(_parsed(num, parse, token) for token in parts[1:])
        for side in (0, 1):
            # An exact repeat finds its own pair; a vertex anchored to another partner does not.
            if partner.setdefault((tag, side, pair[side]), pair) != pair:
                raise NotABijection(f"line {num}: {tag} {parts[1 + side]!r} is anchored twice")
        pairs[tag][pair] = None
    return AnchorSet(tuple(pairs["node"]), tuple(pairs["edge"]))


def parse_edge_pairs(text: str) -> tuple[tuple[Hyperedge, Hyperedge], ...]:
    """Read `<e1-key> <e2-key>` lines, ignoring blanks and `#` comments."""
    pairs = []
    for num, line, parts in _fields(text):
        if len(parts) != 2:
            raise ParseError(num, f"expected '<e1-key> <e2-key>', got {line!r}")
        pairs.append(tuple(_parsed(num, Hyperedge.from_key, key) for key in parts))
    return tuple(pairs)
