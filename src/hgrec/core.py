"""Weighted hypergraphs, dissimilarity, relabelings, line graphs, the .hg format and input reading.

Node tokens are nonempty strings without whitespace; the characters ``+`` and
``|`` and the bare token ``_`` are reserved by the canonical key / wire formats
and rejected. Hyperedges are node *sets* (sorted, deduplicated, size >= 2), and
all container types here are value-like: once constructed they are never
mutated, so they are safe to share across parallel workers.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import (
    DuplicateEdge,
    EmptyHypergraph,
    IncompleteMapping,
    NotABijection,
    ParseError,
)

# Tolerances fixed by the data-model contract.
NORMALIZATION_TOL = 1e-9
WEIGHT_EQ_TOL = 1e-12


def check_token(token: str) -> str:
    """Validate a node token and return it unchanged."""
    if not isinstance(token, str) or not token:
        raise ValueError(f"node token must be a nonempty string, got {token!r}")
    if token.split() != [token]:  # str.split breaks exactly at the characters str.isspace accepts
        raise ValueError(f"node token must not contain whitespace: {token!r}")
    if token == "_" or "+" in token or "|" in token:
        raise ValueError(f"node token uses a reserved character: {token!r}")
    return token


class Hyperedge(tuple):
    """An unordered relation between >= 2 distinct nodes; equal to the tuple of its sorted tokens."""

    __slots__ = ()

    def __new__(cls, nodes: Iterable[str]):
        tokens = sorted({check_token(t) for t in nodes})
        if len(tokens) < 2:
            raise ValueError("a hyperedge needs at least 2 distinct nodes")
        return tuple.__new__(cls, tokens)

    nodes = property(itemgetter(slice(None)), doc="The sorted node tokens as a plain tuple.")

    @property
    def key(self) -> str:
        """Canonical text key: tokens joined by '+'."""
        return "+".join(self)

    @classmethod
    def from_key(cls, key: str) -> "Hyperedge":
        return cls(key.split("+"))

    def __repr__(self) -> str:
        return f"Hyperedge({self.key!r})"


def edge(*tokens: str) -> Hyperedge:
    """Shorthand constructor: ``edge("0", "1")``."""
    return Hyperedge(tokens)


class WeightedHypergraph:
    """An immutable map from hyperedges to positive weights.

    The node set is derived from the edges (no isolated nodes). When
    ``normalized`` is set the weights must sum to 1 within ``NORMALIZATION_TOL``.
    Equality compares edge sets exactly and weights within ``WEIGHT_EQ_TOL``.
    """

    __slots__ = ("_edges", "normalized")

    def __init__(
        self,
        edges: Mapping[Hyperedge, float] | Iterable[tuple[Hyperedge, float]],
        *,
        normalized: bool = False,
    ):
        pairs = list(edges.items()) if isinstance(edges, Mapping) else list(edges)
        table: dict[Hyperedge, float] = {}
        for e, w in pairs:
            if not isinstance(e, Hyperedge):
                raise TypeError(f"expected Hyperedge, got {type(e).__name__}")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"edge weight must be a positive finite real, got {w!r}")
            if e in table:
                raise DuplicateEdge(f"duplicate hyperedge {e.key}")
            table[e] = w
        self._edges = {e: table[e] for e in sorted(table)}
        if normalized and abs(sum(self._edges.values()) - 1.0) > NORMALIZATION_TOL:
            raise ValueError("normalized flag set but weights do not sum to 1")
        self.normalized = bool(normalized)

    @property
    def edges(self) -> dict[Hyperedge, float]:
        """Edge -> weight map in canonical edge order (a fresh copy)."""
        return dict(self._edges)

    @property
    def edge_set(self) -> tuple[Hyperedge, ...]:
        return tuple(self._edges)

    @property
    def nodes(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for e in self._edges:
            seen.update(e.nodes)
        return tuple(sorted(seen))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def total_weight(self) -> float:
        return sum(self._edges.values())

    @property
    def range_ratio(self) -> float:
        """max weight / min weight; always >= 1."""
        if not self._edges:
            raise EmptyHypergraph("no edges")
        return max(self._edges.values()) / min(self._edges.values())

    def weight(self, e: Hyperedge, default: float = 0.0) -> float:
        return self._edges.get(e, default)

    def __contains__(self, e: Hyperedge) -> bool:
        return e in self._edges

    def __iter__(self) -> Iterator[Hyperedge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedHypergraph):
            return NotImplemented
        if self._edges.keys() != other._edges.keys():
            return False
        return all(abs(w - other._edges[e]) <= WEIGHT_EQ_TOL for e, w in self._edges.items())

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        flag = ", normalized" if self.normalized else ""
        return f"WeightedHypergraph(n={self.n}, m={self.m}{flag})"


class NodeRelabeling:
    """An explicit node bijection, applied nodewise to hyperedges and hypergraphs."""

    __slots__ = ("_map",)

    def __init__(self, pairs: Mapping[str, str] | Iterable[tuple[str, str]]):
        items = list(pairs.items()) if isinstance(pairs, Mapping) else list(pairs)
        mapping: dict[str, str] = {}
        for src, dst in items:
            check_token(src)
            check_token(dst)
            if src in mapping and mapping[src] != dst:
                raise NotABijection(f"node {src!r} mapped to both {mapping[src]!r} and {dst!r}")
            mapping[src] = dst
        if len(set(mapping.values())) != len(mapping):
            raise NotABijection("mapping is not injective")
        self._map = dict(sorted(mapping.items()))

    @classmethod
    def identity(cls, nodes: Iterable[str]) -> "NodeRelabeling":
        return cls([(v, v) for v in nodes])

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._map.items())

    def __getitem__(self, node: str) -> str:
        try:
            return self._map[node]
        except KeyError:
            raise IncompleteMapping(f"node {node!r} outside the mapping domain") from None

    def __contains__(self, node: str) -> bool:
        return node in self._map

    def __len__(self) -> int:
        return len(self._map)

    def inverse(self) -> "NodeRelabeling":
        return NodeRelabeling([(dst, src) for src, dst in self._map.items()])

    def apply_edge(self, e: Hyperedge) -> Hyperedge:
        return Hyperedge(self[v] for v in e)

    def __repr__(self) -> str:
        return f"NodeRelabeling({len(self._map)} nodes)"


class SimpleGraph:
    """An undirected simple graph over opaque string vertex ids."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vs = set(vertices)
        es: set[tuple[str, str]] = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            es.add((a, b) if a < b else (b, a))
            vs.add(a)
            vs.add(b)
        self.vertices = frozenset(vs)
        self.edges = frozenset(es)
        adj: dict[str, set[str]] = {v: set() for v in vs}
        for a, b in es:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def has_edge(self, a: str, b: str) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


# -- operations ---------------------------------------------------------------


def normalize(h: WeightedHypergraph) -> WeightedHypergraph:
    """Rescale weights to sum to 1, preserving proportions.

    Idempotent: inputs already within ``NORMALIZATION_TOL`` of total weight 1
    are returned with identical weights (only the flag is set).
    """
    if h.m == 0:
        raise EmptyHypergraph("cannot normalize a hypergraph with no edges")
    total = h.total_weight
    if abs(total - 1.0) <= NORMALIZATION_TOL:
        return WeightedHypergraph(h.edges, normalized=True)
    return WeightedHypergraph({e: w / total for e, w in h.edges.items()}, normalized=True)


def dissimilarity(h1: WeightedHypergraph, h2: WeightedHypergraph) -> float:
    """Sum of absolute weight differences over the union of the edge sets.

    Missing edges count with weight 0, so for normalized inputs the value lies
    in [0, 2] (a total-variation style distance).
    """
    e1, e2 = h1.edges, h2.edges
    total = 0.0
    for e in sorted(e1.keys() | e2.keys()):  # fixed order: symmetric to the last bit
        total += abs(e1.get(e, 0.0) - e2.get(e, 0.0))
    return total


def relabel(h: WeightedHypergraph, phi: NodeRelabeling) -> WeightedHypergraph:
    """Map every node of ``h`` through the bijection ``phi``, keeping weights."""
    for v in h.nodes:
        if v not in phi:
            raise IncompleteMapping(f"node {v!r} of the hypergraph is outside the mapping domain")
    return WeightedHypergraph(
        {phi.apply_edge(e): w for e, w in h.edges.items()}, normalized=h.normalized
    )


def line_graph(h: WeightedHypergraph) -> SimpleGraph:
    """The graph on hyperedges (as canonical keys) with adjacency = intersection."""
    incident: dict[str, list[Hyperedge]] = {}
    for e in h.edge_set:
        for v in e:
            incident.setdefault(v, []).append(e)
    pairs = ((a.key, b.key) for edges_at_v in incident.values() for a, b in combinations(edges_at_v, 2))
    return SimpleGraph((e.key for e in h.edge_set), pairs)


def sketch_diff(
    h1: WeightedHypergraph, h2: WeightedHypergraph
) -> tuple[tuple[Hyperedge, ...], tuple[Hyperedge, ...]]:
    """Unweighted edge-set difference: (edges only in h1, edges only in h2)."""
    s1, s2 = set(h1.edge_set), set(h2.edge_set)
    return tuple(sorted(s1 - s2)), tuple(sorted(s2 - s1))


# -- .hg text format ----------------------------------------------------------
#
# UTF-8, LF line endings. First line is the header `#hg v1`; an optional
# `#normalized` line before the first edge sets the flag; other `#...` lines
# are comments. Each edge line is `edge <node_1> ... <node_k> <weight>`.

_HG_HEADER = "#hg v1"


def encode(h: WeightedHypergraph) -> str:
    lines = [_HG_HEADER]
    if h.normalized:
        lines.append("#normalized")
    for e, w in h.edges.items():
        lines.append(f"edge {' '.join(e.nodes)} {w:.17g}")
    return "\n".join(lines) + "\n"


def decode(text: str) -> WeightedHypergraph:
    lines = text.split("\n")
    if lines[0].strip() != _HG_HEADER:
        raise ParseError(1, f"missing {_HG_HEADER!r} header")
    normalized = 0  # the line of ``#normalized``, if any
    edges: dict[Hyperedge, float] = {}
    for num, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line == "#normalized":
            if edges:
                raise ParseError(num, "#normalized must appear before the first edge")
            normalized = num
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "edge":
            raise ParseError(num, f"unknown directive {parts[0]!r}")
        if len(parts) < 4:
            raise ParseError(num, "edge line needs at least 2 nodes and a weight")
        try:
            w = float(parts[-1])
        except ValueError:
            raise ParseError(num, f"bad weight {parts[-1]!r}") from None
        if not math.isfinite(w) or w <= 0.0:
            raise ParseError(num, f"weight must be a positive finite real, got {parts[-1]}")
        e = _parsed(num, Hyperedge, parts[1:-1])
        if e in edges:
            raise DuplicateEdge(f"line {num}: duplicate hyperedge {e.key}")
        edges[e] = w
    try:
        return WeightedHypergraph(edges, normalized=bool(normalized))
    except ValueError as exc:  # every weight is checked above, so only the sum check is left
        raise ParseError(normalized, str(exc)) from None


def save_hypergraph(h: WeightedHypergraph, path: str | Path) -> None:
    write_text(path, encode(h))


def load_hypergraph(path: str | Path) -> WeightedHypergraph:
    return decode(read_text(path))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path`` with universal newlines; a bad byte is a ``ParseError`` on its line."""
    return _utf8(Path(path).read_text(encoding="utf-8", errors="surrogateescape"), 1)


def _utf8(text: str, num: int) -> str:
    """``text``, decoded with ``errors="surrogateescape"`` and starting at line ``num``.

    A byte that is not UTF-8 is a ``ParseError`` on its line.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:  # the first escaped byte or lone surrogate
            line = num + text.count("\n", 0, exc.start)
            char = ord(text[exc.start])
            what = f"byte 0x{char - 0xDC00:02x}" if 0xDC80 <= char <= 0xDCFF else f"character U+{char:04X}"
            raise ParseError(line, f"{what} is not UTF-8") from None
    return text


_CHUNK = 1 << 20  # characters that read_chunks reads at a time, before it completes the last line


def read_chunks(path: str | Path) -> Iterator[str]:
    """``read_text(path)`` with its bytes unchecked, ``_CHUNK`` characters and the rest of a line at a time."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        yield from iter(lambda: f.read(_CHUNK) + f.readline(), "")


def parse_lines(chunks: Iterable[str], parse, table: list) -> Iterator[Iterator[int]]:
    """Parse the lines of ``chunks``, each a run of whole lines, once per distinct line.

    Yields per chunk an iterator, read before the next chunk clears its lines,
    of each line's index in ``table``, -1 if blank; a line's first occurrence
    appends ``parse(line)``, whose ``ValueError`` is a ``ParseError`` on that
    line. A chunk's bytes are checked before its lines are parsed, so a bad byte
    is reported before a bad record in its own chunk and after one in an earlier chunk.
    """
    class Code(dict):  # every line read so far -> the index of its record
        def __missing__(self, line: str) -> int:
            if not line.strip():
                return self.setdefault(line, -1)
            try:
                table.append(parse(line))
            except ValueError as exc:  # the stream meets a line first here, so lines.index finds it
                raise ParseError(num + lines.index(line), str(exc)) from None
            return self.setdefault(line, len(table) - 1)

    code = Code()
    num = 1  # the number of the chunk's first line
    for chunk in chunks:
        lines = _utf8(chunk, num).split("\n")
        del chunk  # the chunk's text, and its lines below, go before the next chunk is read
        yield map(code.__getitem__, lines)
        num += len(lines) - 1
        lines.clear()


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends, or to stdout if ``path`` is ``-``."""
    if str(path) == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_json(text: str, what: str):
    """``json.loads(text)``; a value nested too deeply to parse is a ``ValueError`` naming ``what``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _fields(text: str):
    """(1-based line number, line, fields) for each line that is neither blank nor a `#` comment."""
    for num, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield num, line, line.split()


def _parsed(num: int, parse, token):
    """``parse(token)``, with its ``ValueError`` raised as a ``ParseError`` on line ``num``."""
    try:
        return parse(token)
    except ValueError as exc:
        raise ParseError(num, str(exc)) from None
