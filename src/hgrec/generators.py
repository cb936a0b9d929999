"""Benchmark hypergraph constructions and two-point weight assignment.

All generated structures are 2-uniform; node tokens are decimal integers
rendered as text. Structural generators return unit weights (unnormalized);
``assign_weights`` draws each weight i.i.d. from ``{w_min, w_max}`` and
normalizes, so the realized range ratio is ``w_max / w_min`` unless all draws
coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Hyperedge, WeightedHypergraph, normalize
from .errors import CannotBeConnected, InvalidSize, InvalidWeights

_MAX_CONNECT_TRIES = 1000


def _unit(edges: list[tuple[int, int]]) -> WeightedHypergraph:
    return WeightedHypergraph([(Hyperedge((str(a), str(b))), 1.0) for a, b in edges])


def star(n: int) -> WeightedHypergraph:
    """Hub node 0 joined to each of 1..n-1."""
    if n < 2:
        raise InvalidSize(f"star needs n >= 2, got {n}")
    return _unit([(0, i) for i in range(1, n)])


def chain(n: int) -> WeightedHypergraph:
    """Path 0-1-...-(n-1)."""
    if n < 2:
        raise InvalidSize(f"chain needs n >= 2, got {n}")
    return _unit([(i, i + 1) for i in range(n - 1)])


def x_graph(n: int) -> WeightedHypergraph:
    """Four spokes at node 0 plus arms {v, v+4} for 1 <= v <= n-5."""
    if n < 5:
        raise InvalidSize(f"x_graph needs n >= 5, got {n}")
    return _unit([(0, k) for k in range(1, 5)] + [(v, v + 4) for v in range(1, n - 4)])


def wcgnm_edge_count(n: int, p: float) -> int:
    """m(n) = round(p * n * (n-1) / 2), rounding half up."""
    return int(math.floor(p * n * (n - 1) / 2.0 + 0.5))


def wcgnm(n: int, p: float, seed: int) -> WeightedHypergraph:
    """Connected random graph with n nodes and m(n) uniformly chosen edges.

    Edge sets are resampled until connected, which keeps the draw uniform among
    connected graphs with exactly m(n) edges. A draw picks m of the n(n-1)/2
    pair ranks and unranks them, so it holds O(n + m) numbers and no pair list
    (Batagelj and Brandes 2005); connectivity is checked in numpy.
    """
    if n < 2:
        raise InvalidSize(f"wcgnm needs n >= 2, got {n}")
    if not 0.0 < p <= 1.0:
        raise InvalidSize(f"edge density must lie in (0, 1], got {p}")
    m = wcgnm_edge_count(n, p)
    if m < n - 1:
        raise CannotBeConnected(f"m(n)={m} < n-1={n - 1}: no connected graph exists")
    from .rng import rng_stream  # numpy: imported by the two functions that draw

    rng = rng_stream(seed, "wcgnm")
    for _ in range(_MAX_CONNECT_TRIES):
        a, b = _unrank(n, rng.choice(n * (n - 1) // 2, size=m, replace=False))
        if _connected(n, a, b):
            return _unit(list(zip(a.tolist(), b.tolist())))
    raise CannotBeConnected(
        f"no connected draw in {_MAX_CONNECT_TRIES} attempts (n={n}, m={m}); density too low"
    )


def _unrank(n: int, k):
    """Arrays ``a < b`` of the pairs at lexicographic ranks ``k`` of ``combinations(range(n), 2)``."""
    import numpy as np

    starts = np.arange(n - 1) * n - np.arange(n - 1).cumsum()  # i*n - i*(i+1)//2, the rank of (i, i+1)
    a = np.searchsorted(starts, k, side="right") - 1
    return a, k - starts[a] + a + 1


def _connected(n: int, a, b) -> bool:
    """Whether the edges ``a[j]-b[j]`` connect nodes 0..n-1: min-label hooking and pointer jumping."""
    import numpy as np

    # label[v] <= v names a node in v's component and never grows, so the labels
    # have stopped changing when their sum has; then they are constant on each component.
    label, total = np.arange(n), None
    while total != (total := int(label.sum())):
        np.minimum.at(label, label[a], label[b])  # hook a's label under b's
        np.minimum.at(label, label[b], label[a])
        label = label[label]
    return total == 0


# Frucht graph in LCF notation: Hamiltonian 12-cycle plus one chord per vertex.
_FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


def frucht() -> WeightedHypergraph:
    """The 12-vertex cubic graph with trivial automorphism group."""
    edges = {(i, (i + 1) % 12) for i in range(12)}
    for i, shift in enumerate(_FRUCHT_LCF):
        j = (i + shift) % 12
        edges.add((min(i, j), max(i, j)))
    return _unit(sorted((min(a, b), max(a, b)) for a, b in edges))


def assign_weights(
    h: WeightedHypergraph, w_min: float, w_max: float, seed: int
) -> WeightedHypergraph:
    """Draw each edge weight i.i.d. uniform on {w_min, w_max}, then normalize."""
    if w_min <= 0 or w_max <= 0:
        raise InvalidWeights(f"weight bounds must be positive, got ({w_min}, {w_max})")
    if w_max < w_min:
        raise InvalidWeights(f"w_max must be >= w_min, got ({w_min}, {w_max})")
    from .rng import rng_stream

    rng = rng_stream(seed, "assign-weights")
    draws = rng.integers(0, 2, size=h.m)
    weighted = WeightedHypergraph(
        [(e, w_max if hi else w_min) for e, hi in zip(h.edge_set, draws)]
    )
    return normalize(weighted)


# Each structure's builder and the GeneratorSpec fields it reads, in argument order.
STRUCTURES = {
    "star": (star, ("n",)),
    "x": (x_graph, ("n",)),
    "chain": (chain, ("n",)),
    "wcgnm": (wcgnm, ("n", "p", "seed")),
    "frucht": (frucht, ()),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """A fully determined generator instance: structure, size, weights, seed."""

    structure: str
    n: int = 0
    p: float | None = None
    w_min: float = 1.0
    w_max: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise InvalidSize(f"unknown structure {self.structure!r}; expected one of {tuple(STRUCTURES)}")
        if "p" in STRUCTURES[self.structure][1] and self.p is None:
            raise InvalidSize(f"{self.structure} requires an edge density p")

    def build(self) -> WeightedHypergraph:
        """Generate the structure and assign normalized two-point weights."""
        builder, fields = STRUCTURES[self.structure]
        h = builder(*(getattr(self, f) for f in fields))
        return assign_weights(h, self.w_min, self.w_max, self.seed)
