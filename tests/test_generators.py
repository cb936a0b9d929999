import re
import tracemalloc
from collections import deque
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
from hgrec import Hyperedge, edge, generators
from hgrec.errors import CannotBeConnected, InvalidSize, InvalidWeights
from hgrec.generators import (
    GeneratorSpec,
    _connected,
    _unrank,
    assign_weights,
    chain,
    frucht,
    star,
    wcgnm,
    wcgnm_edge_count,
    x_graph,
)


def edge_pairs(h):
    return {tuple(sorted(int(t) for t in e.nodes)) for e in h.edge_set}


def to_nx(h):
    return nx.Graph(list(edge_pairs(h)))


# -- star / chain / x ------------------------------------------------------------

def test_star6():
    assert edge_pairs(star(6)) == {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)}


def test_star2():
    assert edge_pairs(star(2)) == {(0, 1)}


def test_star_too_small():
    with pytest.raises(InvalidSize):
        star(1)


def test_chain():
    assert edge_pairs(chain(3)) == {(0, 1), (1, 2)}
    assert edge_pairs(chain(2)) == {(0, 1)}
    assert chain(6).m == 5
    with pytest.raises(InvalidSize):
        chain(1)


def test_x6():
    assert edge_pairs(x_graph(6)) == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)}


def test_x9():
    assert edge_pairs(x_graph(9)) == {
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8),
    }


def test_x_too_small():
    with pytest.raises(InvalidSize):
        x_graph(4)


@pytest.mark.parametrize("n", [5, 6, 7, 10, 13, 21])
def test_x_matches_set_builder(n):
    # independent re-evaluation of the defining set comprehension
    expected = {(0, k) for k in (1, 2, 3, 4)}
    for i in range(n):
        for k in (1, 2, 3, 4):
            if 4 * i + k + 4 <= n - 1:
                expected.add((4 * i + k, 4 * i + k + 4))
    assert edge_pairs(x_graph(n)) == expected


@pytest.mark.parametrize("n", [2, 5, 9])
def test_star_chain_edge_counts(n):
    assert star(n).m == n - 1
    assert chain(n).m == n - 1


# -- wcgnm -------------------------------------------------------------------------

def test_wcgnm_tree():
    h = wcgnm(10, 0.2, seed=5)
    assert h.m == 9
    assert nx.is_connected(to_nx(h))


def test_wcgnm_complete():
    h = wcgnm(5, 1.0, seed=5)
    assert h.m == 10
    assert edge_pairs(h) == {(a, b) for a in range(5) for b in range(a + 1, 5)}


def test_wcgnm_infeasible():
    with pytest.raises(CannotBeConnected):
        wcgnm(10, 0.05, seed=5)


def test_wcgnm_deterministic():
    assert wcgnm(12, 0.3, seed=9).edges == wcgnm(12, 0.3, seed=9).edges
    assert wcgnm(12, 0.3, seed=9).edge_set != wcgnm(12, 0.3, seed=10).edge_set


@pytest.mark.parametrize("n, p, message", [
    (1, 0.5, "wcgnm needs n >= 2, got 1"),
    (5, 0.0, "edge density must lie in (0, 1], got 0.0"),
    (5, 1.5, "edge density must lie in (0, 1], got 1.5"),
])
def test_wcgnm_rejects_size_and_density(n, p, message):
    with pytest.raises(InvalidSize, match=f"^{re.escape(message)}$"):
        wcgnm(n, p, seed=0)


def test_wcgnm_edge_count_rounds_half_up():
    assert wcgnm_edge_count(10, 0.2) == 9
    assert wcgnm_edge_count(5, 0.45) == 5  # 4.5 rounds up


@pytest.mark.parametrize("n,p", [(10, 0.2), (20, 0.2), (15, 0.5)])
def test_wcgnm_connected_and_sized(n, p):
    h = wcgnm(n, p, seed=123)
    assert h.m == wcgnm_edge_count(n, p)
    assert h.n == n
    assert nx.is_connected(to_nx(h))


def test_wcgnm_exhausted_draws():
    # m = n-1: a draw is connected only when it is a spanning tree, which 1000 draws never hit
    message = "no connected draw in 1000 attempts (n=60, m=59); density too low"
    with pytest.raises(CannotBeConnected, match=f"^{re.escape(message)}$"):
        wcgnm(60, 59 / 1770, 1)


def test_wcgnm_golden_seed_rejects_many_draws(monkeypatch):
    """``test_golden.WCGNM_DIGESTS`` pins seed 5 of wcgnm(500, 0.01) because it draws 82 times."""
    draws = []
    monkeypatch.setattr(generators, "_connected", lambda n, a, b: draws.append(n) or _connected(n, a, b))
    wcgnm(500, 0.01, 5)
    assert len(draws) == 82


@given(st.integers(2, 60))
def test_unrank_matches_combinations(n):
    a, b = _unrank(n, np.arange(n * (n - 1) // 2))
    assert list(zip(a.tolist(), b.tolist())) == list(combinations(range(n), 2))


def columns(edges):
    """The end points of ``edges`` as two int64 arrays, as ``_unrank`` returns them."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def bfs_connected(n, edges):
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, queue = {0}, deque([0])
    while queue:
        for u in adj[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


@st.composite
def edge_lists(draw):
    n = draw(st.integers(2, 25))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=2 * n))


@settings(max_examples=300)
@given(edge_lists())
@example((2, []))
@example((2, [(1, 0)]))
@example((4, [(0, 1), (2, 3)]))
@example((6, [(4, 5), (3, 4), (2, 3), (1, 2), (0, 1)]))  # labels fall one step a round without hooking
def test_connected_matches_bfs(case):
    n, edges = case
    assert _connected(n, *columns(edges)) == bfs_connected(n, edges)


def test_wcgnm_memory_grows_with_edges_not_pairs():
    """Mean degree 8: doubling n doubles the edges and quadruples the pairs; the peak follows the edges."""
    wcgnm(10, 0.5, 0)  # imports hgrec.rng before tracing starts; numpy is already imported
    peaks = []
    tracemalloc.start()
    try:
        for n in (800, 1600):
            peaks.append(traced_peak(lambda: wcgnm(n, 8 / (n - 1), 0)))
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


# -- frucht -------------------------------------------------------------------------

def test_frucht_counts():
    h = frucht()
    assert h.n == 12 and h.m == 18


def test_frucht_cubic():
    g = to_nx(frucht())
    assert set(dict(g.degree()).values()) == {3}


def test_frucht_is_the_frucht_graph():
    assert nx.is_isomorphic(to_nx(frucht()), nx.frucht_graph())


def test_frucht_trivial_automorphism_group():
    g = to_nx(frucht())
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    assert sum(1 for _ in matcher.isomorphisms_iter()) == 1


# -- weights -------------------------------------------------------------------------

def test_assign_weights_kappa10():
    h = assign_weights(star(20), 1.0, 10.0, seed=0)
    assert h.range_ratio == pytest.approx(10.0, rel=1e-12)
    assert h.normalized
    assert abs(h.total_weight - 1.0) <= 1e-9


def test_assign_weights_degenerate():
    h = assign_weights(star(5), 1.0, 1.0, seed=0)
    assert all(w == pytest.approx(0.25, abs=1e-15) for w in h.edges.values())


def test_assign_weights_kappa100():
    h = assign_weights(chain(30), 1.0, 100.0, seed=3)
    assert h.range_ratio == pytest.approx(100.0, rel=1e-12)


def test_assign_weights_ratio_support():
    for seed in range(10):
        h = assign_weights(star(4), 1.0, 7.0, seed=seed)
        assert h.range_ratio == pytest.approx(1.0) or h.range_ratio == pytest.approx(7.0)


def test_assign_weights_invalid():
    with pytest.raises(InvalidWeights):
        assign_weights(star(4), 0.0, 1.0, seed=0)
    with pytest.raises(InvalidWeights):
        assign_weights(star(4), 2.0, 1.0, seed=0)


def test_generator_spec_builds():
    h = GeneratorSpec(structure="star", n=6, w_min=1.0, w_max=10.0, seed=1).build()
    assert h.m == 5 and h.normalized
    with pytest.raises(InvalidSize):
        GeneratorSpec(structure="nope", n=6)
    with pytest.raises(InvalidSize):
        GeneratorSpec(structure="wcgnm", n=6)


# Each structure as its builder draws it for n=9, p=0.5, seed=4.
UNWEIGHTED = {
    "star": lambda: star(9),
    "x": lambda: x_graph(9),
    "chain": lambda: chain(9),
    "wcgnm": lambda: wcgnm(9, 0.5, 4),
    "frucht": frucht,
}


@pytest.mark.parametrize("structure", generators.STRUCTURES)
def test_generator_spec_builds_its_structure_then_weights_it(structure):
    spec = GeneratorSpec(structure, n=9, p=0.5, w_min=1.0, w_max=3.0, seed=4)
    assert spec.build() == assign_weights(UNWEIGHTED[structure](), 1.0, 3.0, seed=4)
