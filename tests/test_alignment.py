import inspect
import logging
import random
import re
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgrec import (
    Alignment,
    AnchorSet,
    Dataset,
    Hyperedge,
    NodeRelabeling,
    SimpleGraph,
    WeightedHypergraph,
    align_by_hyperedge_ids,
    align_exact,
    align_wl_anchored,
    color_classes,
    dissimilarity,
    edge,
    fuse_datasets,
    normalize,
    recover_from_dataset,
    relabel,
    sample_dataset,
    wl_refine,
)
from hgrec import alignment
from hgrec.alignment import format_alignment, parse_anchor_file, parse_edge_pairs, parse_node_mapping
from hgrec.errors import (
    AmbiguousLabels,
    HgrecError,
    InconsistentAnchors,
    IncompleteMapping,
    NotABijection,
    NotAnIsomorphism,
    ParseError,
    SizeMismatch,
    TooLarge,
)
from hgrec.generators import GeneratorSpec, chain, frucht, star, x_graph
from conftest import EDGE_LISTS, READER_TEXTS, random_connected_graph, random_relabeling


def simple(h):
    return SimpleGraph(h.nodes, [(e.nodes[0], e.nodes[1]) for e in h.edge_set])


def naive_min_cost(h1, h2):
    """Direct reference: evaluate the dissimilarity for every bijection."""
    v1, v2 = h1.nodes, h2.nodes
    best = float("inf")
    for perm in permutations(v2):
        phi = NodeRelabeling(dict(zip(v1, perm)))
        best = min(best, dissimilarity(relabel(h1, phi), h2))
    return best


# -- exact alignment ---------------------------------------------------------------

def test_align_exact_recovers_relabeling():
    rng = random.Random(1)
    h1 = random_connected_graph(rng, 6, extra=2)
    phi = random_relabeling(rng, h1)
    h2 = relabel(h1, phi)
    a = align_exact(h1, h2)
    assert a.cost == 0.0
    assert relabel(h1, a.mapping) == h2


def test_align_exact_identity_when_rigid():
    h = WeightedHypergraph(
        {edge("0", "1"): 0.5, edge("0", "2"): 0.3, edge("0", "3"): 0.2}, normalized=True
    )
    a = align_exact(h, h)
    assert a.cost == 0.0
    assert a.mapping.pairs == tuple((v, v) for v in h.nodes)


def test_align_exact_size_mismatch():
    with pytest.raises(SizeMismatch):
        align_exact(normalize(star(4)), normalize(star(5)))


def test_align_exact_too_large():
    with pytest.raises(TooLarge):
        align_exact(normalize(star(10)), normalize(star(10)))


def test_align_exact_cost_matches_naive():
    rng = random.Random(2)
    for _ in range(5):
        h1 = random_connected_graph(rng, 5, extra=1)
        h2 = random_connected_graph(rng, 5, extra=2)
        a = align_exact(h1, h2)
        assert a.cost == pytest.approx(naive_min_cost(h1, h2), abs=1e-12)


def test_align_exact_lexicographic_tiebreak():
    # two disjoint equal-weight edges: many zero-cost bijections; identity is smallest
    h = WeightedHypergraph({edge("a", "b"): 0.5, edge("c", "d"): 0.5}, normalized=True)
    a = align_exact(h, h)
    assert a.mapping.pairs == (("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"))


def test_align_exact_invariant_under_relabeling():
    rng = random.Random(3)
    h1 = random_connected_graph(rng, 5, extra=1)
    h2 = random_connected_graph(rng, 5, extra=2)
    base = align_exact(h1, h2).cost
    phi = random_relabeling(rng, h1, prefix="w")
    assert align_exact(relabel(h1, phi), h2).cost == pytest.approx(base, abs=1e-12)


def loop_align_exact(h1, h2, max_nodes=8):
    """Reference: the one-bijection-at-a-time scan that the vectorized scan replaced."""
    v1, v2 = h1.nodes, h2.nodes
    if len(v1) != len(v2):
        raise SizeMismatch(f"node counts differ: {len(v1)} vs {len(v2)}")
    if len(v1) > max_nodes:
        raise TooLarge(f"{len(v1)} nodes exceeds max_nodes={max_nodes}")
    n = len(v1)
    idx2 = {v: i for i, v in enumerate(v2)}
    edges1 = [
        (tuple(i for i, v in enumerate(v1) if v in e), w) for e, w in h1.edges.items()
    ]
    w2 = {tuple(sorted(idx2[v] for v in e)): w for e, w in h2.edges.items()}
    total2 = sum(w2.values())

    best_cost = float("inf")
    best_perm: tuple[int, ...] | None = None
    m1, m2 = len(edges1), len(w2)
    for perm in permutations(range(n)):
        acc = 0.0
        hit = 0.0
        hits = 0
        for nodes_idx, w in edges1:
            key = tuple(sorted(perm[i] for i in nodes_idx))
            wb = w2.get(key, 0.0)
            acc += abs(w - wb)
            hit += wb
            hits += key in w2
        if hits == m1 == m2:
            cost = acc  # every edge matched: the unmatched remainder is exactly zero
        else:
            cost = acc + (total2 - hit)
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    mapping = NodeRelabeling({v1[i]: v2[best_perm[i]] for i in range(n)})
    return Alignment(mapping=mapping, cost=best_cost)


def exact_outcome(align, h1, h2, max_nodes):
    try:
        return format_alignment(align(h1, h2, max_nodes=max_nodes))
    except (SizeMismatch, TooLarge) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def exact_alignment_inputs(draw):
    """Pairs on up to 7 nodes: relabeled, reweighted, edited or unrelated, with few weights."""
    weights = st.sampled_from([1.0, 2.0, 3.0, 0.5])
    edges1 = draw(EDGE_LISTS)
    h1 = WeightedHypergraph({e: draw(weights) for e in edges1})
    change = draw(st.sampled_from(["relabel", "reweight", "edit", "unrelated"]))
    if change == "unrelated":
        edges2 = draw(EDGE_LISTS)
    elif change == "edit":
        # Drop some edges and add some over the same nodes, so m1 != m2 at equal n.
        dropped = draw(st.sets(st.sampled_from(edges1), max_size=2))
        kept = [e for e in edges1 if e not in dropped]
        extra = st.sets(st.sampled_from(h1.nodes), min_size=2, max_size=4).map(Hyperedge)
        added = draw(st.lists(extra, max_size=4, unique=True))
        edges2 = kept + [e for e in added if e not in kept] or edges1
    else:
        edges2 = edges1
    if change == "relabel":
        h2 = h1
    else:
        h2 = WeightedHypergraph({e: draw(weights) for e in edges2})
    targets = draw(st.permutations([f"y{i}" for i in range(h2.n)]))
    h2 = relabel(h2, NodeRelabeling(dict(zip(h2.nodes, targets))))
    if draw(st.booleans()):
        # Normalized weights are not dyadic, so a reordered sum rounds differently.
        h1, h2 = normalize(h1), normalize(h2)
    return h1, h2, draw(st.one_of(st.just(8), st.integers(0, 7)))


@settings(max_examples=150, deadline=None)
@given(exact_alignment_inputs())
def test_align_exact_matches_loop(case):
    h1, h2, max_nodes = case
    expected = exact_outcome(loop_align_exact, h1, h2, max_nodes)
    assert exact_outcome(align_exact, h1, h2, max_nodes) == expected


def test_align_exact_scans_past_the_first_block():
    # A 9-node path with distinct weights: the relabeling is the only zero-cost
    # bijection. Above 8 nodes the scan fixes the image of v1[0] per block of
    # 8!; "0" maps to "y5", so that bijection lies in the sixth block.
    h1 = WeightedHypergraph({edge(str(i), str(i + 1)): float(i + 1) for i in range(8)})
    phi = NodeRelabeling({str(i): f"y{(i + 5) % 9}" for i in range(9)})
    h2 = relabel(h1, phi)
    a = align_exact(h1, h2, max_nodes=9)
    assert a.cost == 0.0
    assert relabel(h1, a.mapping) == h2
    assert a.mapping.pairs[0] == ("0", "y5")


def test_align_exact_tiebreak_across_blocks():
    # The 18 automorphisms of a 9-cycle map node "0" anywhere, so every block
    # holds a zero-cost bijection; the identity, in the first block, must win.
    cycle = normalize(WeightedHypergraph({edge(str(i), str((i + 1) % 9)): 1.0 for i in range(9)}))
    a = align_exact(cycle, cycle, max_nodes=9)
    assert a.cost == 0.0
    assert a.mapping.pairs == tuple((v, v) for v in cycle.nodes)


# -- hyperedge-identifier alignment ---------------------------------------------------

def test_ids_path_example():
    h1 = WeightedHypergraph({edge("p", "q"): 0.5, edge("q", "r"): 0.5}, normalized=True)
    h2 = WeightedHypergraph({edge("x", "y"): 0.5, edge("y", "z"): 0.5}, normalized=True)
    a = align_by_hyperedge_ids(
        h1, h2, [(edge("p", "q"), edge("x", "y")), (edge("q", "r"), edge("y", "z"))]
    )
    assert dict(a.mapping.pairs) == {"p": "x", "q": "y", "r": "z"}
    assert a.cost == 0.0


def test_ids_star_spokes():
    h1 = normalize(star(6))
    phi = NodeRelabeling({str(i): f"v{i}" for i in range(6)})
    h2 = relabel(h1, phi)
    pairs = [(e, phi.apply_edge(e)) for e in h1.edge_set]
    a = align_by_hyperedge_ids(h1, h2, pairs)
    assert dict(a.mapping.pairs) == {str(i): f"v{i}" for i in range(6)}


def test_ids_triangle():
    tri = normalize(
        WeightedHypergraph({edge("a", "b"): 1.0, edge("b", "c"): 1.0, edge("a", "c"): 1.0})
    )
    phi = NodeRelabeling({"a": "u", "b": "v", "c": "w"})
    h2 = relabel(tri, phi)
    pairs = [(e, phi.apply_edge(e)) for e in tri.edge_set]
    a = align_by_hyperedge_ids(tri, h2, pairs)
    assert dict(a.mapping.pairs) == {"a": "u", "b": "v", "c": "w"}


def test_ids_ambiguous_labels():
    h = WeightedHypergraph({edge("a", "b"): 0.5, edge("c", "d"): 0.5}, normalized=True)
    pairs = [(e, e) for e in h.edge_set]
    with pytest.raises(AmbiguousLabels) as err:
        align_by_hyperedge_ids(h, h, pairs)
    assert err.value.classes


def test_ids_incomplete_pairs():
    h = normalize(star(4))
    with pytest.raises(NotABijection):
        align_by_hyperedge_ids(h, h, [(h.edge_set[0], h.edge_set[0])])


def test_ids_second_side_not_covered():
    h = WeightedHypergraph({edge("p", "q"): 0.5, edge("q", "r"): 0.5}, normalized=True)
    for rights in ((edge("p", "q"), edge("p", "q")), (edge("p", "q"), edge("p", "r"))):
        with pytest.raises(NotABijection, match="second hypergraph"):
            align_by_hyperedge_ids(h, h, list(zip(h.edge_set, rights)))


def test_ids_node_count_mismatch():
    h1 = WeightedHypergraph({edge("p", "q"): 0.5, edge("q", "r"): 0.5}, normalized=True)
    h2 = WeightedHypergraph({edge("w", "x"): 0.5, edge("y", "z"): 0.5}, normalized=True)
    with pytest.raises(SizeMismatch, match="3 vs 4"):
        align_by_hyperedge_ids(h1, h2, list(zip(h1.edge_set, h2.edge_set)))


def test_ids_label_sequences_differ():
    path = WeightedHypergraph({edge("p", "q"): 1.0, edge("q", "r"): 1.0, edge("r", "s"): 1.0})
    claw = WeightedHypergraph({edge("c", "x"): 1.0, edge("c", "y"): 1.0, edge("c", "z"): 1.0})
    with pytest.raises(NotAnIsomorphism, match="label sequences differ"):
        align_by_hyperedge_ids(path, claw, list(zip(path.edge_set, claw.edge_set)))


@settings(max_examples=100, deadline=None)
@given(EDGE_LISTS, st.randoms(use_true_random=False))
def test_ids_positional_match_maps_every_pair(edges, rnd):
    """Equal, unambiguous label sequences always map each left edge onto its partner."""
    h1 = WeightedHypergraph({e: 1.0 for e in edges})
    phi = random_relabeling(rnd, h1)
    h2 = relabel(h1, phi)
    rights = [phi.apply_edge(e) for e in h1.edge_set]
    if rnd.random() < 0.5:
        rnd.shuffle(rights)
    pairs = list(zip(h1.edge_set, rights))
    try:
        a = align_by_hyperedge_ids(h1, h2, pairs)
    except (AmbiguousLabels, NotAnIsomorphism):
        return
    assert all(a.mapping.apply_edge(left) == right for left, right in pairs)


def test_ids_detects_non_isomorphism():
    h1 = normalize(star(4))
    h2 = normalize(chain(4))
    pairs = list(zip(h1.edge_set, h2.edge_set))
    with pytest.raises((NotAnIsomorphism, AmbiguousLabels)):
        align_by_hyperedge_ids(h1, h2, pairs)


def test_ids_agrees_with_exact_on_random_graphs():
    rng = random.Random(5)
    checked = 0
    for _ in range(10):
        h1 = random_connected_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 3))
        phi = random_relabeling(rng, h1)
        h2 = relabel(h1, phi)
        pairs = [(e, phi.apply_edge(e)) for e in h1.edge_set]
        try:
            a = align_by_hyperedge_ids(h1, h2, pairs)
        except AmbiguousLabels:
            continue
        assert a.cost <= 1e-12
        assert relabel(h1, a.mapping) == h2
        checked += 1
    assert checked >= 5


# -- WL refinement ------------------------------------------------------------------------

def test_wl_star_two_classes():
    coloring = wl_refine(simple(normalize(star(6))))
    classes = color_classes(coloring)
    assert sorted(len(c) for c in classes) == [1, 5]


def test_wl_frucht_single_class():
    coloring = wl_refine(simple(normalize(frucht())))
    assert len(color_classes(coloring)) == 1


def test_wl_frucht_individualized_discrete():
    g = simple(normalize(frucht()))
    init = {v: 0 for v in g.vertices}
    init["0"] = 1
    coloring = wl_refine(g, init)
    assert len(color_classes(coloring)) == 12


def test_wl_order_independent():
    rng = random.Random(6)
    h = random_connected_graph(rng, 7, extra=3)
    g1 = simple(h)
    verts = list(h.nodes)
    pairs = [(e.nodes[0], e.nodes[1]) for e in h.edge_set]
    rng.shuffle(verts)
    rng.shuffle(pairs)
    g2 = SimpleGraph(verts, pairs)
    c1, c2 = wl_refine(g1), wl_refine(g2)
    assert color_classes(c1) == color_classes(c2)


def test_wl_fixpoint_is_equitable():
    rng = random.Random(7)
    h = random_connected_graph(rng, 8, extra=4)
    g = simple(h)
    coloring = wl_refine(g)
    for cls in color_classes(coloring):
        profiles = {
            tuple(sorted(coloring[u] for u in g.neighbors(v))) for v in cls
        }
        assert len(profiles) == 1


def test_wl_rejects_sparse_initial():
    g = simple(normalize(star(4)))
    with pytest.raises(ValueError):
        wl_refine(g, {v: 5 for v in g.vertices})


# -- anchored IR search ---------------------------------------------------------------------

def frucht_pair():
    h1 = normalize(frucht())
    phi = NodeRelabeling({str(i): str((i * 5 + 3) % 12) for i in range(12)})
    return h1, relabel(h1, phi), phi


def test_ir_anchored_frucht_zero_backtracks():
    h1, h2, phi = frucht_pair()
    a = align_wl_anchored(h1, h2, AnchorSet(node_pairs=(("0", phi["0"]),)))
    assert a is not None
    assert a.backtracks == 0
    assert a.cost <= 1e-12
    assert dict(a.mapping.pairs) == dict(phi.pairs)


def test_ir_unanchored_frucht():
    h1, h2, phi = frucht_pair()
    a = align_wl_anchored(h1, h2)
    assert a is not None
    assert a.backtracks <= 11  # at most the 12 root individualizations
    assert relabel(h1, a.mapping) == h2


def test_ir_wrong_anchor_is_no_isomorphism():
    h1, h2, phi = frucht_pair()
    wrong = phi[str(1)]
    assert align_wl_anchored(h1, h2, AnchorSet(node_pairs=(("0", wrong),))) is None


def test_ir_anchor_sweep_only_identity():
    h1 = normalize(frucht())
    h2 = normalize(frucht())
    found = [
        j
        for j in range(12)
        if align_wl_anchored(h1, h2, AnchorSet(node_pairs=(("0", str(j)),))) is not None
    ]
    assert found == [0]


def test_ir_non_isomorphic():
    assert align_wl_anchored(normalize(star(6)), normalize(chain(6))) is None


def test_ir_inconsistent_anchor():
    h = normalize(star(4))
    with pytest.raises(InconsistentAnchors):
        align_wl_anchored(h, h, AnchorSet(node_pairs=(("0", "1"),)))


def test_ir_anchor_across_weight_buckets():
    # Anchoring the two edges into one class leaves every cell balanced, though
    # their anchor-free colors differ from the start.
    e1, e2 = edge("a", "b", "c"), edge("x", "y", "z")
    with pytest.raises(InconsistentAnchors, match="mismatched refined colors"):
        align_wl_anchored(WeightedHypergraph({e1: 1.0}), WeightedHypergraph({e2: 2.0}),
                          AnchorSet(edge_pairs=((e1, e2),)))


def test_ir_unknown_anchor():
    h = normalize(star(4))
    with pytest.raises(InconsistentAnchors):
        align_wl_anchored(h, h, AnchorSet(node_pairs=(("9", "0"),)))


def test_ir_edge_anchors():
    h1, h2, phi = frucht_pair()
    e = h1.edge_set[0]
    a = align_wl_anchored(h1, h2, AnchorSet(edge_pairs=((e, phi.apply_edge(e)),)))
    assert a is not None and relabel(h1, a.mapping) == h2


def test_ir_rejects_leaves_whose_weights_drift_apart():
    # Neighbouring weights lie 0.8e-9 apart, under the tolerance, so all three
    # chain into one bucket; every leaf then pairs weights 1.6e-9 apart.
    h1 = WeightedHypergraph({edge("x", "y"): 1.0, edge("y", "z"): 1.0 + 0.8e-9})
    h2 = WeightedHypergraph({edge("a", "b"): 1.0 + 1.6e-9, edge("b", "c"): 1.0 + 1.6e-9})
    assert set(alignment._weight_buckets(h1, h2).values()) == {0}
    assert align_wl_anchored(h1, h2) is None
    assert align_wl_anchored(h1, relabel(h1, NodeRelabeling({"x": "a", "y": "b", "z": "c"}))) is not None


def test_ir_sound_against_exact():
    rng = random.Random(8)
    for _ in range(15):
        h1 = random_connected_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 4))
        phi = random_relabeling(rng, h1)
        h2 = relabel(h1, phi)
        nodes = h1.nodes
        anchor = nodes[rng.randrange(len(nodes))]
        a = align_wl_anchored(h1, h2, AnchorSet(node_pairs=((anchor, phi[anchor]),)))
        assert a is not None
        assert relabel(h1, a.mapping) == h2
        assert align_exact(h1, h2).cost <= 1e-12


def test_ir_handles_larger_hyperedges():
    h1 = normalize(
        WeightedHypergraph({edge("a", "b", "c"): 2.0, edge("c", "d"): 1.0})
    )
    phi = NodeRelabeling({"a": "p", "b": "q", "c": "r", "d": "s"})
    h2 = relabel(h1, phi)
    a = align_wl_anchored(h1, h2)
    assert a is not None
    assert relabel(h1, a.mapping) == h2


def test_ir_search_depth_does_not_use_the_call_stack():
    # The leaves of star(200) stay one color class until individualized one
    # by one: the search goes 198 individualizations deep.
    h1 = normalize(star(200))
    h2 = relabel(h1, random_relabeling(random.Random(9), h1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        a = align_wl_anchored(h1, h2)
    finally:
        sys.setrecursionlimit(limit)
    assert a is not None and a.cost == 0.0
    assert relabel(h1, a.mapping) == h2


def test_ir_aligns_star_1200():
    # Before the incremental partition this input took 20-26 s: every one of the
    # 1,198 individualizations refined both whole incidence graphs again.
    h1 = GeneratorSpec("star", 1200, None, 1.0, 10.0, 12).build()
    h2 = relabel(h1, random_relabeling(random.Random(12), h1))
    a = align_wl_anchored(h1, h2)
    assert a is not None and a.cost == 0.0 and a.backtracks == 0
    assert relabel(h1, a.mapping) == h2


# -- the partition against plain refinement and the old search ----------------------------
#
# ``_refine`` and ``_ir_search`` below are the whole-graph refinement and the
# dict-snapshot search that ``alignment._Partition`` replaced, kept verbatim as
# the reference, and ``_incidence`` and ``_number`` are the tagged-tuple
# incidence graph and the renumbering pass that the search once ran on, so the
# reference shares no numbering code with the search it checks;
# ``_leaf_alignment`` adapts their colorings to the shared leaf check.


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


def _number(adjs, colorings):
    """Integer vertices for one or more graphs: each side's sorted vertices, side after side.

    Returns the adjacency lists, the colors and each side's sorted vertices.
    """
    adj: list[list[int]] = []
    colors: list = []
    keys = [sorted(side) for side in adjs]
    for side_keys, side, coloring in zip(keys, adjs, colorings):
        index = {v: len(adj) + i for i, v in enumerate(side_keys)}
        adj += [[index[u] for u in side[v]] for v in side_keys]
        colors += [coloring[v] for v in side_keys]
    return adj, colors, keys


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


def _leaf_alignment(h1, h2, colors1, colors2, backtracks):
    def plain(v):
        tag, name = v
        return name if tag == "n" else Hyperedge.from_key(name)

    partner = {c: v for v, c in colors2.items()}
    pairs = [(plain(v), plain(partner[c])) for v, c in colors1.items()]
    return alignment._leaf_alignment(h1, h2, pairs, backtracks)


def test_leaf_alignment_rejects_a_node_paired_with_an_edge():
    h = chain(3)
    pairs = [("0", edge("0", "1")), ("1", "1"), ("2", "2")]
    assert alignment._leaf_alignment(h, h, pairs, 0) is None


def test_leaf_alignment_rejects_pairs_whose_edges_differ():
    h = chain(3)  # 0-1-2; swapping 0 and 1 maps it to 1-0-2
    assert alignment._leaf_alignment(h, h, [("0", "1"), ("1", "0"), ("2", "2")], 0) is None


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


def reference_align(h1, h2, anchors):
    """``align_wl_anchored`` as it ran on ``_refine`` and ``_ir_search``."""
    if h1.n != h2.n:
        raise SizeMismatch(f"node counts differ: {h1.n} vs {h2.n}")
    buckets = alignment._weight_buckets(h1, h2)
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


def search_outcome(align, h1, h2, anchors):
    try:
        a = align(h1, h2, anchors)
    except (SizeMismatch, InconsistentAnchors) as exc:
        return type(exc).__name__, str(exc)
    return None if a is None else (format_alignment(a), a.backtracks)


@st.composite
def search_inputs(draw):
    """Pairs on up to 7 nodes, relabeled or unrelated, with no, right or wrong anchors."""
    weights = st.sampled_from([1.0, 2.0])
    h1 = WeightedHypergraph({e: draw(weights) for e in draw(EDGE_LISTS)})
    if draw(st.booleans()):
        h2 = h1
    else:
        h2 = WeightedHypergraph({e: draw(weights) for e in draw(EDGE_LISTS)})
    targets = draw(st.permutations([f"y{i}" for i in range(h2.n)]))
    phi = NodeRelabeling(dict(zip(h2.nodes, targets)))
    h2 = relabel(h2, phi)
    anchored = draw(st.sampled_from(["none", "node", "edge"]))
    if anchored == "node":
        pairs = draw(st.lists(st.tuples(st.sampled_from(h1.nodes), st.sampled_from(h2.nodes)),
                              max_size=2, unique_by=(lambda p: p[0], lambda p: p[1])))
        anchors = AnchorSet(node_pairs=tuple(pairs))
    elif anchored == "edge":
        e1, e2 = draw(st.sampled_from(h1.edge_set)), draw(st.sampled_from(h2.edge_set))
        anchors = AnchorSet(edge_pairs=((e1, e2),))
    else:
        anchors = AnchorSet()
    return h1, h2, anchors


@settings(max_examples=200, deadline=None)
@given(search_inputs())
def test_anchored_search_matches_reference(case):
    h1, h2, anchors = case
    assert search_outcome(align_wl_anchored, h1, h2, anchors) == search_outcome(
        reference_align, h1, h2, anchors
    )


#: Tokens with characters that sort below ``+``: for edges over them the tuple
#: order and the ``key`` order disagree (``("a", "b") < ("a!", "b")`` but
#: ``"a!+b" < "a+b"``), so the search must number edges by ``key``.
KEY_ORDER_TOKENS = ("a", "a!", "a*", "b#", "c)")


@pytest.mark.parametrize("anchored", ["none", "node", "edge"])
def test_key_order_search_matches_reference(anchored):
    rng = random.Random(len(anchored))
    pool = [Hyperedge(c) for r in (2, 3) for c in combinations(KEY_ORDER_TOKENS, r)]
    assert sorted(pool) != sorted(pool, key=lambda e: e.key)
    for _ in range(60):
        h1 = WeightedHypergraph({e: rng.choice([1.0, 2.0]) for e in rng.sample(pool, rng.randint(1, 8))})
        phi = NodeRelabeling(dict(zip(h1.nodes, rng.sample(KEY_ORDER_TOKENS, h1.n))))
        h2 = relabel(h1, phi)
        if anchored == "node":
            v = rng.choice(h1.nodes)
            anchors = AnchorSet(node_pairs=((v, rng.choice([phi[v], rng.choice(h2.nodes)])),))
        elif anchored == "edge":
            e = rng.choice(h1.edge_set)
            anchors = AnchorSet(edge_pairs=((e, rng.choice([phi.apply_edge(e), rng.choice(h2.edge_set)])),))
        else:
            anchors = AnchorSet()
        assert search_outcome(align_wl_anchored, h1, h2, anchors) == search_outcome(
            reference_align, h1, h2, anchors
        )


@st.composite
def partition_inputs(draw):
    """One or two random graphs on up to 9 vertices, each with colors 0 to 2."""
    sides = []
    for size in (draw(st.integers(1, 9)), draw(st.integers(0, 9))):
        vertices = [f"v{i}" for i in range(size)]
        pairs = draw(st.sets(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
                             .filter(lambda p: p[0] < p[1]))) if size > 1 else set()
        adj = {v: [] for v in vertices}
        for a, b in sorted(pairs):
            adj[a].append(b)
            adj[b].append(a)
        sides.append((adj, {v: draw(st.integers(0, 2)) for v in vertices}))
    if not sides[1][0]:
        del sides[1]
    return [adj for adj, _ in sides], [colors for _, colors in sides], draw(st.randoms())


def check_partition(part):
    """Labels are offsets, and the per-cell records agree with the members."""
    offset = 0
    for c in part.cells:
        assert part.label[c] == offset
        assert all(part.cell_of[v] == c for v in part.members[c])
        assert part.size1[c] == sum(v < part.side1 for v in part.members[c])
        offset += len(part.members[c])
    assert offset == len(part.adj)
    assert sorted(part.cells) == list(range(len(part.members)))


def partition_colors(part, keys):
    """Each side's color ids, read as the rank of a vertex's cell."""
    rank = {c: r for r, c in enumerate(part.cells)}
    start, colorings = 0, []
    for side_keys in keys:
        colorings.append({v: rank[part.cell_of[start + i]] for i, v in enumerate(side_keys)})
        start += len(side_keys)
    return colorings


@settings(max_examples=200, deadline=None)
@given(partition_inputs())
def test_partition_matches_plain_refinement(case):
    adjs, colorings, rnd = case
    adj, colors, keys = _number(adjs, colorings)
    side1 = len(keys[0])
    part = alignment._Partition(adj, colors, side1)
    expected = _refine(adjs, colorings)
    check_partition(part)
    assert partition_colors(part, keys) == expected
    if len(keys) == 1:
        return
    # Individualize pairs from cells with two or more first-graph vertices, with
    # colors that fall inside and past the class count, then undo step by step.
    history = []
    for _ in range(4):
        cells = [c for c in part.cells if part.size1[c] > 1 and len(part.members[c]) > part.size1[c]]
        if not cells:
            break
        c = rnd.choice(cells)
        cell = sorted(part.members[c])  # first-graph vertices first
        v1, v2 = rnd.choice(cell[:part.size1[c]]), rnd.choice(cell[part.size1[c]:])
        color = rnd.randrange(len(part.cells) + 2)
        history.append((len(part.trail), expected))
        part.individualize(v1, v2, color)
        colors1, colors2 = expected
        k1, k2 = keys[0][v1], keys[1][v2 - side1]
        expected = _refine(adjs, ({**colors1, k1: color}, {**colors2, k2: color}))
        check_partition(part)
        assert partition_colors(part, keys) == expected
    for mark, before in reversed(history):
        part.undo(mark)
        check_partition(part)
        assert partition_colors(part, keys) == before


def test_partition_undo_restores_a_new_cell_and_a_join_of_the_own_cell():
    """A pair goes into a new last cell, then a pair into its own cell's rank; each undo restores every record."""
    cycle = {f"v{i}": [f"v{(i - 1) % 6}", f"v{(i + 1) % 6}"] for i in range(6)}
    adjs = [cycle, cycle]
    expected = [dict.fromkeys(cycle, 0)] * 2
    adj, colors, keys = _number(adjs, expected)
    part = alignment._Partition(adj, colors, len(keys[0]))

    def records():
        return part.cells[:], part.label[:], [set(m) for m in part.members], part.size1[:], part.cell_of[:]

    history = []
    for v1, v2 in ((0, 6), (1, 7)):  # v0 of each side, then v1 of each side
        color = part.cells.index(part.cell_of[v1]) if history else len(part.cells)
        history.append((len(part.trail), records()))
        part.individualize(v1, v2, color)
        colors1, colors2 = expected
        expected = _refine(adjs, ({**colors1, keys[0][v1]: color}, {**colors2, keys[1][v2 - 6]: color}))
        check_partition(part)
        assert partition_colors(part, keys) == expected
    for mark, before in reversed(history):
        part.undo(mark)
        check_partition(part)
        assert records() == before


def cycles(*lengths, start=0):
    """A disjoint union of equal-weight cycles, numbered one after the other from ``start``."""
    edges = []
    for n in lengths:
        edges += [(Hyperedge((str(start + i), str(start + (i + 1) % n))), 1.0) for i in range(n)]
        start += n
    return WeightedHypergraph(edges)


DEEP_SEARCH_INPUTS = {
    "star8": star(8), "star30": star(30),
    "chain9": chain(9), "chain40": chain(40),
    "x13": x_graph(13), "x40": x_graph(40),
    "c3": cycles(3), "c12": cycles(12), "c40": cycles(40),
    "c3+c3": cycles(3, 3), "c3+c5": cycles(3, 5), "c4+c4+c4": cycles(4, 4, 4),
    "c3+c4+c5": cycles(3, 4, 5), "c5+c6": cycles(5, 6), "c5x3+c6x3": cycles(5, 5, 5, 6, 6, 6),
    "c3..c8": cycles(3, 4, 5, 6, 7, 8), "c9+c10+c10+c11": cycles(9, 10, 10, 11),
    "c10x4": cycles(10, 10, 10, 10), "c8x5": cycles(8, 8, 8, 8, 8),
    # The ends of chain(3) form one refined class of two nodes a side, next to
    # cycles that keep the search branching.
    "p3+c4": WeightedHypergraph([*chain(3).edges.items(), *cycles(4, start=3).edges.items()]),
    "p3+c3+c5": WeightedHypergraph([*chain(3).edges.items(), *cycles(3, 5, start=3).edges.items()]),
    # Individualizing a chain anchor on the anchor-free refinement, instead of
    # before refining from scratch, gives the same classes in another order here,
    # and the search then finds another mapping.
    "p6+c6": WeightedHypergraph([*chain(6).edges.items(), *cycles(6, start=6).edges.items()]),
}


@pytest.mark.parametrize("anchored", ["none", "right", "wrong", "ends", "crossed"])
@pytest.mark.parametrize("name", list(DEEP_SEARCH_INPUTS))
def test_deep_search_matches_reference(name, anchored):
    # These inputs stay symmetric after refinement, so the search individualizes
    # many levels deep; on unions of cycles of different lengths it backtracks
    # through undo. The "ends" and "crossed" anchors pair nodes 0 and 2, which on
    # the "p3+" inputs share an anchor-free refined class of exactly two pairs.
    h1 = DEEP_SEARCH_INPUTS[name]
    phi = random_relabeling(random.Random(len(name)), h1)
    h2 = relabel(h1, phi)
    pairs = {"none": (), "right": ((h1.nodes[1], phi[h1.nodes[1]]),),
             "wrong": ((h1.nodes[1], phi[h1.nodes[-1]]),),
             "ends": (("0", phi["0"]), ("2", phi["2"])),
             "crossed": (("0", phi["2"]), ("2", phi["0"]))}[anchored]
    anchors = AnchorSet(node_pairs=pairs)
    assert search_outcome(align_wl_anchored, h1, h2, anchors) == search_outcome(
        reference_align, h1, h2, anchors
    )


def test_anchored_search_builds_one_partition(monkeypatch):
    # Consistent anchors need no anchor-free refinement: the search starts from
    # the one anchored refinement.
    builds = 0
    init = alignment._Partition.__init__

    def counting(self, *args):
        nonlocal builds
        builds += 1
        init(self, *args)

    monkeypatch.setattr(alignment._Partition, "__init__", counting)
    h1 = DEEP_SEARCH_INPUTS["p3+c3+c5"]
    phi = random_relabeling(random.Random(1), h1)
    anchors = AnchorSet(node_pairs=(("0", phi["0"]), ("3", phi["3"])))
    assert align_wl_anchored(h1, relabel(h1, phi), anchors) is not None
    assert builds == 1


@pytest.mark.parametrize("name, anchored, message", [
    ("star8", "none", "30 incidence vertices, 6 individualizations, depth 6, 0 backtracks"),
    ("c3+c4+c5", "none", "48 incidence vertices, 17 individualizations, depth 6, 11 backtracks"),
    ("c3+c5", "wrong", "32 incidence vertices, 0 individualizations, depth 0, 0 backtracks"),
])
def test_anchored_search_logs_one_record(caplog, name, anchored, message):
    h1 = DEEP_SEARCH_INPUTS[name]
    phi = random_relabeling(random.Random(len(name)), h1)
    pairs = {"none": (), "wrong": ((h1.nodes[1], phi[h1.nodes[-1]]),)}[anchored]
    with caplog.at_level(logging.INFO, logger="hgrec.alignment"):
        align_wl_anchored(h1, relabel(h1, phi), AnchorSet(node_pairs=pairs))
    [record] = caplog.records
    assert (record.name, record.levelno) == ("hgrec.alignment", logging.INFO)
    assert record.getMessage() == f"anchored search: {message}"


def leaf_individualization_reads(n: int) -> int:
    """Adjacency entries read to individualize one leaf pair of relabeled ``star(n)`` into a fresh class."""
    reads = 0

    class Counting(list):
        def __iter__(self):
            nonlocal reads
            reads += len(self)
            return super().__iter__()

    h1 = star(n)
    h2 = relabel(h1, random_relabeling(random.Random(n), h1))
    buckets = alignment._weight_buckets(h1, h2)
    number1, adj1, init1 = alignment._incidence(h1, buckets, 0)
    _, adj2, init2 = alignment._incidence(h2, buckets, len(adj1))
    ids = {k: i for i, k in enumerate(sorted(set(init1) | set(init2)))}
    colors = [ids[k] for k in init1 + init2]
    part = alignment._Partition([Counting(nbrs) for nbrs in adj1 + adj2], colors, len(adj1))
    v1 = number1["1"]
    v2 = next(v for v in part.members[part.cell_of[v1]] if v >= part.side1)
    reads = 0
    part.individualize(v1, v2, len(part.cells))
    check_partition(part)
    return reads


def test_individualizing_a_leaf_reads_no_hub():
    # Both hubs share one cell whose members still agree after a leaf pair moves,
    # so the work must not grow with the hubs' degree.
    assert leaf_individualization_reads(100) == leaf_individualization_reads(400)


@pytest.mark.parametrize("parse, text, line", [
    (parse_node_mapping, "a x\nb\n", 2),
    (parse_node_mapping, "a x\nb y+z\n", 2),
    (parse_anchor_file, "node a x\nedge a+b c\n", 2),
    (parse_anchor_file, "# anchors\nnode a\n", 2),
    (parse_anchor_file, "node a x\nnode a+b y\n", 2),
    (parse_anchor_file, "# anchors\nnode _ 0\n", 2),
    (parse_edge_pairs, "\n# pairs\na+b x\n", 3),
])
def test_alignment_readers_name_the_line(parse, text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_number == line


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([parse_node_mapping, parse_anchor_file, parse_edge_pairs]), READER_TEXTS)
def test_alignment_readers_parse_or_name_a_line(parse, text):
    try:
        parse(text)
    except HgrecError as exc:
        found = re.match(r"line (\d+): ", str(exc))
        assert found and 1 <= int(found[1]) <= text.count("\n") + 1


@pytest.mark.parametrize("parse, text, message", [
    (parse_node_mapping, "a x\nb y\na z\n", "line 3: node 'a' mapped to both 'x' and 'z'"),
    (parse_node_mapping, "# phi\na x\nb x\n", "line 3: nodes 'a' and 'b' both mapped to 'x'"),
    (parse_anchor_file, "node a x\nnode a y\n", "line 2: node 'a' is anchored twice"),
    (parse_anchor_file, "node a x\n\nnode b x\n", "line 3: node 'x' is anchored twice"),
    (parse_anchor_file, "edge a+b c+d\nedge b+a e+f\n", "line 2: edge 'b+a' is anchored twice"),
])
def test_alignment_readers_name_the_repeated_line(parse, text, message):
    with pytest.raises(NotABijection) as exc:
        parse(text)
    assert str(exc.value) == message


def test_node_mapping_accepts_an_exact_repeat():
    assert parse_node_mapping("a x\nb y\na x\n").pairs == (("a", "x"), ("b", "y"))


def test_anchor_file_accepts_an_exact_repeat():
    anchors = parse_anchor_file("node a x\nedge a+b x+y\nnode a x\nedge b+a y+x\nnode b y\n")
    assert anchors.node_pairs == (("a", "x"), ("b", "y"))
    assert anchors.edge_pairs == ((edge("a", "b"), edge("x", "y")),)


def test_anchor_file_same_vertex_on_opposite_sides_is_no_conflict():
    assert parse_anchor_file("node a b\nnode b a\n").node_pairs == (("a", "b"), ("b", "a"))


@pytest.mark.parametrize("text, message", [
    ("node a x\nnode a x\nnode a y\n", "line 3: node 'a' is anchored twice"),
    ("edge a+b x+y\nedge a+b x+y\n\nedge c+d x+y\n", "line 4: edge 'x+y' is anchored twice"),
])
def test_anchor_file_conflicting_repeat_names_the_line(text, message):
    with pytest.raises(NotABijection) as exc:
        parse_anchor_file(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("a+b\n", "line 1: expected '<e1-key> <e2-key>', got 'a+b'"),
    ("# pairs\na+b x+y\na+c x+z b+c\n", "line 3: expected '<e1-key> <e2-key>', got 'a+c x+z b+c'"),
])
def test_edge_pairs_need_two_fields(text, message):
    with pytest.raises(ParseError) as exc:
        parse_edge_pairs(text)
    assert str(exc.value) == message


def test_anchor_set_rejects_duplicates():
    with pytest.raises(NotABijection):
        AnchorSet(node_pairs=(("a", "x"), ("a", "y")))
    ab, bc, xy = edge("a", "b"), edge("b", "c"), edge("x", "y")
    for edge_pairs in (((ab, xy), (ab, edge("y", "z"))), ((ab, xy), (bc, xy))):
        with pytest.raises(NotABijection, match="an edge appears twice"):
            AnchorSet(edge_pairs=edge_pairs)


# -- dataset fusion ---------------------------------------------------------------------------

def test_fuse_identity_with_empty_d2():
    d1 = Dataset((edge("a", "b"), edge("a", "c")))
    phi = NodeRelabeling.identity(("a", "b", "c"))
    assert fuse_datasets(d1, Dataset(()), phi).samples == d1.samples


def test_fuse_length():
    d1 = Dataset((edge("a", "b"),) * 3)
    d2 = Dataset((edge("x", "y"),) * 4)
    phi = NodeRelabeling({"a": "x", "b": "y"})
    assert fuse_datasets(d1, d2, phi).n == 7


def test_fuse_definitional_equality():
    d1 = Dataset((edge("a", "b"), edge("a", "c"), edge("a", "b")))
    d2 = Dataset((edge("x", "y"), edge("x", "z")))
    phi = NodeRelabeling({"a": "x", "b": "y", "c": "z"})
    fused = fuse_datasets(d1, d2, phi)
    manual = Dataset(tuple(phi.apply_edge(e) for e in d1.samples) + d2.samples)
    assert fused.samples == manual.samples
    assert recover_from_dataset(fused).edges == recover_from_dataset(manual).edges


def test_fuse_incomplete_mapping():
    d1 = Dataset((edge("a", "b"),))
    with pytest.raises(IncompleteMapping):
        fuse_datasets(d1, Dataset(()), NodeRelabeling({"a": "x"}))


def test_fuse_skips_undrawn_edges_and_relabels_drawn_ones_once():
    h = normalize(WeightedHypergraph({edge("a", "b"): 1.0, edge("a", "c"): 1.0, edge("c", "d"): 1e-9}))
    d1 = sample_dataset(h, 50, seed=3)
    assert edge("c", "d") in d1.table and edge("c", "d") not in d1.samples
    phi = NodeRelabeling({"a": "x", "b": "y", "c": "z"})  # no image for d
    d2 = Dataset((edge("x", "y"), edge("q", "r")))
    fused = fuse_datasets(d1, d2, phi)
    assert fused == Dataset(tuple(phi.apply_edge(e) for e in d1.samples) + d2.samples)
    assert fused.counts() == {edge("x", "y"): d1.counts()[edge("a", "b")] + 1,
                              edge("x", "z"): d1.counts()[edge("a", "c")], edge("q", "r"): 1}


def test_fuse_names_the_first_unmapped_node_of_the_samples():
    d1 = Dataset((edge("a", "b"), edge("c", "d"), edge("a", "e")))
    with pytest.raises(IncompleteMapping, match="'c'"):
        fuse_datasets(d1, Dataset(()), NodeRelabeling({"a": "x", "b": "y"}))


# -- text helpers ---------------------------------------------------------------------------

def test_alignment_text_round_trip():
    phi = NodeRelabeling({"a": "x", "b": "y"})
    text = format_alignment(Alignment(mapping=phi, cost=0.0))
    assert text.endswith("#cost 0\n")
    assert parse_node_mapping(text).pairs == phi.pairs


def test_anchor_file_round_trip():
    text = "node a x\nedge a+b x+y\n# comment\n"
    anchors = parse_anchor_file(text)
    assert anchors.node_pairs == (("a", "x"),)
    assert anchors.edge_pairs == ((edge("a", "b"), edge("x", "y")),)


def test_edge_pairs_file():
    assert parse_edge_pairs("a+b x+y\n") == ((edge("a", "b"), edge("x", "y")),)

