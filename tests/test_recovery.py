import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hgrec import (
    ALL_PAIRS,
    Dataset,
    ExactOracle,
    Hyperedge,
    MaskedHyperedge,
    MetaGraph,
    MMDataset,
    NodeRelabeling,
    TabularOracle,
    WeightedHypergraph,
    bf_weight_estimation,
    dissimilarity,
    edge,
    normalize,
    recover_from_dataset,
    recover_from_oracle,
    recovery_report,
    sample_mm_dataset,
    train_tabular,
    uniform_single_mask,
)
from hgrec.core import encode
from hgrec.errors import EmptyDataset, NothingRecovered, NotABijection, UndefinedRatio
from hgrec.generators import star
from conftest import EDGE_LISTS, HideOneOrTwo, random_connected_graph

STRATEGY = uniform_single_mask()

E_AB, E_AC, E_BC = edge("a", "b"), edge("a", "c"), edge("b", "c")
TWO_EDGE = WeightedHypergraph({E_AB: 0.25, E_AC: 0.75}, normalized=True)

STAR4_WEIGHTED = WeightedHypergraph(
    {edge("0", "1"): 0.5, edge("0", "2"): 0.3, edge("0", "3"): 0.2}, normalized=True
)


# -- plug-in path -------------------------------------------------------------------

def test_plugin_count_ratio():
    d = Dataset((E_AB, E_AB, E_AB, E_AC))
    h = recover_from_dataset(d)
    assert h.weight(E_AB) == 0.75 and h.weight(E_AC) == 0.25
    assert h.normalized


def test_plugin_single_edge():
    h = recover_from_dataset(Dataset((E_AB, E_AB)))
    assert h.edges == {E_AB: 1.0}


def test_plugin_even_split():
    h = recover_from_dataset(Dataset((E_AB, E_AC)))
    assert h.weight(E_AB) == 0.5 and h.weight(E_AC) == 0.5


def test_plugin_empty():
    with pytest.raises(EmptyDataset):
        recover_from_dataset(Dataset(()))


def test_plugin_weights_are_exact_frequencies():
    rng = random.Random(0)
    truth = random_connected_graph(rng, 6, extra=2)
    from hgrec import sample_dataset

    d = sample_dataset(truth, 997, seed=3)
    h = recover_from_dataset(d)
    counts = d.counts()
    for e, w in h.edges.items():
        assert int(round(w * d.n)) == counts[e]


# -- oracle path -----------------------------------------------------------------------

def test_exact_oracle_star4():
    oracle = ExactOracle(STAR4_WEIGHTED, STRATEGY)
    recovered, connected = recover_from_oracle(oracle, ALL_PAIRS, STRATEGY)
    assert connected
    assert dissimilarity(recovered, STAR4_WEIGHTED) <= 1e-9


def test_empty_tabular_oracle():
    oracle = train_tabular(MMDataset(()).counts())
    with pytest.raises(NothingRecovered):
        recover_from_oracle(oracle, [E_AB, E_AC], STRATEGY)


def test_disconnected_components():
    h = WeightedHypergraph({edge("a", "b"): 0.4, edge("c", "d"): 0.6}, normalized=True)
    recovered, connected = recover_from_oracle(ExactOracle(h, STRATEGY), ALL_PAIRS, STRATEGY)
    assert not connected
    assert recovered.weight(edge("a", "b")) == pytest.approx(0.5, abs=1e-12)
    assert recovered.weight(edge("c", "d")) == pytest.approx(0.5, abs=1e-12)
    assert recovery_report(recovered, h, meta_connected=connected).weighted_error == pytest.approx(
        0.2, abs=1e-12
    )


def test_phase1_drops_non_edges():
    oracle = ExactOracle(STAR4_WEIGHTED, STRATEGY)
    recovered, _ = recover_from_oracle(oracle, ALL_PAIRS, STRATEGY)
    assert set(recovered.edge_set) == set(STAR4_WEIGHTED.edge_set)


def test_explicit_candidates():
    oracle = ExactOracle(STAR4_WEIGHTED, STRATEGY)
    cands = [edge("0", "1"), edge("0", "2"), edge("0", "3"), edge("1", "2")]
    recovered, _ = recover_from_oracle(oracle, cands, STRATEGY)
    assert dissimilarity(recovered, STAR4_WEIGHTED) <= 1e-9


def walk(e_init, edges, oracle, strategy, w_tilde):
    """The weight walk over the incidence of ``edges`` and the oracle's whole belief table."""
    beliefs = {form: oracle.query(form) for form in oracle.forms()}
    return bf_weight_estimation(e_init, MetaGraph.over(edges, strategy), beliefs, strategy, w_tilde)


class CountingOracle:
    """Forwards ``forms`` and ``query``, counts the queries and refuses ``known_nodes``."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = 0

    def forms(self):
        return self.inner.forms()

    def query(self, masked):
        self.queries += 1
        return self.inner.query(masked)

    def known_nodes(self):
        raise AssertionError("recovery read known_nodes()")


@pytest.mark.parametrize("oracle", [
    ExactOracle(STAR4_WEIGHTED, STRATEGY),
    ExactOracle(WeightedHypergraph({E_AB: 0.4, edge("c", "d"): 0.6}, normalized=True), STRATEGY),
    train_tabular(sample_mm_dataset(normalize(star(5)), 200, 2, STRATEGY, seed=1).counts()),
], ids=["star4", "two-components", "tabular-star5"])
def test_all_pairs_recovery_queries_each_form_once(oracle):
    counting = CountingOracle(oracle)
    actual = recovery_outcome(recover_from_oracle, counting, ALL_PAIRS, STRATEGY)
    assert actual == recovery_outcome(recover_from_oracle, oracle, ALL_PAIRS, STRATEGY)
    assert counting.queries == len(oracle.forms())


def supports_read(truth, candidates):
    """The distinct edges whose support ``recover_from_oracle`` asks its strategy for."""
    oracle = ExactOracle(truth, uniform_single_mask())  # its own reads go to another instance
    strategy = uniform_single_mask()
    asked = set()
    support = strategy.support

    def counting(e):
        asked.add(e)
        return support(e)

    strategy.support = counting
    recover_from_oracle(oracle, candidates, strategy)
    return asked


def test_phase1_reads_the_supports_of_the_candidates_only():
    # star(400) holds 399 believed edges; recovery of 3 of them reads 3 supports.
    truth = normalize(star(400))
    assert supports_read(truth, truth.edge_set[:3]) == set(truth.edge_set[:3])


def test_all_pairs_phase1_reads_no_support_of_a_larger_edge():
    # ALL_PAIRS wants 2-node edges, so the believed 3-node edge's support is never read.
    e_cde = edge("c", "d", "e")
    truth = normalize(WeightedHypergraph({E_AB: 1.0, E_BC: 2.0, e_cde: 3.0}))
    assert supports_read(truth, ALL_PAIRS) == {E_AB, E_BC}


def probe_recover_from_oracle(oracle, candidates, strategy):
    """Reference: recovery whose phase 1 builds every candidate and probes each of its forms."""
    if isinstance(candidates, str):
        if candidates != ALL_PAIRS:
            raise ValueError(f"unknown candidate set {candidates!r}")
        nodes = oracle.known_nodes()
        cand = tuple(Hyperedge(pair) for pair in combinations(nodes, 2))
    else:
        cand = tuple(sorted(set(candidates)))
        if not cand:
            raise NothingRecovered("empty candidate set")
    kept = [
        e
        for e in cand
        if any((oracle.query(form) or {}).get(e, 0.0) > 0.0 for form, _ in strategy.support(e))
    ]
    if not kept:
        raise NothingRecovered("no candidate hyperedge has positive belief under the oracle")

    support = {e: {f for f, _ in strategy.support(e)} for e in kept}
    components: list[list[Hyperedge]] = []
    for e in kept:
        if any(e in comp for comp in components):
            continue
        reachable, frontier = {e}, [e]
        while frontier:
            frontier = [u for v in frontier for u in kept if support[u] & support[v] and u not in reachable]
            reachable.update(frontier)
        components.append(sorted(reachable))
    w_tilde: dict[Hyperedge, float] = {e: 0.0 for e in kept}
    for comp in components:
        seed = comp[0]
        w_tilde[seed] = 1.0
        walk(seed, comp, oracle, strategy, w_tilde)
    total = sum(w_tilde.values())
    recovered = WeightedHypergraph(
        {e: w / total for e, w in w_tilde.items()}, normalized=True
    )
    return recovered, len(components) == 1


def recovery_outcome(recover, *args, **kwargs):
    """The encoded estimate and connected flag, or the error's type and message."""
    try:
        recovered, connected = recover(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return encode(recovered), connected


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_phase1_join_matches_per_candidate_probes(data):
    edges = data.draw(EDGE_LISTS)
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
    truth = normalize(WeightedHypergraph(dict(zip(edges, map(float, weights)))))
    # The oracle's masking may differ from the one recovery assumes, so some
    # completions are believed only under forms outside their recovery support.
    oracle_strategy = data.draw(st.sampled_from([STRATEGY, HideOneOrTwo()]))
    strategy = data.draw(st.sampled_from([STRATEGY, HideOneOrTwo()]))
    if data.draw(st.booleans()):
        oracle = ExactOracle(truth, oracle_strategy)
    else:
        n_outer = data.draw(st.integers(1, 40))
        k_inner = data.draw(st.integers(1, 2))
        seed = data.draw(st.integers(0, 2**16))
        oracle = train_tabular(sample_mm_dataset(truth, n_outer, k_inner, oracle_strategy, seed).counts())
    candidates = data.draw(
        st.one_of(
            st.just(ALL_PAIRS),
            st.just([]),
            # Mixed sizes, some the oracle never saw, plus some of the truth's edges.
            st.tuples(EDGE_LISTS, st.lists(st.sampled_from(edges))).map(lambda t: t[0] + t[1]),
        )
    )
    expected = recovery_outcome(probe_recover_from_oracle, oracle, candidates, strategy)
    actual = recovery_outcome(recover_from_oracle, oracle, candidates, strategy)
    assert actual == expected


# -- breadth-first weight propagation ------------------------------------------------------

def test_bf_two_edges():
    oracle = ExactOracle(TWO_EDGE, STRATEGY)
    w = {E_AB: 1.0, E_AC: 0.0}
    walk(E_AB, [E_AB, E_AC], oracle, STRATEGY, w)
    assert w[E_AC] == pytest.approx(3.0, abs=1e-12)


def test_bf_single_edge():
    h = WeightedHypergraph({E_AB: 1.0}, normalized=True)
    w = {E_AB: 1.0}
    walk(E_AB, [E_AB], ExactOracle(h, STRATEGY), STRATEGY, w)
    assert w == {E_AB: 1.0}


def test_bf_uniform_star():
    h = normalize(star(4))
    oracle = ExactOracle(h, STRATEGY)
    seed_edge = h.edge_set[0]
    w = {e: 0.0 for e in h.edge_set}
    w[seed_edge] = 1.0
    walk(seed_edge, h.edge_set, oracle, STRATEGY, w)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in w.values())


def test_bf_requires_unit_seed():
    oracle = ExactOracle(TWO_EDGE, STRATEGY)
    with pytest.raises(ValueError):
        walk(E_AB, [E_AB, E_AC], oracle, STRATEGY, {E_AB: 0.0, E_AC: 0.0})


def test_seed_edge_invariance():
    rng = random.Random(4)
    for _ in range(5):
        h = random_connected_graph(rng, 6, extra=2)
        oracle = ExactOracle(h, STRATEGY)
        outputs = []
        for seed_edge in h.edge_set:
            w = {e: 0.0 for e in h.edge_set}
            w[seed_edge] = 1.0
            walk(seed_edge, h.edge_set, oracle, STRATEGY, w)
            total = sum(w.values())
            outputs.append({e: v / total for e, v in w.items()})
        for other in outputs[1:]:
            assert all(abs(other[e] - outputs[0][e]) <= 1e-12 for e in outputs[0])


def test_bf_seed_outside_the_incidence_raises():
    e_xy = edge("x", "y")
    with pytest.raises(ValueError, match=r"^x\+y is not a vertex of the share-a-mask incidence$"):
        walk(e_xy, TWO_EDGE.edge_set, ExactOracle(TWO_EDGE, STRATEGY), STRATEGY, {e_xy: 1.0})


def tabular(counts: dict[str, dict[str, int]]) -> TabularOracle:
    """A count table keyed like the oracle JSON: ``{"a|1": {"a+b": 2}}``."""
    return TabularOracle({
        MaskedHyperedge.from_key(m): {Hyperedge.from_key(e): c for e, c in per.items()}
        for m, per in counts.items()
    })


def test_bf_uncarryable_pair_is_reached_later():
    # a|1 has no belief for ab, so neither ac nor ad is carried from the seed ab.
    # ac is reached through bc over c|1, then ad from ac over a|1, a form already read.
    e_ad = edge("a", "d")
    oracle = tabular({"a|1": {"a+c": 1, "a+d": 2}, "b|1": {"a+b": 1, "b+c": 1},
                      "c|1": {"a+c": 1, "b+c": 1}})
    edges = [E_AB, E_AC, e_ad, E_BC]
    w = {e: 0.0 for e in edges}
    w[E_AB] = 1.0
    walk(E_AB, edges, oracle, STRATEGY, w)
    assert w == pytest.approx({E_AB: 1.0, E_AC: 1.0, e_ad: 2.0, E_BC: 1.0}, abs=1e-12)
    recovered, connected = recover_from_oracle(oracle, edges, STRATEGY)
    assert connected
    assert recovered.weight(e_ad) == pytest.approx(0.4, abs=1e-12)


def test_bf_stranded_edge_raises():
    # ac is kept through c|1 but its only shared form a|1 has no belief for it.
    oracle = tabular({"a|1": {"a+b": 1}, "c|1": {"a+c": 1}})
    with pytest.raises(UndefinedRatio, match=r"a\+c"):
        walk(E_AB, [E_AB, E_AC], oracle, STRATEGY, {E_AB: 1.0, E_AC: 0.0})
    with pytest.raises(UndefinedRatio, match=r"a\+c"):
        recover_from_oracle(oracle, ALL_PAIRS, STRATEGY)


def test_stranded_edge_is_a_neighbour_of_the_walk():
    # From 2+4 the walk reads only 4+5, over 4|1, which has no belief for 4+5.
    # 3+5 is in the same component but shares no form with 2+4.
    oracle = tabular({"2|1": {"2+4": 2}, "4|1": {"2+4": 1}, "5|1": {"3+5": 2, "4+5": 2}})
    edges = [Hyperedge.from_key(k) for k in ("2+4", "3+5", "4+5")]
    with pytest.raises(UndefinedRatio, match=r"^4\+5 shares"):
        recover_from_oracle(oracle, edges, STRATEGY)


def test_weight_that_underflows_to_zero_is_stranded():
    # Each step scales the weight by about 1e-200, so c+d gets 1e-400 == 0.0.
    # It must raise rather than start a component of its own.
    big = 10**200
    oracle = tabular({"b|1": {"a+b": big, "b+c": 1}, "c|1": {"b+c": big, "c+d": 1}})
    edges = [edge("a", "b"), E_BC, edge("c", "d")]
    with pytest.raises(UndefinedRatio, match=r"^c\+d gets weight 0\.0 relative to a\+b"):
        recover_from_oracle(oracle, edges, STRATEGY)


BIG = 10**200


@pytest.mark.parametrize("counts, message", [
    # c+d's weight relative to a+b underflows to 0.0 during the walk.
    ({"b|1": {"a+b": BIG, "b+c": 1}, "c|1": {"b+c": BIG, "c+d": 1}},
     r"^c\+d gets weight 0\.0 relative to a\+b, outside the float range$"),
    # ... or overflows to inf.
    ({"b|1": {"a+b": 1, "b+c": BIG}, "c|1": {"b+c": 1, "c+d": BIG}},
     r"^c\+d gets weight inf relative to a\+b, outside the float range$"),
    # Each relative weight is finite, but b+c (1e-200) over the total (1e200) is 0.0.
    ({"a|1": {"a+b": 1, "a+x": BIG}, "b|1": {"a+b": BIG, "b+c": 1}},
     r"^b\+c normalizes to weight 0\.0, outside the float range$"),
    # Each relative weight is finite (1e308), but their sum is not.
    ({"a|1": {"a+b": 1, "a+x": 10**308}, "b|1": {"a+b": 1, "b+c": 10**308}},
     r"^a\+x has the largest weight, and the weights sum to inf$"),
], ids=["underflow", "overflow", "normalizes-to-zero", "sum-overflows"])
def test_float_range_failure_names_the_edge(counts, message):
    with pytest.raises(UndefinedRatio, match=message):
        recover_from_oracle(tabular(counts), ALL_PAIRS, STRATEGY)


def test_bf_several_shared_forms():
    # abc and abd share a|2 < a+b|1 < b|2; a|2 has no belief for abd.
    strategy = HideOneOrTwo()
    abc, abd = edge("a", "b", "c"), edge("a", "b", "d")
    oracle = tabular({"a|2": {"a+b+c": 1}, "a+b|1": {"a+b+c": 1, "a+b+d": 2},
                      "b|2": {"a+b+c": 1, "a+b+d": 8}})
    w = {abc: 1.0, abd: 0.0}
    walk(abc, [abc, abd], oracle, strategy, w)
    assert w[abd] == 2.0


@settings(max_examples=200, deadline=None)
@given(EDGE_LISTS)
def test_uniform1_edges_share_at_most_one_form(edges):
    # Why the walk needs only one ratio rule: under uniform1, e1 - {v} == e2 - {u}
    # with e1 != e2 fixes both hidden nodes, so the shared form is unique.
    for e1, e2 in combinations(edges, 2):
        shared = {f for f, _ in STRATEGY.support(e1)} & {f for f, _ in STRATEGY.support(e2)}
        assert len(shared) <= 1, (e1, e2, shared)


def pairwise_bf(e_init, edges, oracle, strategy, w):
    """Reference propagation over the (edge, edge) definition of the share-a-mask relation."""
    support = {e: {f for f, _ in strategy.support(e)} for e in edges}
    queue, head = [e_init], 0
    while head < len(queue):
        e = queue[head]
        head += 1
        for nb in edges:
            shared = sorted(support[e] & support[nb])
            if nb == e or not shared or w[nb] > 0.0:
                continue
            for form in shared:
                dist = oracle.query(form) or {}
                m_e, m_nb = dist.get(e, 0.0), dist.get(nb, 0.0)
                if m_e > 0.0 and m_nb > 0.0:
                    w[nb] = (strategy.prob(form, e) * m_nb) / (strategy.prob(form, nb) * m_e) * w[e]
                    queue.append(nb)
                    break
    reachable, frontier = {e_init}, [e_init]
    while frontier:
        frontier = [u for v in frontier for u in edges if support[u] & support[v] and u not in reachable]
        reachable.update(frontier)
    return w, any(w[e] <= 0.0 for e in reachable)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bf_matches_pairwise_definition(data):
    strategy = data.draw(st.sampled_from([STRATEGY, HideOneOrTwo()]))
    edges = sorted(data.draw(EDGE_LISTS))
    counts: dict = {}
    for e in edges:
        for form, _ in strategy.support(e):
            c = data.draw(st.integers(0, 3))
            if c:
                counts.setdefault(form, {})[e] = c
    oracle = TabularOracle(counts)
    w = {e: 0.0 for e in edges}
    w[edges[0]] = 1.0
    expected, stranded = pairwise_bf(edges[0], edges, oracle, strategy, dict(w))
    if stranded:
        with pytest.raises(UndefinedRatio):
            walk(edges[0], edges, oracle, strategy, w)
    else:
        walk(edges[0], edges, oracle, strategy, w)
        assert w == expected


# -- reports ----------------------------------------------------------------------------

def test_report_identity():
    rep = recovery_report(STAR4_WEIGHTED, STAR4_WEIGHTED)
    assert rep.weighted_error == 0.0
    assert rep.sketch_missing == () and rep.sketch_spurious == ()


def test_report_missing_edge_renormalized():
    # drop the 0.2 edge and renormalize the rest: d = 0.125 + 0.075 + 0.2 = 0.4
    partial = normalize(
        WeightedHypergraph({edge("0", "1"): 0.5, edge("0", "2"): 0.3})
    )
    rep = recovery_report(partial, STAR4_WEIGHTED)
    assert rep.weighted_error == pytest.approx(0.4, abs=1e-12)
    assert rep.sketch_missing == (edge("0", "3"),)
    assert rep.sketch_spurious == ()
    assert rep.per_edge_abs_error[edge("0", "3")] == pytest.approx(0.2, abs=1e-12)


def test_report_with_relabeling():
    phi = NodeRelabeling({"0": "0", "1": "2", "2": "1", "3": "3"})
    swapped = WeightedHypergraph(
        {edge("0", "2"): 0.5, edge("0", "1"): 0.3, edge("0", "3"): 0.2}, normalized=True
    )
    rep = recovery_report(swapped, STAR4_WEIGHTED, phi)
    assert rep.weighted_error == 0.0


def test_report_bad_relabeling():
    from hgrec.errors import IncompleteMapping

    with pytest.raises(NotABijection):
        NodeRelabeling({"0": "x", "1": "x"})
    with pytest.raises(IncompleteMapping):
        recovery_report(STAR4_WEIGHTED, STAR4_WEIGHTED, NodeRelabeling({"0": "0"}))


def test_report_json_fields():
    import json

    rep = recovery_report(STAR4_WEIGHTED, STAR4_WEIGHTED, meta_connected=False)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"d", "sketch_missing", "sketch_spurious", "meta_connected", "per_edge_abs_error"}
    assert doc["meta_connected"] is False


def test_exact_identity_on_random_graphs():
    rng = random.Random(6)
    for _ in range(8):
        h = random_connected_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 3))
        rec, connected = recover_from_oracle(ExactOracle(h, STRATEGY), ALL_PAIRS, STRATEGY)
        assert connected
        assert dissimilarity(rec, h) <= 1e-9
