import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrec import (
    ExactOracle,
    MaskedHyperedge,
    MMDataset,
    TabularOracle,
    WeightedHypergraph,
    edge,
    sample_mm_dataset,
    train_tabular,
    uniform_single_mask,
)
from hgrec.errors import HgrecError, NotNormalized
from hgrec.generators import assign_weights, star
from conftest import JSON_VALUES

STRATEGY = uniform_single_mask()

E_AB = edge("a", "b")
E_AC = edge("a", "c")
MASK_A = MaskedHyperedge(["a"], 1)

TWO_EDGE = WeightedHypergraph({E_AB: 0.25, E_AC: 0.75}, normalized=True)


def mm_of(records):
    return MMDataset(records)


# -- tabular training -----------------------------------------------------------

def test_train_count_ratio():
    oracle = train_tabular(mm_of([(E_AB, MASK_A)] * 3 + [(E_AC, MASK_A)]).counts())
    dist = oracle.query(MASK_A)
    assert dist == {E_AB: 0.75, E_AC: 0.25}


def test_train_empty():
    oracle = train_tabular(mm_of([]).counts())
    assert oracle.query(MASK_A) is None
    assert oracle.known_nodes() == ()


def test_train_single_record():
    oracle = train_tabular(mm_of([(E_AB, MASK_A)]).counts())
    assert oracle.query(MASK_A) == {E_AB: 1.0}


def test_tabular_unseen_mask():
    oracle = train_tabular(mm_of([(E_AB, MASK_A)]).counts())
    assert oracle.query(MaskedHyperedge(["b"], 1)) is None


# -- exact oracle ------------------------------------------------------------------

def test_exact_query_posterior():
    dist = ExactOracle(TWO_EDGE, STRATEGY).query(MASK_A)
    assert dist[E_AB] == pytest.approx(0.25, abs=1e-15)
    assert dist[E_AC] == pytest.approx(0.75, abs=1e-15)


def test_exact_single_edge():
    h = WeightedHypergraph({E_AB: 1.0}, normalized=True)
    oracle = ExactOracle(h, STRATEGY)
    assert oracle.query(MaskedHyperedge(["b"], 1)) == {E_AB: 1.0}


def test_exact_unsupported_mask():
    assert ExactOracle(TWO_EDGE, STRATEGY).query(MaskedHyperedge(["z"], 1)) is None


def test_exact_requires_normalized():
    with pytest.raises(NotNormalized):
        ExactOracle(star(4), STRATEGY)


def test_query_distributions_normalized():
    oracle = ExactOracle(assign_weights(star(6), 1.0, 10.0, seed=2), STRATEGY)
    for visible in ("0", "3"):
        dist = oracle.query(MaskedHyperedge([visible], 1))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for e in dist:
            assert visible in e


def test_forms_are_the_answered_forms_in_canonical_order():
    h = assign_weights(star(5), 1.0, 10.0, seed=2)
    supported = {f for e in h.edge_set for f, _ in STRATEGY.support(e)}
    trained = train_tabular(sample_mm_dataset(h, 60, 1, STRATEGY, seed=4).counts())
    for oracle, expected in ((ExactOracle(h, STRATEGY), supported), (trained, set(trained.counts))):
        forms = oracle.forms()
        assert list(forms) == sorted(expected)
        assert all(oracle.query(f) for f in forms)
    assert ExactOracle(h, STRATEGY).query(MaskedHyperedge(["1", "2"], 1)) is None
    assert TabularOracle().forms() == ()


# -- serialization -----------------------------------------------------------------------

def test_oracle_round_trip(tmp_path):
    h = assign_weights(star(5), 1.0, 10.0, seed=3)
    mm = sample_mm_dataset(h, 500, 2, STRATEGY, seed=4)
    oracle = train_tabular(mm.counts())
    path = tmp_path / "oracle.json"
    oracle.save(path)
    back = TabularOracle.load(path)
    assert back.counts == oracle.counts


def test_oracle_rejects_unknown_format():
    with pytest.raises(ValueError):
        TabularOracle.from_json('{"format": "v999", "counts": {}}')


@pytest.mark.parametrize("tail", [
    "",
    ', "counts": []',
    ', "counts": {"a|1": 3}',
    ', "counts": {"a|1": {"a+b": 2.5}}',
    ', "counts": {"a|1": {"a+b": "3"}}',
    ', "counts": {"a|1": {"a+b": true}}',
])
def test_oracle_rejects_malformed_counts(tail):
    with pytest.raises(ValueError, match="counts|count for"):
        TabularOracle.from_json('{"format": "hgrec-oracle-v1"' + tail + "}")


@pytest.mark.parametrize("counts, repeated", [
    ('{"a|1": {"a+b": 2, "b+a": 5}}', "completion key 'b\\+a'"),
    ('{"a|1": {"a+b": 2}, "a+a|1": {"a+c": 5}}', "masked key 'a\\+a\\|1'"),
])
def test_oracle_rejects_keys_with_one_canonical_form(counts, repeated):
    with pytest.raises(ValueError, match=repeated):
        TabularOracle.from_json('{"format": "hgrec-oracle-v1", "counts": ' + counts + "}")


@pytest.mark.parametrize("counts, message", [
    ('{"a|1": {"a+b": 0}}', "counts must be positive, got 0 for a+b"),
    ('{"a|1": {"a+b": 2, "a+c": -3}}', "counts must be positive, got -3 for a+c"),
    ('{"a|1": {"b+c": 2}}', "'a|1' is not a masked form of 'b+c'"),
    ('{"a|1": {"a+b+c": 2}}', "'a|1' is not a masked form of 'a+b+c'"),
])
def test_oracle_rejects_counts_it_cannot_hold(counts, message):
    with pytest.raises(ValueError) as err:
        TabularOracle.from_json('{"format": "hgrec-oracle-v1", "counts": ' + counts + "}")
    assert str(err.value) == message


# Oracle documents whose format, forms, completions and counts may each be wrong,
# any JSON value, and any text.
ORACLE_COUNTS = st.one_of(
    st.integers(1, 9),
    st.integers(1, 10**30),
    st.one_of(st.integers(-2, 0), st.floats(), st.booleans(), st.none(), st.text(max_size=2)),
)
# (form, completion) keys: five that fit, and a completion the form cannot hide, a key
# that does not parse, a bad token, a repeat of a+b and a form with a repeated node.
ORACLE_KEYS = st.sampled_from(
    [("a|1", "a+b"), ("a|1", "a+c"), ("b|1", "a+b"), ("|2", "b+c"), ("a+b|1", "a+b+c")] * 3
    + [("a|1", "b+c"), ("a|x", "a+b"), ("a|1", "a+_"), ("a|1", "b+a"), ("a+a|1", "a+b")]
)
ORACLE_TABLES = st.lists(st.tuples(ORACLE_KEYS, ORACLE_COUNTS), max_size=4).map(
    lambda entries: {form: {e: c for (f, e), c in entries if f == form} for (form, _), _ in entries}
)
ORACLE_DOCS = st.builds(
    lambda fmt, counts: json.dumps({"format": fmt, "counts": counts}),
    st.sampled_from(["hgrec-oracle-v1"] * 3 + ["v999"]),
    st.one_of(ORACLE_TABLES, JSON_VALUES),
)
ORACLE_TEXTS = st.one_of(st.text(), st.builds(json.dumps, JSON_VALUES), ORACLE_DOCS, ORACLE_DOCS)


@settings(max_examples=300, deadline=None)
@given(ORACLE_TEXTS)
def test_oracle_json_parses_or_raises_a_domain_error(text):
    """Any text reads as an oracle of positive integer counts that writes itself back, or raises a domain error."""
    try:
        oracle = TabularOracle.from_json(text)
    except (HgrecError, ValueError):
        return
    for masked, per in oracle.counts.items():
        for e, c in per.items():
            assert type(c) is int and c > 0 and masked.is_mask_of(e)
    assert TabularOracle.from_json(oracle.to_json()).to_json() == oracle.to_json()


@pytest.mark.parametrize("count", [0.5, 2.7, True, "3"])
def test_oracle_constructor_rejects_non_integer_counts(count):
    # 0.5 used to become a count of 0 (and a ZeroDivisionError on query), 2.7 a 2.
    with pytest.raises(ValueError) as err:
        TabularOracle({MaskedHyperedge(["0"], 1): {edge("0", "1"): count}})
    assert str(err.value) == f"count for '0+1' given '0|1' must be an integer, got {count!r}"


# -- consistency with the exact oracle ------------------------------------------------------

def test_tabular_converges_to_exact():
    h = assign_weights(star(6), 1.0, 10.0, seed=1)
    exact = ExactOracle(h, STRATEGY)
    medians = []
    for n in (1000, 10_000, 100_000, 1_000_000):
        gaps = []
        for s in range(3):
            mm = sample_mm_dataset(h, n, 1, STRATEGY, seed=17 * n + s)
            tab = train_tabular(mm.counts())
            worst = 0.0
            for masked, per in tab.counts.items():
                t_dist = tab.query(masked)
                e_dist = exact.query(masked)
                for e in per:
                    worst = max(worst, abs(t_dist[e] - e_dist[e]))
            gaps.append(worst)
        medians.append(float(np.median(gaps)))
    assert all(a > b for a, b in zip(medians, medians[1:]))
