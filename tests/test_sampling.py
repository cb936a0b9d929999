import copy
import pickle
import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrec import (
    Dataset,
    ExactOracle,
    Hyperedge,
    MaskedHyperedge,
    MMDataset,
    WeightedHypergraph,
    build_meta_graph,
    edge,
    line_graph,
    mm_path_length_bound,
    normalize,
    recover_from_oracle,
    sample_dataset,
    sample_mm_dataset,
    strategy_constants,
    train_tabular,
    uniform_single_mask,
)
from hgrec.core import _CHUNK
from hgrec.errors import EmptyHypergraph, NotNormalized, ParseError
from hgrec.generators import chain, star
from hgrec.rng import AliasSampler, derive_seed, rng_stream
from conftest import (
    EDGE_LISTS,
    HideOneOrTwo,
    HideOneUnequally,
    meta_neighbours,
    random_connected_graph,
    traced_peak,
    write_repeated_records,
)

STRATEGY = uniform_single_mask()


def wh(pairs, normalized=True):
    return WeightedHypergraph({edge(*tokens): w for tokens, w in pairs}, normalized=normalized)


# -- masked forms and the masking strategy ------------------------------------------

def test_masked_key_round_trip():
    m = MaskedHyperedge(["b", "a"], 2)
    assert m.key == "a+b|2"
    assert MaskedHyperedge.from_key("a+b|2") == m
    assert MaskedHyperedge.from_key("|1") == MaskedHyperedge([], 1)


def test_masked_form_is_a_tuple_that_survives_pickle_and_deepcopy():
    m = MaskedHyperedge(["b", "a"], 2)
    assert hash(m) == hash((m.visible, m.masked_count)) and m == (("a", "b"), 2)
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert type(twin) is MaskedHyperedge and twin == m and hash(twin) == hash(m)
        assert twin.visible == ("a", "b") and twin.masked_count == 2
    with pytest.raises(AttributeError):
        m.masked_count = 1


def test_masked_compatibility():
    m = MaskedHyperedge(["a"], 1)
    assert m.is_mask_of(edge("a", "b"))
    assert not m.is_mask_of(edge("b", "c"))
    assert not m.is_mask_of(edge("a", "b", "c"))


def test_uniform_single_mask_pair():
    support = dict(STRATEGY.support(edge("a", "b")))
    assert support == {
        MaskedHyperedge(["a"], 1): 0.5,
        MaskedHyperedge(["b"], 1): 0.5,
    }


def test_uniform_single_mask_triple():
    support = STRATEGY.support(edge("a", "b", "c"))
    assert len(support) == 3
    assert all(p == pytest.approx(1 / 3, abs=1e-15) for _, p in support)


@given(st.sets(st.text(alphabet="abcXYZ019-é", min_size=1, max_size=3), min_size=2, max_size=6))
def test_uniform_single_mask_matches_checked_forms(tokens):
    e = Hyperedge(tokens)
    expected = sorted((MaskedHyperedge((u for u in e if u != v), 1), 1.0 / len(e)) for v in e)
    assert uniform_single_mask().support(e) == tuple(expected)


def test_support_probabilities_sum_to_one():
    for e in (edge("a", "b"), edge("a", "b", "c"), edge("p", "q", "r", "s", "t")):
        assert sum(p for _, p in STRATEGY.support(e)) == pytest.approx(1.0, abs=1e-12)


def test_prob_outside_support_is_zero():
    assert STRATEGY.prob(MaskedHyperedge(["z"], 1), edge("a", "b")) == 0.0


# -- dataset sampling -----------------------------------------------------------------

def test_sample_single_edge():
    h = wh([(("a", "b"), 1.0)])
    d = sample_dataset(h, 50, seed=1)
    assert all(e == edge("a", "b") for e in d)


def test_sample_frequencies_concentrate():
    h = wh([(("a", "b"), 0.25), (("a", "c"), 0.75)])
    d = sample_dataset(h, 1_000_000, seed=2)
    counts = d.counts()
    # 6 sigma for a Bernoulli(0.25) mean at N=1e6 is ~0.0026 < 0.005
    assert counts[edge("a", "b")] / d.n == pytest.approx(0.25, abs=0.005)
    assert counts[edge("a", "c")] / d.n == pytest.approx(0.75, abs=0.005)


def test_sample_deterministic():
    h = normalize(star(6))
    assert sample_dataset(h, 100, seed=7).samples == sample_dataset(h, 100, seed=7).samples
    assert sample_dataset(h, 100, seed=7).samples != sample_dataset(h, 100, seed=8).samples


def test_sample_requires_normalized():
    with pytest.raises(NotNormalized):
        sample_dataset(star(6), 10, seed=0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: MaskedHyperedge(["a"], 0), ValueError, "masked_count must be >= 1, got 0"),
    (lambda: sample_dataset(normalize(star(3)), 0, seed=0), ValueError, "n_samples must be >= 1, got 0"),
    (lambda: sample_mm_dataset(star(3), 5, 1, STRATEGY, seed=0), NotNormalized,
     "sample_mm_dataset requires a normalized hypergraph"),
    (lambda: strategy_constants(WeightedHypergraph({}), STRATEGY), EmptyHypergraph, "no edges"),
    (lambda: derive_seed(-1, "t"), ValueError, "seed must be a 64-bit unsigned integer, got -1"),
    (lambda: derive_seed(2**64, "t"), ValueError, f"seed must be a 64-bit unsigned integer, got {2**64}"),
    (lambda: AliasSampler([]), ValueError, "probs must be a nonempty 1-d array"),
    (lambda: AliasSampler([[0.5]]), ValueError, "probs must be a nonempty 1-d array"),
    (lambda: AliasSampler([0.5, -0.5]), ValueError, "probs must be finite and nonnegative"),
    (lambda: AliasSampler([0.5, np.nan]), ValueError, "probs must be finite and nonnegative"),
    (lambda: AliasSampler([0.0, 0.0]), ValueError, "probs must have positive total mass"),
])
def test_draw_inputs_are_checked(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_empirical_max_gap_shrinks():
    from hgrec.generators import assign_weights

    h = assign_weights(star(6), 1.0, 10.0, seed=4)
    medians = []
    for n in (100, 1000, 10_000, 100_000):
        gaps = []
        for s in range(5):
            counts = sample_dataset(h, n, seed=1000 * n + s).counts()
            gaps.append(max(abs(counts.get(e, 0) / n - h.weight(e)) for e in h.edge_set))
        medians.append(float(np.median(gaps)))
    assert all(a > b for a, b in zip(medians, medians[1:]))


# -- masked-modeling sampling ------------------------------------------------------------

def test_mm_dataset_shape():
    h = normalize(star(6))
    mm = sample_mm_dataset(h, 20, 3, STRATEGY, seed=5)
    assert len(mm) == 60


def test_mm_masks_in_support():
    h = normalize(star(6))
    mm = sample_mm_dataset(h, 200, 2, STRATEGY, seed=6)
    for full, masked in mm:
        assert STRATEGY.prob(masked, full) > 0.0


def test_mm_single_mask_per_sample():
    h = normalize(star(6))
    mm = sample_mm_dataset(h, 100, 1, STRATEGY, seed=7)
    assert all(masked.masked_count == 1 for _, masked in mm)
    assert mm.outer_dataset(1).n == 100


def test_mm_deterministic():
    h = normalize(star(6))
    a = sample_mm_dataset(h, 50, 2, STRATEGY, seed=8)
    b = sample_mm_dataset(h, 50, 2, STRATEGY, seed=8)
    assert a.records == b.records


# -- file formats ----------------------------------------------------------------------

def test_ds_round_trip(tmp_path):
    h = normalize(star(5))
    d = sample_dataset(h, 30, seed=9)
    path = tmp_path / "x.ds"
    d.save(path)
    assert Dataset.load(path).samples == d.samples


@pytest.mark.parametrize("n_samples, seed", [(1, 0), (30, 9), (500, 11)])
def test_sample_dataset_matches_per_sample_reference(n_samples, seed):
    h = normalize(WeightedHypergraph({e: float(1 + i % 4) for i, e in enumerate(star(6).edge_set)}))
    idx = AliasSampler([h.weight(e) for e in h.edge_set]).draw(rng_stream(seed, "sample-dataset"), n_samples)
    expected = tuple(h.edge_set[i] for i in idx)
    d = sample_dataset(h, n_samples, seed)
    assert d.samples == tuple(d) == expected and d.n == len(d) == n_samples
    assert d.encode() == "".join(" ".join(e.nodes) + "\n" for e in expected)
    assert d.counts() == dict(Counter(expected))
    assert d == Dataset(expected) == Dataset.decode(d.encode())


def test_dataset_table_may_repeat_or_hold_unused_edges():
    ab, ac, bc = edge("a", "b"), edge("a", "c"), edge("b", "c")
    d = Dataset._from_columns([ab, ac, ab, bc], np.array([0, 2, 1, 0], dtype=np.int32))
    assert d.samples == (ab, ab, ac, ab) and d == Dataset((ab, ab, ac, ab))
    assert d.counts() == {ab: 3, ac: 1}
    assert d.encode() == "a b\na b\na c\na b\n"
    assert not d.ids.flags.writeable
    with pytest.raises(TypeError):
        hash(d)


def test_ds_decode_shares_repeated_lines_and_names_the_first_bad_one():
    d = Dataset.decode("1 0\n0  1\n\n0 1\n2 0\n")
    assert d.samples == (edge("0", "1"),) * 3 + (edge("0", "2"),)
    assert d.counts() == {edge("0", "1"): 3, edge("0", "2"): 1}
    assert d.encode() == "0 1\n0 1\n0 1\n0 2\n"
    with pytest.raises(ParseError, match=r"^line 3: "):
        Dataset.decode("0 1\n\n0 0\n0 1\n0 0\n0 1+2\n")


def test_mm_round_trip(tmp_path):
    h = normalize(star(5))
    mm = sample_mm_dataset(h, 10, 2, STRATEGY, seed=10)
    path = tmp_path / "x.mm"
    mm.save(path)
    back = MMDataset.load(path)
    assert back == mm


def test_mm_file_holds_the_records_and_outer_draws_take_k_from_the_caller(tmp_path):
    h = normalize(star(5))
    mm = sample_mm_dataset(h, 100, 3, STRATEGY, seed=12)
    path = tmp_path / "k3.mm"
    mm.save(path)
    back = MMDataset.load(path)
    assert back == mm and len(back) == 300
    outer = back.outer_dataset(3)
    assert outer.n == 100 and outer == mm.outer_dataset(3)
    assert outer.samples == tuple(full for full, _ in mm.records[::3])


@pytest.mark.parametrize("k_inner", [0, -1, 7])
def test_outer_dataset_needs_k_that_divides_the_records(k_inner):
    mm = sample_mm_dataset(normalize(star(5)), 10, 3, STRATEGY, seed=13)
    with pytest.raises(ValueError, match="k_inner must be >= 1 and divide the 30 records"):
        mm.outer_dataset(k_inner)


def test_record_datasets_of_different_kinds_are_not_equal():
    assert Dataset(()) != MMDataset(()) and Dataset(()) == Dataset(()) and MMDataset(()) == MMDataset(())


def reference_mm_sample(h, n_outer, k_inner, strategy, seed):
    """One record per loop step, drawing from the same streams as ``sample_mm_dataset``."""
    edges = h.edge_set
    outer = AliasSampler([h.weight(e) for e in edges]).draw(rng_stream(seed, "mm-outer"), n_outer)
    u = rng_stream(seed, "mm-mask").random((n_outer, k_inner))
    records = []
    for t in range(n_outer):
        support = strategy.support(edges[outer[t]])
        cdf = np.cumsum([p for _, p in support])
        for k in range(k_inner):
            pick = min(int(np.searchsorted(cdf, u[t, k], side="right")), len(support) - 1)
            records.append((edges[outer[t]], support[pick][0]))
    return tuple(records)


def reference_mm_encode(records):
    return "".join(
        " ".join(full.nodes) + "\t" + " ".join(list(masked.visible) + ["_"] * masked.masked_count) + "\n"
        for full, masked in records
    )


@settings(max_examples=100, deadline=None)
@given(EDGE_LISTS, st.integers(1, 40), st.integers(1, 3),
       st.sampled_from([STRATEGY, HideOneOrTwo(), HideOneUnequally()]))
def test_sample_mm_matches_per_record_loop(edges, n_outer, k_inner, strategy):
    h = normalize(WeightedHypergraph({e: float(1 + i % 3) for i, e in enumerate(sorted(edges))}))
    mm = sample_mm_dataset(h, n_outer, k_inner, strategy, seed=n_outer)
    expected = reference_mm_sample(h, n_outer, k_inner, strategy, seed=n_outer)
    assert mm.records == expected
    assert mm.encode() == reference_mm_encode(expected)
    assert mm.outer_dataset(k_inner).samples == tuple(full for full, _ in expected[::k_inner])


@pytest.mark.parametrize("k_inner", [1, 3])
def test_sample_mm_searches_do_not_grow_with_drawn_edges(monkeypatch, k_inner):
    """Edges of one support shape share their searches, so star(n) and star(4n) make the same number."""
    calls = []
    search = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    counts = []
    for n in (20, 80):
        h = normalize(star(n))
        calls.clear()
        mm = sample_mm_dataset(h, 40 * n, k_inner, STRATEGY, seed=n)
        counts.append(len(calls))
        assert set(mm.outer_dataset(k_inner).samples) == set(h.edge_set)
    assert counts[0] == counts[1]


@settings(max_examples=200, deadline=None)
@given(EDGE_LISTS, st.integers(1, 3), st.data())
def test_mm_records_round_trip_and_train_against_counter(edges, k_inner, data):
    table = [(e, f) for e in edges for f, _ in HideOneOrTwo().support(e)]
    n_outer = data.draw(st.integers(0, 10))
    records = tuple(data.draw(st.lists(st.sampled_from(table), min_size=n_outer * k_inner,
                                       max_size=n_outer * k_inner)))
    mm = MMDataset(records)
    text = mm.encode()
    assert text == reference_mm_encode(records)
    back = MMDataset.decode(text)
    assert back == mm and mm.records == records
    assert back.outer_dataset(k_inner).samples == tuple(full for full, _ in records[::k_inner])
    assert back.encode() == text
    expected: dict = {}
    for (full, masked), c in Counter(records).items():
        expected.setdefault(masked, {})[full] = c
    assert train_tabular(back.counts()).counts == expected
    assert train_tabular(mm.counts()).counts == expected


def test_mm_unshared_records_encode_like_shared():
    text = "0 1\t0 _\n" * 3 + "1 2\t2 _\n" + "0 1\t0 _\n"
    shared = MMDataset.decode(text)
    assert shared.records[0] is shared.records[1] is shared.records[4]
    unshared = MMDataset(
        [(edge("0", "1"), MaskedHyperedge(["0"], 1)) for _ in range(3)]
        + [(edge("1", "2"), MaskedHyperedge(["2"], 1)), (edge("0", "1"), MaskedHyperedge(["0"], 1))]
    )
    assert unshared.encode() == shared.encode() == text
    assert unshared == shared
    assert train_tabular(unshared.counts()).counts == train_tabular(shared.counts()).counts


def test_mm_decode_reports_first_occurrence_of_repeated_bad_line():
    good, bad, other_bad = "0 1\t0 _", "0 1\t2 _", "0 1\t0 1"
    text = "\n".join([good, "", good, bad, good, other_bad, bad, bad]) + "\n"
    with pytest.raises(ParseError, match=r"^line 4: "):
        MMDataset.decode(text)
    with pytest.raises(ParseError, match=r"^line 3: expected"):
        MMDataset.decode(f"{good}\n{good}\nno tab here\n{good}\nno tab here\n")


MM_LINES = ["0 1\t0 _", "1 0\t0 _", " 0  1\t 1 _ ", "1 2\t2 _", "0 1 2\t0 _ _", "", "  ",
            "0 1\t2 _", "0 1\t0 1", "no tab", "0 0\t0 _", "0 1\t0 +_", "é 1\té _"]


def assert_reads_match_decode(folder, cls, text: str) -> None:
    """``load`` and ``load_counts`` of ``text``'s bytes give what ``decode`` gives, or the same ``ParseError``."""
    path = folder / "records"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))

    def outcome(read):
        try:
            return read()
        except ParseError as exc:
            return str(exc)

    expected = outcome(lambda: cls.decode(text.replace("\r\n", "\n").replace("\r", "\n")))
    assert outcome(lambda: cls.load(path)) == expected
    assert outcome(lambda: cls.load_counts(path)) == (expected if isinstance(expected, str) else expected.counts())


def texts_of(lines: list[str]):
    """Texts of the given and random lines, each ended by LF, CR LF or CR, the last one maybe by nothing."""
    line = st.one_of(st.sampled_from(lines), st.text("01é \t_+", max_size=7))
    return st.builds(lambda ended, end: "".join(a + b for a, b in ended) + end,
                     st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"]))), st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(texts_of(MM_LINES))
def test_mm_load_counts_matches_decode(tmp_path_factory, text):
    """Within one chunk, ``load`` and ``load_counts`` read as ``decode`` does."""
    assert_reads_match_decode(tmp_path_factory.mktemp("mm"), MMDataset, text)


# Any text, and lines of tokens, slots, tabs, line ends the readers do not split
# on, a byte that is never UTF-8 and a surrogate that stands for no byte.
RECORD_TEXTS = st.one_of(
    st.text(),
    st.lists(
        st.lists(st.sampled_from([
            "0", "1", "2", "é", "_", "0+1", "a|1", "#", "\t", "\r", "\x85", "\u2028", "\x00", "\udcff", "\ud800",
        ]), max_size=5).map(" ".join),
        max_size=5,
    ).map("\n".join),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Dataset, MMDataset]), RECORD_TEXTS)
def test_record_readers_parse_or_name_a_line(tmp_path_factory, cls, text):
    """Any text decodes or raises a ``ParseError`` on one of its lines, and its file reads the same."""
    try:
        cls.decode(text)
    except ParseError as exc:
        assert 1 <= exc.line_number <= text.count("\n") + 1
    if "\ud800" not in text:  # only a surrogate that escapes a byte can be written to a file
        assert_reads_match_decode(tmp_path_factory.mktemp("fuzz"), cls, text)


DS_LINES = ["0 1", "1 0", " 0  1 ", "1 2 0", "", "  ", "0 0", "0", "0 _", "0 +1", "é 1", "0\t1"]


@settings(max_examples=200, deadline=None)
@given(texts_of(DS_LINES))
def test_ds_load_counts_matches_decode(tmp_path_factory, text):
    assert_reads_match_decode(tmp_path_factory.mktemp("ds"), Dataset, text)


def records_past_a_chunk(good: list[bytes]) -> list[bytes]:
    """The three ``good`` lines in turn, 8 bytes each, over one chunk and a bit."""
    return [good[i % 3] for i in range(_CHUNK // 8 + 20_000)]


SECOND_CHUNK = _CHUNK // 8 + 5_000  # a line number in the second chunk of ``records_past_a_chunk``
BAD_BYTE, BYTE_ERROR = b"0 1 \xff\n", "byte 0xff is not UTF-8"
# Per format: the class, three valid lines, a bad record and its error.
FORMATS = [
    (MMDataset, [b"0 1\t0 _\n", b"0 1\t1 _\n", b"1 2\t2 _\n"], b"0 1\t2 _\n", "'2|1' is not a masked form of '0+1'"),
    (Dataset, [b"0 1 2 3\n", b"1 2 3 4\n", b"2 3 4 5\n"], b"0 0\n", "a hyperedge needs at least 2 distinct nodes"),
]


@pytest.mark.parametrize("bad, first", [
    ({SECOND_CHUNK: "byte"}, SECOND_CHUNK),
    ({SECOND_CHUNK: "record", SECOND_CHUNK + 30: "record"}, SECOND_CHUNK),
    # a chunk's bytes are checked before its records, so the later bad byte wins
    ({SECOND_CHUNK: "record", SECOND_CHUNK + 9: "byte"}, SECOND_CHUNK + 9),
    # a bad record in an earlier chunk is reported before the bad byte
    ({10: "record", SECOND_CHUNK: "byte"}, 10),
])
def test_readers_name_the_line_in_a_later_chunk(tmp_path, bad, first):
    """``load`` and ``load_counts`` of both formats report the first bad line, chunk by chunk."""
    for cls, good, bad_record, record_error in FORMATS:
        lines = records_past_a_chunk(good)
        for num, kind in bad.items():
            lines[num - 1] = bad_record if kind == "record" else BAD_BYTE
        path = tmp_path / cls.__name__
        path.write_bytes(b"".join(lines))
        message = re.escape(record_error if bad[first] == "record" else BYTE_ERROR)
        for read in (cls.load, cls.load_counts):
            with pytest.raises(ParseError, match=rf"^line {first}: {message}$"):
                read(path)


@pytest.mark.parametrize("char, error", [
    ("\ud800", "character U+D800 is not UTF-8"),
    ("\udc7f", "character U+DC7F is not UTF-8"),  # just below the surrogates that escape a byte
    ("\udcff", "byte 0xff is not UTF-8"),  # what reading the byte 0xff leaves in the text
])
def test_decode_names_a_surrogate_that_escapes_no_byte(char, error):
    """Text given to ``decode`` may hold any surrogate; only U+DC80..U+DCFF stand for a byte."""
    for cls, good, _, _ in FORMATS:
        with pytest.raises(ParseError, match=rf"^line 2: {re.escape(error)}$"):
            cls.decode(good[0].decode("ascii") + f"0 1 {char}\n")


def test_mm_load_counts_adds_up_every_chunk(tmp_path):
    path = tmp_path / "d.mm"
    path.write_bytes(b"".join(records_past_a_chunk(FORMATS[0][1])))
    assert MMDataset.load_counts(path) == MMDataset.load(path).counts()


@pytest.mark.parametrize("cls, suffix", [(MMDataset, ".mm"), (Dataset, ".ds")])
def test_load_memory_does_not_grow_with_repeated_records(tmp_path, cls, suffix):
    """``load`` holds a chunk of lines, the distinct ones and 4 bytes a record, and ``load_counts`` a chunk of
    lines, the distinct ones and a tally of them: 4x the records, about the same peak."""
    write_repeated_records(tmp_path)
    small, big = tmp_path / f"small{suffix}", tmp_path / f"big{suffix}"
    tracemalloc.start()
    try:
        cls.load(small)  # the first call imports numpy
        for read in (cls.load, cls.load_counts):
            small_peak, big_peak = traced_peak(lambda: read(small)), traced_peak(lambda: read(big))
            assert big_peak <= 1.25 * small_peak, read.__name__
    finally:
        tracemalloc.stop()
    assert cls.load_counts(big) == {record: 4 * c for record, c in cls.load(small).counts().items()}


def test_mm_decode_merges_lines_that_spell_one_record():
    mm = MMDataset.decode("1 0\t0 _\n0  1\t0 _\n0 1\t0 _\n")
    assert set(mm.records) == {(edge("0", "1"), MaskedHyperedge(["0"], 1))}
    assert train_tabular(mm.counts()).counts == {MaskedHyperedge(["0"], 1): {edge("0", "1"): 3}}


def test_mm_decode_rejects_incompatible():
    with pytest.raises(ParseError):
        MMDataset.decode("0 1\t2 _\n")
    with pytest.raises(ParseError):
        MMDataset.decode("0 1\t0 1\n")


# -- meta-graph -----------------------------------------------------------------------

def test_meta_graph_star_is_complete():
    h = normalize(star(6))
    mg = build_meta_graph(h, STRATEGY)
    neighbours = meta_neighbours(mg)
    for e in mg.vertices:
        assert len(neighbours[e]) == len(mg.vertices) - 1
    assert mg.owners[MaskedHyperedge(["0"], 1)] == mg.vertices


def test_meta_graph_chain4_is_path():
    h = normalize(chain(4))
    mg = build_meta_graph(h, STRATEGY)
    assert mg.owners[MaskedHyperedge(["1"], 1)] == (edge("0", "1"), edge("1", "2"))
    assert mg.owners[MaskedHyperedge(["2"], 1)] == (edge("1", "2"), edge("2", "3"))
    assert mg.owners[MaskedHyperedge(["0"], 1)] == (edge("0", "1"),)
    assert mg.owners[MaskedHyperedge(["3"], 1)] == (edge("2", "3"),)


def test_meta_graph_disjoint():
    h = wh([(("a", "b"), 0.5), (("c", "d"), 0.5)])
    mg = build_meta_graph(h, STRATEGY)
    assert all(not nb for nb in meta_neighbours(mg).values())
    _, _, comps, _ = brute_force_meta_graph(mg.vertices, STRATEGY)
    assert len(comps) == 2
    oracle = ExactOracle(normalize(h), STRATEGY)
    assert recover_from_oracle(oracle, mg.vertices, STRATEGY)[1] == (len(comps) == 1)


def test_meta_adjacency_symmetric():
    rng = random.Random(0)
    h = random_connected_graph(rng, 7, extra=3)
    neighbours = meta_neighbours(build_meta_graph(h, STRATEGY))
    for e, nbrs in neighbours.items():
        for u in nbrs:
            assert e in neighbours[u]


def test_meta_graph_equals_line_graph_on_pairs():
    rng = random.Random(1)
    for _ in range(10):
        h = random_connected_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 4))
        mg = build_meta_graph(h, STRATEGY)
        lg = line_graph(h)
        meta_edges = {
            tuple(sorted((a.key, b.key)))
            for a, nbrs in meta_neighbours(mg).items()
            for b in nbrs
        }
        assert meta_edges == set(lg.edges)


def brute_force_meta_graph(edges, strategy):
    """(support, adjacency, components, L) of sorted ``edges`` straight from the definitions.

    Adjacency is "support sets intersect"; components and L come from one BFS
    over it per start.
    """
    support = {e: {f for f, _ in strategy.support(e)} for e in edges}
    adjacency = {
        e: tuple(u for u in edges if u != e and support[e] & support[u]) for e in edges
    }

    def distances(start):
        dist, frontier = {start: 0}, [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adjacency[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    comps = sorted({tuple(sorted(distances(e))) for e in edges})
    length = None
    if len(comps) == 1:
        length = 1 + max(max(distances(e).values()) for e in edges)
    return support, adjacency, comps, length


@settings(max_examples=200, deadline=None)
@given(EDGE_LISTS, st.sampled_from([STRATEGY, HideOneOrTwo()]))
def test_meta_graph_matches_brute_force(edges, strategy):
    """Adjacency is "support sets intersect"; components and L come from BFS over it."""
    edges = sorted(edges)
    support, adjacency, comps, length = brute_force_meta_graph(edges, strategy)

    h = WeightedHypergraph({e: 1.0 for e in edges})
    mg = build_meta_graph(h, strategy)
    assert mg.vertices == tuple(edges)
    assert meta_neighbours(mg) == adjacency
    assert mg.forms == {e: tuple(sorted(support[e])) for e in edges}
    assert mg.owners == {
        f: tuple(e for e in edges if f in support[e]) for f in set().union(*support.values())
    }
    oracle = ExactOracle(normalize(h), strategy)
    assert recover_from_oracle(oracle, edges, strategy)[1] == (len(comps) == 1)
    assert mm_path_length_bound(mg) == length


# -- path-length bound ------------------------------------------------------------------

def test_length_bound_star():
    assert mm_path_length_bound(build_meta_graph(normalize(star(6)), STRATEGY)) == 2


def test_length_bound_chain():
    assert mm_path_length_bound(build_meta_graph(normalize(chain(4)), STRATEGY)) == 3
    assert mm_path_length_bound(build_meta_graph(normalize(chain(7)), STRATEGY)) == 6


def test_length_bound_single_edge():
    assert mm_path_length_bound(build_meta_graph(wh([(("a", "b"), 1.0)]), STRATEGY)) == 1


def test_length_bound_disconnected():
    h = wh([(("a", "b"), 0.5), (("c", "d"), 0.5)])
    assert mm_path_length_bound(build_meta_graph(h, STRATEGY)) is None


def test_length_bound_empty():
    mg = build_meta_graph(WeightedHypergraph({}), STRATEGY)
    with pytest.raises(EmptyHypergraph):
        mm_path_length_bound(mg)


# Past 64 edges the reach bitmasks span several machine words.

@pytest.mark.parametrize("n", [65, 130, 200])
def test_length_bound_long_chain(n):
    assert mm_path_length_bound(build_meta_graph(normalize(chain(n)), STRATEGY)) == n - 1


def test_length_bound_wide_star():
    assert mm_path_length_bound(build_meta_graph(normalize(star(200)), STRATEGY)) == 2


def test_length_bound_two_chains_of_different_lengths():
    pairs = [(f"a{i}", f"a{i + 1}") for i in range(70)] + [(f"b{i}", f"b{i + 1}") for i in range(9)]
    h = WeightedHypergraph({Hyperedge(p): 1.0 for p in pairs})
    assert mm_path_length_bound(build_meta_graph(h, STRATEGY)) is None


@st.composite
def wide_edge_lists(draw):
    """40 to 80 same-size edges over few nodes, so that many lists are connected."""
    k = draw(st.integers(2, 3))
    pool = [Hyperedge(c) for c in combinations([str(i) for i in range(draw(st.integers(12, 16)))], k)]
    return draw(st.permutations(pool))[: draw(st.integers(40, 80))]


@settings(max_examples=60, deadline=None)
@given(wide_edge_lists(), st.sampled_from([STRATEGY, HideOneOrTwo()]))
def test_length_bound_matches_brute_force_past_one_word(edges, strategy):
    edges = sorted(edges)
    *_, length = brute_force_meta_graph(edges, strategy)
    mg = build_meta_graph(WeightedHypergraph({e: 1.0 for e in edges}), strategy)
    assert mm_path_length_bound(mg) == length


# -- strategy constants ------------------------------------------------------------------

def test_constants_uniform_pairs():
    assert strategy_constants(normalize(star(6)), STRATEGY) == (0.5, 2)


def test_constants_mixed_sizes():
    h = normalize(
        WeightedHypergraph({edge("a", "b"): 1.0, edge("c", "d", "e"): 1.0})
    )
    c_pi, big_c = strategy_constants(h, STRATEGY)
    assert c_pi == pytest.approx(1 / 3, abs=1e-15)
    assert big_c == 3


def test_constants_single_big_edge():
    h = wh([(("a", "b", "c", "d", "e"), 1.0)])
    assert strategy_constants(h, STRATEGY) == (pytest.approx(0.2, abs=1e-15), 5)


def test_constants_pointwise_consistency():
    rng = random.Random(2)
    h = random_connected_graph(rng, 6, extra=2)
    for e in h.edge_set:
        support = STRATEGY.support(e)
        assert min(p for _, p in support) <= 1.0 / len(support) + 1e-15
