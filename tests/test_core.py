import ast
import copy
import math
import pickle
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hgrec
from hgrec import (
    Hyperedge,
    NodeRelabeling,
    SimpleGraph,
    WeightedHypergraph,
    decode,
    dissimilarity,
    edge,
    encode,
    line_graph,
    normalize,
    relabel,
    sketch_diff,
)
from hgrec.core import _CHUNK, check_token, parse_lines, read_chunks, read_json, read_text
from hgrec.errors import (
    DuplicateEdge,
    EmptyHypergraph,
    HgrecError,
    IncompleteMapping,
    NotABijection,
    ParseError,
)
from hgrec.generators import chain, star
from conftest import random_connected_graph, random_relabeling


def wh(pairs, normalized=False):
    return WeightedHypergraph({edge(*tokens): w for tokens, w in pairs}, normalized=normalized)


# -- hyperedge basics ----------------------------------------------------------

def test_hyperedge_canonicalizes():
    e = Hyperedge(["b", "a", "b"])
    assert e.nodes == ("a", "b")
    assert e.key == "a+b"
    assert Hyperedge.from_key("a+b") == e


def test_hyperedge_too_small():
    with pytest.raises(ValueError):
        Hyperedge(["a"])
    with pytest.raises(ValueError):
        Hyperedge(["a", "a"])


@pytest.mark.parametrize("token", ["", "a b", "a\tb", "x+y", "p|q", "_"])
def test_bad_tokens_rejected(token):
    with pytest.raises(ValueError):
        Hyperedge([token, "ok"])


TOKEN_CHARS = st.one_of(st.characters(), st.sampled_from(" \t\x0b\x1c\x85\xa0\u2028\u3000_+|"))


@given(st.text(alphabet=TOKEN_CHARS, max_size=6))
def test_check_token_matches_per_character_rules(token):
    if not token or token == "_" or any(c.isspace() or c in "+|" for c in token):
        with pytest.raises(ValueError):
            check_token(token)
    else:
        assert check_token(token) == token


def test_hyperedge_ordering_is_lexicographic():
    assert edge("a", "b") < edge("a", "c") < edge("b", "c")


def test_hyperedge_is_its_node_tuple():
    e = edge("c", "a", "b")
    assert hash(e) == hash(e.nodes) and e == ("a", "b", "c")
    assert type(e.nodes) is tuple and len(e) == 3 and "b" in e and list(e) == ["a", "b", "c"]


def test_hyperedge_survives_pickle_and_deepcopy():
    e = edge("b", "a")
    for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert type(twin) is Hyperedge and twin == e and hash(twin) == hash(e)


def test_hyperedge_nodes_are_read_only():
    e = edge("a", "b")
    with pytest.raises(AttributeError):
        e.nodes = ("z",)
    assert e.nodes == ("a", "b")


def test_weighted_hypergraph_rejects_plain_tuples():
    with pytest.raises(TypeError):
        WeightedHypergraph({("a", "b"): 1.0})


# -- normalize ------------------------------------------------------------------

def test_normalize_single_edge():
    h = normalize(wh([(("a", "b"), 5.0)]))
    assert h.weight(edge("a", "b")) == 1.0
    assert h.normalized


def test_normalize_proportional():
    h = normalize(wh([(("a", "b"), 1.0), (("a", "c"), 3.0)]))
    assert h.weight(edge("a", "b")) == pytest.approx(0.25, abs=1e-15)
    assert h.weight(edge("a", "c")) == pytest.approx(0.75, abs=1e-15)


def test_normalize_idempotent():
    h = normalize(wh([(("a", "b"), 1.0), (("a", "c"), 3.0), (("b", "c"), 7.0)]))
    again = normalize(h)
    assert again.edges == h.edges  # identical floats, not merely close


def test_normalize_empty():
    with pytest.raises(EmptyHypergraph):
        normalize(WeightedHypergraph({}))


# -- dissimilarity ----------------------------------------------------------------

def test_dissimilarity_identity():
    h = normalize(wh([(("a", "b"), 2.0), (("b", "c"), 3.0)]))
    assert dissimilarity(h, h) == 0.0


def test_dissimilarity_disjoint_normalized():
    h1 = wh([(("a", "b"), 1.0)], normalized=True)
    h2 = wh([(("c", "d"), 1.0)], normalized=True)
    assert dissimilarity(h1, h2) == 2.0


def test_dissimilarity_direct_sum():
    h1 = wh([(("a", "b"), 1.0)], normalized=True)
    h2 = wh([(("a", "b"), 0.4), (("a", "c"), 0.6)], normalized=True)
    assert dissimilarity(h1, h2) == pytest.approx(1.2, abs=1e-15)


@st.composite
def hypergraphs(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(3, 6)))]
    k = draw(st.integers(1, 6))
    pool = []
    for _ in range(k):
        size = draw(st.integers(2, min(3, len(nodes))))
        pool.append(tuple(draw(st.permutations(nodes))[:size]))
    weights = draw(
        st.lists(st.floats(0.01, 100, allow_nan=False), min_size=len(pool), max_size=len(pool))
    )
    table = {}
    for tokens, w in zip(pool, weights):
        table[Hyperedge(tokens)] = w
    return WeightedHypergraph(table)


@given(hypergraphs(), hypergraphs(), hypergraphs())
def test_dissimilarity_is_a_metric(h1, h2, h3):
    d12 = dissimilarity(h1, h2)
    assert d12 >= 0.0
    assert d12 == dissimilarity(h2, h1)
    # zero iff equal weight functions
    assert (d12 == 0.0) == (h1.edges == h2.edges)
    assert d12 <= dissimilarity(h1, h3) + dissimilarity(h3, h2) + 1e-12


@given(hypergraphs())
def test_normalized_dissimilarity_in_range(h):
    hn = normalize(h)
    assert 0.0 <= dissimilarity(hn, hn) <= 2.0


def test_range_ratio():
    assert wh([(("a", "b"), 2.0), (("b", "c"), 2.0)]).range_ratio == 1.0
    assert wh([(("a", "b"), 1.0), (("b", "c"), 4.0)]).range_ratio == 4.0
    with pytest.raises(EmptyHypergraph):
        WeightedHypergraph({}).range_ratio


# -- relabel ----------------------------------------------------------------------

def test_relabel_identity():
    h = normalize(star(6))
    assert relabel(h, NodeRelabeling.identity(h.nodes)) == h


def test_relabel_round_trip():
    h = normalize(star(6))
    phi = NodeRelabeling({"0": "0", "1": "2", "2": "1", "3": "3", "4": "4", "5": "5"})
    assert relabel(relabel(h, phi), phi.inverse()) == h


def test_relabel_not_a_bijection():
    with pytest.raises(NotABijection):
        NodeRelabeling({"a": "x", "b": "x"})


@pytest.mark.parametrize("build, error, message", [
    (lambda: NodeRelabeling([("a", "x"), ("a", "y")]), NotABijection, "node 'a' mapped to both 'x' and 'y'"),
    (lambda: SimpleGraph(["a", "b"], [("a", "a")]), ValueError, "self-loop on 'a'"),
])
def test_mapping_and_graph_refuse_a_node_twice(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_relabel_incomplete():
    h = normalize(star(4))
    with pytest.raises(IncompleteMapping):
        relabel(h, NodeRelabeling({"0": "a", "1": "b"}))


def test_relabel_preserves_dissimilarity():
    rng = random.Random(3)
    for _ in range(20):
        h1 = random_connected_graph(rng, 6, extra=2)
        h2 = random_connected_graph(rng, 6, extra=1)
        nodes = sorted(set(h1.nodes) | set(h2.nodes))
        targets = [f"z{i}" for i in range(len(nodes))]
        rng.shuffle(targets)
        phi = NodeRelabeling(dict(zip(nodes, targets)))
        assert dissimilarity(relabel(h1, phi), relabel(h2, phi)) == pytest.approx(
            dissimilarity(h1, h2), abs=1e-12
        )


# -- line graph --------------------------------------------------------------------

def test_line_graph_shared_node():
    g = line_graph(wh([(("0", "1"), 1.0), (("0", "2"), 1.0)]))
    assert g.m == 1 and g.has_edge("0+1", "0+2")


def test_line_graph_disjoint():
    g = line_graph(wh([(("0", "1"), 1.0), (("2", "3"), 1.0)]))
    assert g.m == 0


def test_line_graph_pair_sharing_two_nodes_is_one_edge():
    # The pair is listed under both a and b.
    g = line_graph(wh([(("a", "b", "c"), 1.0), (("a", "b", "d"), 1.0)]))
    assert g.m == 1 and g.has_edge("a+b+c", "a+b+d")


def test_line_graph_pair_whose_key_order_disagrees_with_its_edge_order():
    # a+b sorts before a!+b as an edge, after it as a key.
    g = line_graph(wh([(("a", "b"), 1.0), (("a!", "b"), 1.0)]))
    assert g.m == 1 and g.has_edge("a+b", "a!+b") and g.has_edge("a!+b", "a+b")


def test_line_graph_chain4_is_path():
    g = line_graph(normalize(chain(4)))
    assert g.n == 3 and g.m == 2
    assert g.has_edge("0+1", "1+2") and g.has_edge("1+2", "2+3")
    assert not g.has_edge("0+1", "2+3")


# -- sketch diff ---------------------------------------------------------------------

def test_sketch_diff():
    a, b, c = edge("a", "b"), edge("b", "c"), edge("c", "d")
    h = lambda *es: WeightedHypergraph({e: 1.0 for e in es})
    assert sketch_diff(h(a, b), h(a, b)) == ((), ())
    assert sketch_diff(h(a), h(b)) == ((a,), (b,))
    assert sketch_diff(h(a, b), h(b, c)) == ((a,), (c,))


# -- .hg format ------------------------------------------------------------------------

def test_round_trip_star_kappa10():
    from hgrec.generators import assign_weights

    h = assign_weights(star(6), 1.0, 10.0, seed=1)
    back = decode(encode(h))
    assert back.normalized == h.normalized
    assert back.edges == h.edges  # exact float equality through 17 sig digits


def test_decode_missing_weight():
    with pytest.raises(ParseError):
        decode("#hg v1\nedge 0 1\n")


def test_decode_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        decode("#hg v1\nedge a b 1.0\nedge b a 2.0\n")


def test_decode_requires_header():
    with pytest.raises(ParseError):
        decode("edge a b 1.0\n")


def test_decode_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        decode("#hg v1\n# fine\nedge a b nope\n")
    assert err.value.line_number == 3


def test_normalized_flag_after_edges_rejected():
    with pytest.raises(ParseError):
        decode("#hg v1\nedge a b 1.0\n#normalized\n")


@pytest.mark.parametrize("text, message", [
    ("#hg v1\nnode a b 1\n", "line 2: unknown directive 'node'"),
    ("#hg v1\nedge a b 0\n", "line 2: weight must be a positive finite real, got 0"),
    ("#hg v1\nedge a b 1\n\nedge a c -1.5\n", "line 4: weight must be a positive finite real, got -1.5"),
    ("#hg v1\n#normalized\nedge a b|c 1\n", "line 3: node token uses a reserved character: 'b|c'"),
    ("#hg v1\n#normalized\n", "line 2: normalized flag set but weights do not sum to 1"),
    ("#hg v1\n#normalized\nedge a b 0.5\n", "line 2: normalized flag set but weights do not sum to 1"),
])
def test_decode_names_the_line_of_a_bad_edge(text, message):
    with pytest.raises(ParseError) as err:
        decode(text)
    assert str(err.value) == message


# Any text, and a header line over lines of directives, tokens and weights the reader
# must refuse or accept.
HG_LINES = st.builds(
    lambda head, tail: " ".join([head, *tail]),
    st.sampled_from(["edge", "edge", "#normalized", "node", "#", ""]),
    st.lists(st.sampled_from([
        "a", "b", "c", "é", "_", "a|b", "a+b", "\t", "\r", "\x85", "\x00",
        "1", "0.5", "0", "-1", "nan", "inf", "1e400", "1e-400", "heavy",
    ]), max_size=5),
)
HG_TEXTS = st.one_of(
    st.text(),
    st.builds(
        lambda header, lines: "\n".join([header, *lines]),
        st.sampled_from(["#hg v1", " #hg v1\r", "#hg v2", ""]),
        st.lists(HG_LINES, max_size=6),
    ),
)


@settings(max_examples=300, deadline=None)
@given(HG_TEXTS)
@example("#hg v1\n#normalized\nedge a b 0.5\n")
def test_hg_decode_parses_or_names_a_line(text):
    """Any text decodes to a hypergraph that encodes back to itself, or raises an ``HgrecError``."""
    try:
        h = decode(text)
    except ParseError as exc:
        assert 1 <= exc.line_number <= text.count("\n") + 1
    except HgrecError:
        pass
    else:
        assert encode(decode(encode(h))) == encode(h)


@given(hypergraphs())
def test_round_trip_random(h):
    back = decode(encode(h))
    assert back.edge_set == h.edge_set
    assert all(back.weight(e) == h.weight(e) for e in h.edge_set)


def test_equality_tolerance():
    h1 = wh([(("a", "b"), 0.5)])
    h2 = wh([(("a", "b"), 0.5 + 5e-13)])
    h3 = wh([(("a", "b"), 0.5 + 5e-11)])
    assert h1 == h2
    assert h1 != h3


def test_duplicate_edge_in_constructor():
    with pytest.raises(DuplicateEdge):
        WeightedHypergraph([(edge("a", "b"), 1.0), (edge("b", "a"), 2.0)])


@pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
def test_bad_weights_rejected(w):
    with pytest.raises(ValueError):
        wh([(("a", "b"), w)])


@pytest.mark.parametrize("data, line", [
    (b"a\nb\nc \xff\n", 3),
    (b"a\r\nb\rc\xfe", 3),
    (b"\xc3", 1),
])
def test_read_text_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line):
    path = tmp_path / "f"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"^line {line}: byte 0x[0-9a-f]{{2}} is not UTF-8$"):
        read_text(path)


def test_read_text_translates_newlines(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(path) == "a\nb\nc\n"


def lines_past_a_chunk(ends: list[str], at: int) -> str:
    """ASCII lines over one chunk and a bit, ending in ``ends`` in turn; a line end starts at character ``at``."""
    parts, size = [], 0
    while size < at - 20:
        line = f"r{len(parts) % 37} {'x' * (len(parts) % 11)}" if len(parts) % 9 else "  "
        parts.append(line + ends[len(parts) % len(ends)])
        size += len(parts[-1])
    parts.append("p" * (at - size) + ends[0])  # this line's end starts at character ``at``
    size = at + len(ends[0])
    while size < at + 50_000:
        parts.append(f"s{len(parts) % 41}" + ends[len(parts) % len(ends)])
        size += len(parts[-1])
    return "".join(parts) + "last line, no end"


@pytest.mark.parametrize("at", [_CHUNK - 1, _CHUNK])
@pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r"], ["\r\n", "\n", "\r"]])
def test_count_records_reads_lines_as_read_text_does(tmp_path, ends, at):
    """``read_chunks`` cuts ``read_text``'s text at line ends, and ``parse_lines`` indexes its lines."""
    path = tmp_path / "f"
    path.write_bytes(lines_past_a_chunk(ends, at).encode("utf-8"))
    assert path.read_bytes()[at:at + len(ends[0])] == ends[0].encode()
    chunks = list(read_chunks(path))
    assert all(chunk.endswith("\n") for chunk in chunks[:-1]) and "".join(chunks) == read_text(path)
    table = []
    counts = Counter(table[i] for codes in parse_lines(chunks, str, table) for i in codes if i >= 0)
    assert counts == Counter(line for line in read_text(path).split("\n") if line.strip())


def test_read_json_reports_deep_nesting_as_a_value_error():
    assert read_json('{"a": [1]}', "doc") == {"a": [1]}
    with pytest.raises(ValueError, match="^doc is nested too deeply$"):
        read_json("[" * 100_000, "doc")


def test_only_core_reads_files():
    """Files are read by ``core.read_text`` and written by ``core.write_text``, JSON parsed by ``read_json``."""
    names = ("open", "read_text", "read_bytes", "loads", "write_text", "write_bytes")
    readers = []
    for path in sorted(Path(hgrec.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in names
            ):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_runtime_imports_are_stdlib_or_numpy():
    """``src/hgrec`` needs numpy and the standard library, nothing else installed."""
    outside = []
    for path in sorted(Path(hgrec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []
