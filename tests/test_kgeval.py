import csv
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hgrec import (
    KnowledgeGraph,
    SimpleGraph,
    SubgraphSpec,
    extract_subgraph,
    ingest_edge_list,
    normalized_l1,
    parse_edgelist,
    render_prompt,
)
from hgrec.errors import (
    AuthError,
    EmptyEntities,
    HgrecError,
    InvalidWeight,
    ParseError,
    RequestFailed,
    UndefinedScore,
    UnknownEntity,
)
from hgrec.kgeval import (
    EndpointConfig,
    EvalResult,
    chat_completion,
    eval_csv_row,
    evaluate_response,
    prompt_key,
    replay_completion,
)
from conftest import JSON_NUMBERS, JSON_VALUES, KG_RESPONSE, KG_TSV, closed_port, file_lines, json_objects

GOLDEN = Path(__file__).parent / "data" / "prompt_golden.txt"


# -- ingestion -------------------------------------------------------------------

def test_ingest_basic(kg_file):
    kg = ingest_edge_list(kg_file)
    assert "table" in kg and "plate" in kg
    assert kg.adjacency["table"]["furniture"] == 0.9


def test_ingest_duplicate_keeps_max(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("a\tb\t0.5\nb\ta\t0.9\n", encoding="utf-8")
    kg = ingest_edge_list(path)
    assert kg.adjacency["a"]["b"] == 0.9


def test_ingest_missing_weight(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(ParseError):
        ingest_edge_list(path)


def test_ingest_nonpositive_weight(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\t0\n", encoding="utf-8")
    with pytest.raises(InvalidWeight):
        ingest_edge_list(path)


@pytest.mark.parametrize("weight", ["0", "-1"])
def test_ingest_names_the_line_of_a_nonpositive_weight(tmp_path, weight):
    path = tmp_path / "bad.tsv"
    path.write_text(f"a\tb\t0.5\nc\td\t{weight}\n", encoding="utf-8")
    with pytest.raises(InvalidWeight) as err:
        ingest_edge_list(path)
    assert str(err.value) == f"line 2: relatedness must be positive and finite, got {float(weight)}"


@pytest.mark.parametrize("text, message", [
    ("a\tb\t0.5\n \tb\t0.5\n", "line 2: empty entity name"),
    ("a\t\t0.5\n", "line 1: empty entity name"),
    ("a\tb\t0.5\n\nc\td\theavy\n", "line 3: bad weight 'heavy'"),
])
def test_ingest_names_the_line_of_a_bad_field(tmp_path, text, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        ingest_edge_list(path)
    assert str(err.value) == message


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_ingest_non_finite_weight(tmp_path, weight):
    path = tmp_path / "bad.tsv"
    path.write_text(f"a\tb\t0.5\nc\td\t{weight}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: "):
        ingest_edge_list(path)
    with pytest.raises(InvalidWeight):
        KnowledgeGraph().add_edge("c", "d", float(weight))


def test_ingest_lowercases_and_trims(tmp_path):
    path = tmp_path / "mixed.tsv"
    path.write_text(" Table \tFURNITURE\t1.0\n", encoding="utf-8")
    kg = ingest_edge_list(path)
    assert kg.adjacency["table"]["furniture"] == 1.0


# Any text, and lines of fields joined by tabs or spaces: names to trim and lowercase,
# weights good and bad, line ends a file keeps or reads as LF, `#` and a byte not UTF-8.
KG_FIELDS = st.sampled_from([
    "a", " B ", "é", "", " ", "#", "# c", "0.5", "1", "0", "-1", "nan", "inf", "1e400", "heavy",
    "\r", "\x85", "\udcff",
])
KG_TEXTS = st.one_of(
    st.text(),
    st.lists(
        st.builds(lambda sep, fields: sep.join(fields), st.sampled_from(["\t", "\t", " "]),
                  st.lists(KG_FIELDS, max_size=4)),
        max_size=5,
    ).map("\n".join),
)


@settings(max_examples=300, deadline=None)
@given(text=KG_TEXTS)
def test_ingest_loads_or_names_a_line(tmp_path_factory, text):
    """A TSV file loads to trimmed, lowercased names with positive finite weights, or names a line."""
    path = tmp_path_factory.mktemp("kg") / "kg.tsv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    try:
        kg = ingest_edge_list(path)
    except ParseError as exc:
        assert 1 <= exc.line_number <= file_lines(text)
    except (HgrecError, ValueError):
        pass
    else:
        for a, nbrs in kg.adjacency.items():
            assert a and a == a.strip().lower()
            assert all(0.0 < w < math.inf for w in nbrs.values())


def test_self_loops_dropped():
    kg = KnowledgeGraph()
    kg.add_edge("a", "a", 1.0)
    assert "a" not in kg


# -- subgraph extraction ----------------------------------------------------------

def test_extract_depth_zero(kg_file):
    kg = ingest_edge_list(kg_file)
    g, entities = extract_subgraph(kg, SubgraphSpec("table", 2, 0))
    assert entities == ["table"]
    assert g.m == 0


def test_extract_path_derived():
    kg = KnowledgeGraph()
    kg.add_edge("a", "b", 1.0)
    kg.add_edge("b", "c", 1.0)
    g, entities = extract_subgraph(kg, SubgraphSpec("a", 1, 2))
    assert entities == ["a", "b", "c"]
    assert g.edges == {("a", "b"), ("b", "c")}


def test_extract_large_k_is_bfs_ball():
    kg = ingest_edge_list_from(KG_TSV)
    g, entities = extract_subgraph(kg, SubgraphSpec("table", 10, 1))
    assert set(entities) == {"table", "furniture", "house"}
    g2, entities2 = extract_subgraph(kg, SubgraphSpec("table", 10, 3))
    assert set(entities2) == {"table", "furniture", "house", "room", "plate"}


def ingest_edge_list_from(text: str) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    for line in text.strip().split("\n"):
        a, b, w = line.split("\t")
        kg.add_edge(a, b, float(w))
    return kg


def test_extract_fixture_truth(kg_file):
    kg = ingest_edge_list(kg_file)
    g, entities = extract_subgraph(kg, SubgraphSpec("table", 2, 2))
    assert entities == ["table", "furniture", "house", "room"]
    assert g.edges == {
        ("furniture", "table"),
        ("house", "table"),
        ("furniture", "room"),
        ("house", "room"),
    }


def test_extract_unknown_source(kg_file):
    with pytest.raises(UnknownEntity):
        extract_subgraph(ingest_edge_list(kg_file), SubgraphSpec("unicorn", 2, 2))


def test_extract_takes_at_most_k_neighbours():
    kg = KnowledgeGraph()
    for nbr, w in (("b", 3.0), ("c", 2.0), ("d", 1.0)):
        kg.add_edge("a", nbr, w)
    g, entities = extract_subgraph(kg, SubgraphSpec("a", 2, 1))
    assert entities == ["a", "b", "c"]
    assert g.edges == {("a", "b"), ("a", "c")}


@pytest.mark.parametrize("k, d, message", [(0, 1, "k must be >= 1, got 0"), (1, -1, "d must be >= 0, got -1")])
def test_subgraph_spec_rejects_k_below_1_and_negative_d(k, d, message):
    with pytest.raises(ValueError) as exc:
        SubgraphSpec("a", k, d)
    assert str(exc.value) == message


def test_extract_line_order_invariant(tmp_path):
    fwd = tmp_path / "f.tsv"
    rev = tmp_path / "r.tsv"
    fwd.write_text(KG_TSV, encoding="utf-8")
    rev.write_text("".join(reversed(KG_TSV.splitlines(keepends=True))), encoding="utf-8")
    spec = SubgraphSpec("table", 2, 2)
    assert extract_subgraph(ingest_edge_list(fwd), spec) == extract_subgraph(
        ingest_edge_list(rev), spec
    )


# -- prompt ------------------------------------------------------------------------

def test_prompt_golden_bytes():
    rendered = render_prompt(["table", "furniture"], 2)
    assert rendered.encode("utf-8") == GOLDEN.read_bytes()


def test_prompt_k_rendered_plain():
    assert "consider 7 most related concepts" in render_prompt(["a"], 7)


def test_prompt_empty_entities():
    with pytest.raises(EmptyEntities):
        render_prompt([], 2)


@pytest.mark.parametrize("k", [0, -3])
def test_prompt_k_below_1_rejected(k):
    with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
        render_prompt(["a"], k)


# -- response parsing ----------------------------------------------------------------

VOCAB = ["table", "furniture", "house", "room"]


def test_parse_needs_a_vocabulary():
    with pytest.raises(EmptyEntities) as exc:
        parse_edgelist("table - furniture", [])
    assert str(exc.value) == "vocabulary must be nonempty"


def test_parse_list_marker():
    pairs, unparsed = parse_edgelist("1. table - furniture", VOCAB)
    assert pairs == {("furniture", "table")}
    assert unparsed == []


def test_parse_tuple_form():
    pairs, _ = parse_edgelist("(house, room)", VOCAB)
    assert pairs == {("house", "room")}


def test_parse_unknown_entity_unparsed():
    pairs, unparsed = parse_edgelist("table - desk", VOCAB)
    assert pairs == set()
    assert unparsed == ["table - desk"]


def test_parse_self_pair_dropped():
    pairs, unparsed = parse_edgelist("table - table", VOCAB)
    assert pairs == set()
    assert unparsed == []


def test_parse_case_insensitive():
    pairs, _ = parse_edgelist("Table - FURNITURE", VOCAB)
    assert pairs == {("furniture", "table")}


def test_parse_arrow_and_unicode_dash():
    pairs, _ = parse_edgelist("table → room\nhouse – room", VOCAB)
    assert pairs == {("room", "table"), ("house", "room")}


def test_parse_round_trip_canonical_edgelist():
    edges = {("furniture", "table"), ("house", "room")}
    text = "\n".join(f"{a} - {b}" for a, b in sorted(edges))
    pairs, unparsed = parse_edgelist(text, VOCAB)
    assert pairs == edges and unparsed == []


def test_parse_never_invents_entities():
    pairs, _ = parse_edgelist(KG_RESPONSE, VOCAB)
    for a, b in pairs:
        assert a in VOCAB and b in VOCAB


def test_parse_three_way_line_unparsed():
    pairs, unparsed = parse_edgelist("table - room - house", VOCAB)
    assert pairs == set()
    assert unparsed == ["table - room - house"]


def test_parse_hyphenated_entity():
    vocab = ["t-shirt", "jeans", "x-ray"]
    pairs, unparsed = parse_edgelist("1. t-shirt - jeans\njeans-t-shirt\nt-shirt - x-ray", vocab)
    assert pairs == {("jeans", "t-shirt"), ("t-shirt", "x-ray")}
    assert unparsed == []


def test_parse_prefers_earlier_separator_then_leftmost_split():
    # "a-b" and "b-c" are entities too: the leftmost dash that leaves two
    # entities wins, and a comma is only tried after every dash.
    vocab = ["a", "b", "c", "a-b", "b-c", "c, d", "d"]
    pairs, _ = parse_edgelist("a-b-c\na-b, c\nb-c, d", vocab)
    assert pairs == {("a", "b-c"), ("a-b", "c"), ("b", "c, d")}


# -- scoring ----------------------------------------------------------------------------

def graph(*pairs):
    return SimpleGraph([v for p in pairs for v in p], pairs)


def test_l1_identity():
    g = graph(("a", "b"), ("b", "c"))
    assert normalized_l1(g, g) == 0.0


def test_l1_derived_075():
    truth = graph(("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))
    evaluated = graph(("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d"))
    assert normalized_l1(truth, evaluated) == 0.75


def test_l1_disjoint():
    truth = graph(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
    evaluated = graph(("a", "c"), ("b", "d"), ("c", "e"), ("a", "e"))
    assert normalized_l1(truth, evaluated) == 2.0


def test_l1_spurious_increment():
    truth = graph(("a", "b"), ("b", "c"), ("c", "d"))
    just_truth = normalized_l1(truth, truth)
    plus_one = normalized_l1(truth, graph(("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))
    assert plus_one - just_truth == pytest.approx(1 / 3, abs=1e-15)


def test_l1_empty_truth():
    with pytest.raises(UndefinedScore):
        normalized_l1(SimpleGraph(["a"], []), graph(("a", "b")))


# -- end-to-end offline -------------------------------------------------------------------

def test_offline_replay_byte_stable(kg_file, tmp_path):
    kg = ingest_edge_list(kg_file)
    truth, entities = extract_subgraph(kg, SubgraphSpec("table", 2, 2))
    prompt = render_prompt(entities, 2)

    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / f"{prompt_key(prompt)}.txt").write_text(KG_RESPONSE, encoding="utf-8")

    reports = []
    for _ in range(2):
        response = replay_completion(responses, prompt)
        result = evaluate_response(truth, entities, response)
        reports.append(result.to_json())
    assert reports[0] == reports[1]
    assert '"score": 0.75' in reports[0]


def test_replay_missing_response(tmp_path):
    with pytest.raises(RequestFailed):
        replay_completion(tmp_path, "never seen")


# -- chat endpoint -------------------------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ('["http://x", "m"]', "must be a JSON object"),
    ('{"model": "m"}', "missing key 'base_url'"),
    ('{"base_url": "http://x"}', "missing key 'model'"),
    ('{"base_url": 5, "model": "m"}', "'base_url' must be a string, got 5"),
    ('{"base_url": "http://x", "model": null}', "'model' must be a string, got None"),
    ('{"base_url": "http://x", "model": "m", "api_key_env": 1}', "'api_key_env' must be a string"),
    ('{"base_url": "http://x", "model": "m", "temperature": null}', "'temperature' must be a number"),
    ('{"base_url": "http://x", "model": "m", "temperature": "0.5"}', "'temperature' must be a number"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": [1]}', "'timeout_s' must be a number"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": true}', "'timeout_s' must be a number"),
    ('{"base_url": "file:///tmp/fake", "model": "m"}', "'base_url' must be an http"),
    ('{"base_url": "ftp://x", "model": "m"}', "'base_url' must be an http"),
    ('{"base_url": "x.test/v1", "model": "m"}', "'base_url' must be an http"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": Infinity}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": 1e400}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": 1' + "0" * 400 + '}', "'timeout_s' must be finite"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": 0}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": -1}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": NaN}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "temperature": NaN}', "'temperature' must be finite"),
    ('{"base_url": "http://x", "model": "m", "temperature": -Infinity}', "'temperature' must be finite"),
])
def test_endpoint_config_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        EndpointConfig.from_json(text)


ENDPOINT_TEXTS = st.one_of(
    st.text(),
    st.builds(json.dumps, JSON_VALUES),
    json_objects(
        base_url=st.one_of(st.sampled_from(["http://x", "HTTPS://y", "ftp://z", ""]), JSON_VALUES),
        model=st.one_of(st.just("m"), JSON_VALUES),
        temperature=st.one_of(JSON_NUMBERS, JSON_VALUES),
        timeout_s=st.one_of(JSON_NUMBERS, JSON_VALUES),
        api_key_env=st.one_of(st.just("K"), JSON_VALUES),
    ),
)


@settings(max_examples=300, deadline=None)
@given(ENDPOINT_TEXTS)
def test_endpoint_config_loads_or_raises_a_domain_error(text):
    try:
        cfg = EndpointConfig.from_json(text)
    except (HgrecError, ValueError):
        return
    assert all(isinstance(x, str) for x in (cfg.base_url, cfg.model, cfg.api_key_env))
    assert math.isfinite(cfg.temperature) and 0.0 < cfg.timeout_s < math.inf


def test_endpoint_config_checks_direct_construction():
    with pytest.raises(ValueError, match="'base_url' must be an http"):
        EndpointConfig("file:///tmp/fake", "m")
    with pytest.raises(ValueError, match="'timeout_s' must be finite and > 0"):
        EndpointConfig("https://x", "m", timeout_s=0.0)
    assert EndpointConfig("HTTPS://x", "m").base_url == "HTTPS://x"


def test_endpoint_config_reads_numbers():
    cfg = EndpointConfig.from_json('{"base_url": "http://x", "model": "m", "temperature": 1, '
                                   '"timeout_s": 2.5, "api_key_env": "K"}')
    assert cfg == EndpointConfig("http://x", "m", 1.0, 2.5, "K")

def completion(content) -> tuple:
    return 200, {}, json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


def test_chat_ok(chat_server):
    chat_server.answers.append(completion("a - b"))
    assert chat_completion(chat_server.config, "hello") == "a - b"
    [(path, headers, body)] = chat_server.received
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sekrit"
    assert headers["Content-Type"] == "application/json"
    assert body == {"model": "m", "messages": [{"role": "user", "content": "hello"}], "temperature": 0.0}
    assert chat_server.sleeps == []


def test_chat_auth_error(chat_server):
    chat_server.answers.append((401, {"Retry-After": "1"}, b"denied"))
    with pytest.raises(AuthError) as err:
        chat_completion(chat_server.config, "p")
    assert (err.value.status, err.value.body_excerpt) == (401, "denied")
    assert len(chat_server.received) == 1 and chat_server.sleeps == []


def test_chat_client_error_is_not_retried(chat_server):
    chat_server.answers.append((404, {"Retry-After": "1"}, b"no such model"))
    with pytest.raises(RequestFailed) as err:
        chat_completion(chat_server.config, "p")
    assert type(err.value) is RequestFailed and err.value.status == 404
    assert len(chat_server.received) == 1 and chat_server.sleeps == []


def test_chat_http_error(chat_server):
    chat_server.answers.extend([(500, {}, b"boom" * 100)] * 3)
    with pytest.raises(RequestFailed) as err:
        chat_completion(chat_server.config, "p")
    assert (err.value.status, err.value.body_excerpt) == (500, ("boom" * 100)[:200])


def test_chat_gives_up_after_three_attempts(chat_server):
    chat_server.answers.extend([(503, {}, b"busy")] * 3)
    with pytest.raises(RequestFailed) as err:
        chat_completion(chat_server.config, "p")
    assert err.value.status == 503
    assert len(chat_server.received) == 3 and chat_server.sleeps == [1.0, 2.0]


@pytest.mark.parametrize("retry_after, wait", [
    ("7", 7.0),
    ("0", 0.0),
    ("2.5", 2.5),
    ("100", 30.0),
    (None, 1.0),
    ("nan", 1.0),
    ("inf", 1.0),
    ("-1", 1.0),
    ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),
])
def test_chat_retries_429(chat_server, retry_after, wait):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    chat_server.answers.extend([(429, headers, b"slow down"), completion("a - b")])
    assert chat_completion(chat_server.config, "p") == "a - b"
    assert len(chat_server.received) == 2 and chat_server.sleeps == [wait]


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_chat_redirect_is_not_followed(chat_server, status):
    """A redirect is the endpoint's answer: no second request, as a POST or as a GET."""
    location = f"http://127.0.0.1:{chat_server.server_port}/v1/chat/completions"
    chat_server.answers.extend([(status, {"Location": location}, b"moved"), completion("a - b")])
    with pytest.raises(RequestFailed) as err:
        chat_completion(chat_server.config, "p")
    assert (err.value.status, err.value.body_excerpt) == (status, "moved")
    assert len(chat_server.received) == 1 and chat_server.sleeps == []


def test_chat_redirect_to_ftp_is_not_followed(chat_server):
    chat_server.answers.append((302, {"Location": f"ftp://127.0.0.1:{closed_port()}/x"}, b"moved"))
    with pytest.raises(RequestFailed) as err:
        chat_completion(chat_server.config, "p")
    assert (err.value.status, err.value.body_excerpt) == (302, "moved")


def test_chat_network_error(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    with pytest.raises(RequestFailed) as err:
        chat_completion(EndpointConfig(f"http://127.0.0.1:{closed_port()}", "m", timeout_s=10.0), "p")
    assert err.value.status == 0 and "Connection refused" in str(err.value)
    assert sleeps == []


def test_chat_bad_status_line(chat_server):
    """An answer that is not HTTP raises http.client.BadStatusLine, which is not an OSError."""
    chat_server.answers.append(b"garbage\r\n\r\n")
    with pytest.raises(RequestFailed) as err:
        chat_completion(chat_server.config, "p")
    assert err.value.status == 0 and "BadStatusLine" in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("payload", [
    [],
    {"choices": None},
    {"choices": []},
    {"choices": ["text"]},
    {"choices": [{"message": None}]},
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": 7}}]},
])
def test_chat_malformed_body(chat_server, payload):
    chat_server.answers.append((200, {}, json.dumps(payload).encode("utf-8")))
    with pytest.raises(RequestFailed, match="malformed completion body"):
        chat_completion(chat_server.config, "p")


def test_chat_body_nested_too_deeply(chat_server):
    chat_server.answers.append((200, {}, b"[" * 100_000))
    with pytest.raises(RequestFailed, match="malformed completion body") as err:
        chat_completion(chat_server.config, "p")
    assert err.value.status == 200


def test_eval_csv_row_quotes_fields_with_commas_and_quotes():
    result = EvalResult(0.1 + 0.2, (), (), (("a", "b"),), (), ())
    text = eval_csv_row("a,b", 2, 3, 'gpt"4,x', result)
    assert text.endswith("\n") and "\r" not in text
    header, row = csv.reader(text.splitlines())
    assert header == ["source", "k", "d", "model", "score", "missing", "spurious"]
    assert row == ["a,b", "2", "3", 'gpt"4,x', repr(0.1 + 0.2), "1", "0"]
