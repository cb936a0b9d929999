import http.server
import json
import random
import socket
import threading
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hgrec import (
    Hyperedge,
    MaskedHyperedge,
    MaskingStrategy,
    MetaGraph,
    NodeRelabeling,
    WeightedHypergraph,
    normalize,
)
from hgrec.kgeval import EndpointConfig

# Relatedness fixture used across the kg-eval tests: extracting around "table"
# with k=2, d=2 selects {table, furniture, house, room} and exactly 4 edges.
KG_TSV = (
    "table\tfurniture\t0.9\n"
    "table\thouse\t0.8\n"
    "furniture\troom\t0.7\n"
    "house\troom\t0.6\n"
    "room\tplate\t0.5\n"
)

# Canned model answer: 3 of the 4 truth edges plus 2 spurious ones -> score 0.75.
KG_RESPONSE = (
    "Here is the edgelist:\n"
    "1. table - furniture\n"
    "2. (table, house)\n"
    "3. furniture - room\n"
    "4. table - room\n"
    "5. house - furniture\n"
    "Those are the most related pairs.\n"
)


class HideOneOrTwo(MaskingStrategy):
    """Hide 1 node, or 2 when at least one stays visible, uniformly over all such forms.

    Unlike ``uniform1``, two distinct edges can then share several forms:
    ``a b c`` and ``a b d`` share ``a b|1``, ``a|2`` and ``b|2``.
    """

    def support(self, e):
        forms = [
            MaskedHyperedge(set(e.nodes) - set(hidden), len(hidden))
            for r in (1, 2)
            if len(e) - r >= 1
            for hidden in combinations(e.nodes, r)
        ]
        return tuple((f, 1.0 / len(forms)) for f in sorted(forms))


class HideOneUnequally(MaskingStrategy):
    """Hide node i of the sorted tuple with probability (i + 1) / (1 + 2 + ... + len(e)).

    Its cdf values are not the multiples of 1/len(e) that uniform supports give,
    and each edge size has its own shape.
    """

    def support(self, e):
        total = len(e) * (len(e) + 1) // 2
        nodes = e.nodes
        return tuple(sorted(
            (MaskedHyperedge(nodes[:i] + nodes[i + 1:], 1), (i + 1) / total) for i in range(len(nodes))
        ))


# Mixed-size edge lists over 7 nodes, for checks against brute-force definitions.
EDGE_LISTS = st.lists(
    st.sets(st.sampled_from([str(i) for i in range(7)]), min_size=2, max_size=4).map(Hyperedge),
    min_size=1,
    max_size=12,
    unique=True,
)

# Texts for the alignment readers: any string, and lines built from the fields
# they read, with reserved characters, a line break str.split keeps and surrogates.
READER_TEXTS = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            st.lists(st.sampled_from([
                "node", "edge", "#", "0", "1", "a", "0+1", "1+0", "a+b", "0+0", "0+", "_", "a|b",
                "\x85", "\udcff", "\ud800",
            ]), min_size=2, max_size=3).map(" ".join),
            st.text(max_size=4),
        ),
        max_size=4,
    ).map("\n".join),
)

# Any JSON value; JSON numbers, with integers no float can hold; and the JSON text of
# objects that hold each of the given keys or not, its value drawn from its strategy.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
JSON_NUMBERS = st.one_of(st.integers(-2, 9), st.floats(), st.sampled_from([10 ** 400, -10 ** 400]))


def json_objects(**keys) -> st.SearchStrategy[str]:
    return st.fixed_dictionaries({}, optional=keys).map(json.dumps)


def file_lines(text: str) -> int:
    """The number of lines ``text`` has once written to a file and read back with universal newlines."""
    return text.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1


def random_connected_graph(rng: random.Random, n: int, extra: int = 0) -> WeightedHypergraph:
    """Random connected 2-uniform hypergraph with integer weights, normalized."""
    nodes = [str(i) for i in range(n)]
    edges = set()
    order = nodes[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.add(Hyperedge((a, b)))
    pool = [Hyperedge(p) for p in combinations(nodes, 2)]
    rng.shuffle(pool)
    for e in pool:
        if len(edges) >= n - 1 + extra:
            break
        edges.add(e)
    return normalize(WeightedHypergraph({e: float(rng.randint(1, 9)) for e in sorted(edges)}))


def meta_neighbours(mg: MetaGraph) -> dict[Hyperedge, tuple[Hyperedge, ...]]:
    """Each edge of ``mg`` to the sorted edges it shares a masked form with."""
    return {
        e: tuple(sorted({u for f in fs for u in mg.owners[f] if u != e}))
        for e, fs in mg.forms.items()
    }


def random_relabeling(rng: random.Random, h: WeightedHypergraph, prefix: str = "y") -> NodeRelabeling:
    targets = [f"{prefix}{i}" for i in range(h.n)]
    rng.shuffle(targets)
    return NodeRelabeling(dict(zip(h.nodes, targets)))


def write_repeated_records(folder: Path) -> None:
    """``small`` and ``big`` ``.mm`` and ``.ds`` files of 24 distinct lines, ``big`` holding ``small`` 4 times.

    Each ``small`` file is about 3.3 MB, three chunks and a bit, so it is read
    past the first chunks into the steady state of a chunk read after a full one.
    """
    tokens = [f"entity-with-a-rather-long-name-{i:02d}" for i in range(12)]
    mm, ds = [], []
    for start in range(0, 12, 2):
        nodes = sorted((tokens * 2)[start:start + 4])
        mm += [" ".join(nodes) + "\t" + " ".join(nodes[:i] + nodes[i + 1:]) + " _\n" for i in range(4)]
        ds += [" ".join(nodes[i:] + nodes[:i]) + "\n" for i in range(4)]  # four spellings of one edge
    for suffix, lines, copies in ((".mm", mm, 600), (".ds", ds, 1000)):
        small = "".join(lines) * copies
        (folder / f"small{suffix}").write_text(small, encoding="utf-8")
        (folder / f"big{suffix}").write_text(small * 4, encoding="utf-8")


def traced_peak(call) -> int:
    """The ``tracemalloc`` peak while ``call()`` runs, above the memory traced before it."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    call()
    return tracemalloc.get_traced_memory()[1] - before


@pytest.fixture
def kg_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(KG_TSV, encoding="utf-8")
    return path


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with the next of ``server.answers`` and records it in ``server.received``.

    An answer is ``(status, headers, body)``, or bytes sent in place of a whole response. A
    request without a body, such as a GET, is recorded with body ``None``.
    """

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.path, self.headers, json.loads(body) if body else None))
        answer = self.server.answers.pop(0)
        if isinstance(answer, bytes):
            self.wfile.write(answer)
            return
        status, headers, body = answer
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(body))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    """A loopback chat-completion endpoint; ``config`` points at it and ``sleeps`` records each wait."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.answers, server.received, server.sleeps = [], [], []
    server.config = EndpointConfig(f"http://127.0.0.1:{server.server_port}/v1", "m", timeout_s=10.0)
    monkeypatch.setattr("time.sleep", server.sleeps.append)
    monkeypatch.setenv("HGREC_API_KEY", "sekrit")
    monkeypatch.setenv("no_proxy", "*")
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))  # poll often: quick shutdown
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def closed_port() -> int:
    """A loopback port nothing listens on: connecting to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
