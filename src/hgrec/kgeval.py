"""Relation evaluation against a knowledge graph.

Pipeline: ingest a TSV relatedness graph, extract a top-k depth-d subgraph
around a source entity, render the fixed evaluation prompt, collect a model
response (live chat-completion call or offline replay keyed by prompt hash),
parse the edgelist out of the response, and score it with the normalized L1
distance against the extracted subgraph.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import SimpleGraph, read_json, read_text
from .errors import (
    AuthError,
    EmptyEntities,
    InvalidWeight,
    ParseError,
    RequestFailed,
    UndefinedScore,
    UnknownEntity,
)


@dataclass
class KnowledgeGraph:
    """Undirected graph over entity strings with positive relatedness weights."""

    adjacency: dict[str, dict[str, float]] = field(default_factory=dict)

    def add_edge(self, a: str, b: str, weight: float) -> None:
        """Insert an edge, keeping the maximum weight on duplicates. Self-loops are dropped."""
        if not math.isfinite(weight) or weight <= 0:
            raise InvalidWeight(f"relatedness must be positive and finite, got {weight}")
        if a == b:
            return
        for x, y in ((a, b), (b, a)):
            current = self.adjacency.setdefault(x, {}).get(y, 0.0)
            self.adjacency[x][y] = max(current, weight)

    def most_related(self, entity: str) -> list[tuple[str, float]]:
        """Neighbors by descending weight, ties broken lexicographically."""
        nbrs = self.adjacency.get(entity, {})
        return sorted(nbrs.items(), key=lambda kv: (-kv[1], kv[0]))

    def __contains__(self, entity: str) -> bool:
        return entity in self.adjacency

    def to_tsv(self) -> str:
        lines = []
        for a in sorted(self.adjacency):
            for b, w in sorted(self.adjacency[a].items()):
                if a < b:
                    lines.append(f"{a}\t{b}\t{w:.17g}\n")
        return "".join(lines)


@dataclass(frozen=True)
class SubgraphSpec:
    source: str
    k: int
    d: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")


def ingest_edge_list(path: str | Path) -> KnowledgeGraph:
    """Read `start<TAB>end<TAB>weight` lines; entities lowercased and trimmed."""
    kg = KnowledgeGraph()
    for num, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(num, f"expected 'start<TAB>end<TAB>weight', got {line!r}")
        a, b = parts[0].strip().lower(), parts[1].strip().lower()
        if not a or not b:
            raise ParseError(num, "empty entity name")
        try:
            w = float(parts[2])
        except ValueError:
            raise ParseError(num, f"bad weight {parts[2]!r}") from None
        if not math.isfinite(w):
            raise ParseError(num, f"weight must be finite, got {parts[2]!r}")
        try:
            kg.add_edge(a, b, w)
        except InvalidWeight as exc:
            raise InvalidWeight(f"line {num}: {exc}") from None
    return kg


def extract_subgraph(kg: KnowledgeGraph, spec: SubgraphSpec) -> tuple[SimpleGraph, list[str]]:
    """Top-k breadth-first subgraph around the source entity.

    Entity choice: starting from the source (depth 0), each chosen entity at
    depth < d contributes up to k of its most related not-yet-chosen
    neighbors. Edges: each chosen entity votes for its k most related
    neighbors among the chosen set; votes are symmetrized into undirected
    edges. The entity list is in discovery order.
    """
    if spec.source not in kg:
        raise UnknownEntity(f"source entity {spec.source!r} not in the knowledge graph")
    chosen = [spec.source]
    depth = {spec.source: 0}
    for entity in chosen:  # grows as it is read: chosen is the breadth-first queue
        if depth[entity] >= spec.d:
            continue
        added = 0
        for nbr, _ in kg.most_related(entity):
            if added == spec.k:
                break
            if nbr in depth:
                continue
            chosen.append(nbr)
            depth[nbr] = depth[entity] + 1
            added += 1

    edges: set[tuple[str, str]] = set()
    for entity in chosen:
        votes = 0
        for nbr, _ in kg.most_related(entity):
            if votes == spec.k:
                break
            if nbr in depth:
                edges.add((entity, nbr))
                votes += 1
    return SimpleGraph(chosen, edges), chosen


PROMPT_TEMPLATE = (
    "Consider the following concepts: {entities}. "
    "Suppose that these concepts are nodes of an undirected graph. "
    "For each concept, consider {k} most related concepts. "
    "According to the relations between these concepts, which edges should be included? "
    "Please answer with an edgelist."
)


def render_prompt(entities: list[str], k: int) -> str:
    if not entities:
        raise EmptyEntities("prompt needs at least one entity")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return PROMPT_TEMPLATE.format(entities=", ".join(entities), k=k)


_SEPARATORS = ("<->", "→", "–", "-", ",")
_STRIP_CHARS = "()[]{}\"'`.;:"


def _clean(token: str) -> str:
    return token.strip().strip(_STRIP_CHARS).strip().lower()


def _strip_list_marker(line: str) -> str:
    line = line.strip()
    head, _, rest = line.partition(" ")
    if head and rest and (head.rstrip(".):") .isdigit() or head in ("-", "*", "+", "•")):
        return rest.strip()
    return line


def _split_pair(line: str, vocab: set[str]) -> tuple[str, str] | None:
    """The first split, by separator precedence then leftmost position, into two entities."""
    for sep in _SEPARATORS:
        at = line.find(sep)
        while at != -1:
            a, b = _clean(line[:at]), _clean(line[at + len(sep):])
            if a in vocab and b in vocab:
                return a, b
            at = line.find(sep, at + 1)
    return None


def parse_edgelist(
    response_text: str, vocabulary: list[str]
) -> tuple[set[tuple[str, str]], list[str]]:
    """Best-effort extraction of entity pairs from a model response.

    A line yields a pair when, after stripping list markers, parentheses, and
    quotes, it splits at one occurrence of a separator into exactly two
    vocabulary entities (case-insensitive exact match). Separators are tried in
    precedence order and, for each, split points from left to right, so
    ``t-shirt - jeans`` splits at the spaced dash. Self-pairs are dropped;
    lines yielding nothing are returned in ``unparsed``.
    """
    vocab = {v.strip().lower() for v in vocabulary}
    if not vocab:
        raise EmptyEntities("vocabulary must be nonempty")
    pairs: set[tuple[str, str]] = set()
    unparsed: list[str] = []
    for raw in response_text.split("\n"):
        if not raw.strip():
            continue
        line = _strip_list_marker(raw)
        line = line.strip().strip("()[]").strip()
        matched = _split_pair(line, vocab)
        if matched is None:
            unparsed.append(raw)
            continue
        a, b = matched
        if a != b:
            pairs.add((a, b) if a < b else (b, a))
    return pairs, unparsed


def normalized_l1(truth: SimpleGraph, evaluated: SimpleGraph) -> float:
    """Symmetric-difference edge count over the truth edge count."""
    if truth.m == 0:
        raise UndefinedScore("truth graph has no edges")
    return len(truth.edges ^ evaluated.edges) / truth.m


@dataclass(frozen=True)
class EvalResult:
    score: float
    truth_edges: tuple[tuple[str, str], ...]
    eval_edges: tuple[tuple[str, str], ...]
    missing: tuple[tuple[str, str], ...]
    spurious: tuple[tuple[str, str], ...]
    unparsed_lines: tuple[str, ...]

    def to_json(self) -> str:
        doc = {
            "score": self.score,
            "truth_edges": [list(e) for e in self.truth_edges],
            "eval_edges": [list(e) for e in self.eval_edges],
            "missing": [list(e) for e in self.missing],
            "spurious": [list(e) for e in self.spurious],
            "unparsed_lines": list(self.unparsed_lines),
        }
        return json.dumps(doc, indent=2) + "\n"


def evaluate_response(
    truth: SimpleGraph, entities: list[str], response_text: str
) -> EvalResult:
    """Parse a response against the extracted subgraph and score it."""
    pairs, unparsed = parse_edgelist(response_text, entities)
    evaluated = SimpleGraph(entities, pairs)
    return EvalResult(
        score=normalized_l1(truth, evaluated),
        truth_edges=tuple(sorted(truth.edges)),
        eval_edges=tuple(sorted(evaluated.edges)),
        missing=tuple(sorted(truth.edges - evaluated.edges)),
        spurious=tuple(sorted(evaluated.edges - truth.edges)),
        unparsed_lines=tuple(unparsed),
    )


def eval_csv_row(source: str, k: int, d: int, model: str, result: EvalResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", "k", "d", "model", "score", "missing", "spurious"])
    writer.writerow([source, k, d, model, repr(result.score), len(result.missing), len(result.spurious)])
    return out.getvalue()


# -- model access -------------------------------------------------------------


@dataclass(frozen=True)
class EndpointConfig:
    """Chat-completion endpoint: base URL, model name, and credential env var."""

    base_url: str
    model: str
    temperature: float = 0.0
    timeout_s: float = 60.0
    api_key_env: str = "HGREC_API_KEY"

    def __post_init__(self):
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ValueError(f"endpoint config: 'base_url' must be an http(s) URL, got {self.base_url!r}")
        if not math.isfinite(self.temperature):
            raise ValueError(f"endpoint config: 'temperature' must be finite, got {self.temperature!r}")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"endpoint config: 'timeout_s' must be finite and > 0, got {self.timeout_s!r}")

    @classmethod
    def from_json(cls, text: str) -> "EndpointConfig":
        doc = read_json(text, "endpoint config")
        if not isinstance(doc, dict):
            raise ValueError("endpoint config must be a JSON object")
        for key in ("base_url", "model"):
            if key not in doc:
                raise ValueError(f"endpoint config: missing key {key!r}")
        for key in ("base_url", "model", "api_key_env"):
            if key in doc and not isinstance(doc[key], str):
                raise ValueError(f"endpoint config: {key!r} must be a string, got {doc[key]!r}")
        for key in ("temperature", "timeout_s"):
            if key in doc and (isinstance(doc[key], bool) or not isinstance(doc[key], (int, float))):
                raise ValueError(f"endpoint config: {key!r} must be a number, got {doc[key]!r}")
        strings = {key: doc[key] for key in ("base_url", "model", "api_key_env") if key in doc}
        # float(str(n)) reads an integer too large for a float as inf; float(n) raises OverflowError.
        numbers = {key: float(str(doc[key])) for key in ("temperature", "timeout_s") if key in doc}
        return cls(**strings, **numbers)

    @classmethod
    def load(cls, path: str | Path) -> "EndpointConfig":
        return cls.from_json(read_text(path))


def prompt_key(prompt: str) -> str:
    """Stable replay-file stem for a prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def replay_completion(responses_dir: str | Path, prompt: str) -> str:
    """Read the canned response for a prompt from `<sha256(prompt)>.txt`."""
    if not Path(responses_dir).is_dir():
        raise NotADirectoryError(f"no directory of canned responses at {str(responses_dir)!r}")
    path = Path(responses_dir) / f"{prompt_key(prompt)}.txt"
    if not path.exists():
        raise RequestFailed(0, f"no canned response at {path}")
    return read_text(path)


# chat_completion asks again on 429 or 5xx: CHAT_ATTEMPTS tries in all, each retry after
# Retry-After seconds if that is a finite number >= 0, else 1 s, then 2 s; MAX_RETRY_WAIT_S at most.
CHAT_ATTEMPTS = 3
MAX_RETRY_WAIT_S = 30.0


def chat_completion(config: EndpointConfig, prompt: str) -> str:
    """Single-turn chat-completion request; returns the first choice's text.

    No redirect is followed: a 401 is :class:`AuthError`, and any other answer
    outside 2xx is :class:`RequestFailed` with its status and body excerpt.
    """
    import http.client  # these take about 31 ms to import, and only this call needs them
    import os
    import time
    from urllib.parse import urlsplit

    headers = {"Content-Type": "application/json"}
    key = os.environ.get(config.api_key_env)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
    }
    body = json.dumps(payload).encode("utf-8")
    url = urlsplit(config.base_url.rstrip("/") + "/chat/completions")
    target = url.path + (f"?{url.query}" if url.query else "")
    # A bare connection has no redirect handling: a 3xx comes back as the answer, like any status.
    connection = http.client.HTTPSConnection if url.scheme.lower() == "https" else http.client.HTTPConnection
    for attempt in range(1, CHAT_ATTEMPTS + 1):
        try:
            conn = connection(url.netloc, timeout=config.timeout_s)
            try:
                conn.request("POST", target, body, headers)
                resp = conn.getresponse()
                status, retry_after = resp.status, resp.getheader("Retry-After")
                text = resp.read().decode("utf-8", "replace")
            finally:
                conn.close()
        except (OSError, http.client.HTTPException) as exc:
            raise RequestFailed(0, repr(exc)) from exc  # repr: one line, whatever the server sent
        if attempt == CHAT_ATTEMPTS or (status != 429 and status < 500):
            break
        try:
            wait = float(retry_after)
        except (TypeError, ValueError):
            wait = math.nan
        time.sleep(min(wait if 0 <= wait < math.inf else 2.0 ** (attempt - 1), MAX_RETRY_WAIT_S))
    if status == 401:
        raise AuthError(401, text[:200])
    if not 200 <= status < 300:
        raise RequestFailed(status, text[:200])
    try:
        content = read_json(text, "completion body")["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError):
        content = None
    if not isinstance(content, str):
        raise RequestFailed(status, f"malformed completion body: {text[:200]}")
    return content
