"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
All randomness is seeded, so results are identical run to run.
"""

import math
import random
import time
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from hgrec import (
    ALL_PAIRS,
    AnchorSet,
    Dataset,
    ExactOracle,
    NodeRelabeling,
    SimpleGraph,
    WeightedHypergraph,
    align_by_hyperedge_ids,
    align_exact,
    align_wl_anchored,
    build_meta_graph,
    color_classes,
    dissimilarity,
    edge,
    fuse_datasets,
    lemma_rr_bounds,
    line_graph,
    lower_bound_risk,
    mm_path_length_bound,
    mm_sample_bounds,
    normalize,
    recover_from_dataset,
    recover_from_oracle,
    recovery_report,
    relabel,
    sample_dataset,
    sample_mm_dataset,
    train_tabular,
    uniform_single_mask,
    wl_refine,
)
from hgrec.bounds import BoundsInput
from hgrec.generators import assign_weights, chain, frucht, star, wcgnm, x_graph
from hgrec.rng import derive_seed
from conftest import meta_neighbours, random_connected_graph, random_relabeling

STRATEGY = uniform_single_mask()
MASK64 = (1 << 64) - 1


def verdict(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def seed_for(*parts) -> int:
    return derive_seed(2024, "acceptance", *parts) & MASK64


# -- shared expensive computations -------------------------------------------------


@pytest.fixture(scope="module")
def star6_kappa10():
    return assign_weights(star(6), 1.0, 10.0, seed=1)


@pytest.fixture(scope="module")
def plugin_error_grid(star6_kappa10):
    """Per-N plug-in errors over 20 seeds for STAR(6), kappa=10, plus elapsed seconds."""
    grid = (100, 1000, 10_000, 100_000)
    start = time.perf_counter()
    errors = {}
    for n in grid:
        errors[n] = [
            recovery_report(
                recover_from_dataset(sample_dataset(star6_kappa10, n, seed_for(2, n, s))),
                star6_kappa10,
            ).weighted_error
            for s in range(20)
        ]
    return errors, time.perf_counter() - start


@pytest.fixture(scope="module")
def star_size_errors():
    """Mean plug-in error at N=1e5, kappa=1, for STAR(n) with m in {9, 49, 99}."""
    means = {}
    for n in (10, 50, 100):
        truth = assign_weights(star(n), 1.0, 1.0, seed=1)
        errs = [
            recovery_report(
                recover_from_dataset(sample_dataset(truth, 100_000, seed_for(4, n, s))),
                truth,
            ).weighted_error
            for s in range(20)
        ]
        means[truth.m] = float(np.mean(errs))
    return means


# -- criterion 1: exact-oracle identity ----------------------------------------------


def test_criterion_1_exact_oracle_identity():
    instances = [
        ("STAR(4)", star(4)),
        ("STAR(6)", star(6)),
        ("X(6)", x_graph(6)),
        ("CHAIN(4)", chain(4)),
        ("CHAIN(6)", chain(6)),
        ("WCGNM(10,0.2)", wcgnm(10, 0.2, seed=3)),
    ]
    start = time.perf_counter()
    worst = 0.0
    for name, base in instances:
        for w_max in (1.0, 10.0):
            truth = assign_weights(base, 1.0, w_max, seed=7)
            recovered, connected = recover_from_oracle(
                ExactOracle(truth, STRATEGY), ALL_PAIRS, STRATEGY
            )
            assert connected, name
            worst = max(worst, recovery_report(recovered, truth).weighted_error)
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 1 (exact-oracle identity)",
        worst <= 1e-9 and elapsed < 1.0,
        f"max d = {worst:.2e}, runtime {elapsed:.2f}s",
    )


# -- criteria 2-5: plug-in convergence and scaling --------------------------------------


def test_criterion_2_plugin_convergence(plugin_error_grid):
    errors, elapsed = plugin_error_grid
    medians = [float(np.median(errors[n])) for n in sorted(errors)]
    mean_at_1e5 = float(np.mean(errors[100_000]))
    ok = (
        all(a > b for a, b in zip(medians, medians[1:]))
        and mean_at_1e5 < 0.02
        and elapsed < 30.0
    )
    verdict(
        "criterion 2 (plug-in convergence)",
        ok,
        f"medians {['%.4f' % m for m in medians]}, mean@1e5 {mean_at_1e5:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_sqrt_n_scaling(plugin_error_grid):
    from hgrec import fit_scaling

    errors, _ = plugin_error_grid
    rows = [{"N": n, "d": d} for n, ds in errors.items() for d in ds]
    slope, _ = fit_scaling(rows, "N", "d")
    verdict(
        "criterion 3 (1/sqrt(N) scaling)",
        -0.6 <= slope <= -0.4,
        f"log-log slope {slope:.3f}",
    )


def test_criterion_4_sqrt_m_scaling(star_size_errors):
    ratio = star_size_errors[99] / star_size_errors[9]
    target = math.sqrt(99 / 9)
    ok = target * 0.7 <= ratio <= target * 1.3
    verdict(
        "criterion 4 (sqrt(m) scaling)",
        ok,
        f"d(m=99)/d(m=9) = {ratio:.3f}, band [{target * 0.7:.3f}, {target * 1.3:.3f}]",
    )


def test_criterion_5_minimax_direction(plugin_error_grid, star_size_errors):
    errors, _ = plugin_error_grid
    cells = [(5, n, float(np.mean(ds))) for n, ds in errors.items()]
    cells += [(m, 100_000, d) for m, d in star_size_errors.items()]
    violations = [
        (m, n) for m, n, d in cells if n >= m and d < lower_bound_risk(m, n)
    ]
    verdict(
        "criterion 5 (minimax floor respected)",
        not violations,
        f"{len(cells)} cells checked, violations: {violations}",
    )


# -- criterion 6: MM recovery at the reference training regime ----------------------------


def test_criterion_6_mm_recovery(star6_kappa10):
    exact_sketch = 0
    errs = []
    for s in range(20):
        mm = sample_mm_dataset(star6_kappa10, 80_000, 1, STRATEGY, seed_for(6, s))
        recovered, connected = recover_from_oracle(train_tabular(mm.counts()), ALL_PAIRS, STRATEGY)
        report = recovery_report(recovered, star6_kappa10, meta_connected=connected)
        if not report.sketch_missing and not report.sketch_spurious:
            exact_sketch += 1
        errs.append(report.weighted_error)
    mean_d = float(np.mean(errs))
    verdict(
        "criterion 6 (MM recovery at N=80000, K=1)",
        exact_sketch >= 19 and mean_d < 0.05,
        f"exact sketch {exact_sketch}/20, mean d {mean_d:.4f}",
    )


# -- criterion 7: meta-graph facts ----------------------------------------------------------


def test_criterion_7_meta_graph_facts():
    l_star = mm_path_length_bound(build_meta_graph(normalize(star(6)), STRATEGY))
    chain_ls = {
        n: mm_path_length_bound(build_meta_graph(normalize(chain(n)), STRATEGY))
        for n in (4, 5, 6)
    }
    rng = random.Random(77)
    line_match = True
    for h in [normalize(star(6)), normalize(chain(5))] + [
        random_connected_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 4))
        for _ in range(10)
    ]:
        mg = build_meta_graph(h, STRATEGY)
        meta_edges = {
            tuple(sorted((a.key, b.key))) for a, nb in meta_neighbours(mg).items() for b in nb
        }
        if meta_edges != set(line_graph(h).edges):
            line_match = False
    ok = l_star == 2 and all(chain_ls[n] == n - 1 for n in chain_ls) and line_match
    verdict(
        "criterion 7 (meta-graph facts)",
        ok,
        f"L(STAR6)={l_star}, L(CHAIN n)={chain_ls}, meta==line graph: {line_match}",
    )


# -- criterion 8: alignment suite -------------------------------------------------------------


@lru_cache(maxsize=None)
def all_permutations(n: int) -> np.ndarray:
    """Every permutation of ``range(n)``, one per row, built once per ``n`` (read-only)."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def perm_scan_cost(h1, h2) -> float:
    """Independent reference: dense-matrix cost scan over every bijection."""
    v1, v2 = h1.nodes, h2.nodes
    n = len(v1)
    idx1 = {v: i for i, v in enumerate(v1)}
    idx2 = {v: i for i, v in enumerate(v2)}
    w2 = np.zeros((n, n))
    for e, w in h2.edges.items():
        a, b = idx2[e.nodes[0]], idx2[e.nodes[1]]
        w2[a, b] = w2[b, a] = w
    perms = all_permutations(n)
    cost = np.zeros(len(perms))
    mapped = np.zeros(len(perms))
    for e, w in h1.edges.items():
        a, b = idx1[e.nodes[0]], idx1[e.nodes[1]]
        hit = w2[perms[:, a], perms[:, b]]
        cost += np.abs(w - hit)
        mapped += hit
    cost += h2.total_weight - mapped
    return float(cost.min())


def naive_union_cost(h1, h2) -> float:
    """Second reference for small n: literal union-sum over every bijection."""
    best = float("inf")
    for perm in permutations(h2.nodes):
        phi = NodeRelabeling(dict(zip(h1.nodes, perm)))
        best = min(best, dissimilarity(relabel(h1, phi), h2))
    return best


def test_criterion_8a_exact_alignment():
    rng = random.Random(88)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        h1 = random_connected_graph(rng, n, extra=rng.randint(0, n))
        phi = random_relabeling(rng, h1)
        h2 = relabel(h1, phi)
        a = align_exact(h1, h2)
        assert a.cost == 0.0 and relabel(h1, a.mapping) == h2
        assert perm_scan_cost(h1, h2) <= 1e-12
        if n <= 5:
            assert naive_union_cost(h1, h2) <= 1e-12
        checked += 1
    # nonzero-cost agreement with the reference
    for _ in range(5):
        h1 = random_connected_graph(rng, 5, extra=2)
        h2 = random_connected_graph(rng, 5, extra=1)
        assert align_exact(h1, h2).cost == pytest.approx(perm_scan_cost(h1, h2), abs=1e-12)
    verdict(
        "criterion 8a (exact alignment)",
        checked == 200,
        f"{checked} relabeled pairs at cost 0, reference agreement incl. 5 nonzero cases",
    )


def test_criterion_8b_identifier_alignment():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(3, 8)
        h1 = random_connected_graph(rng, n, extra=rng.randint(0, n))
        phi = random_relabeling(rng, h1)
        h2 = relabel(h1, phi)
        pairs = [(e, phi.apply_edge(e)) for e in h1.edge_set]
        a = align_by_hyperedge_ids(h1, h2, pairs)
        assert a.cost <= 1e-12 and relabel(h1, a.mapping) == h2

    big = normalize(star(10_000))
    targets = [f"t{i}" for i in range(10_000)]
    rng.shuffle(targets)
    phi = NodeRelabeling(dict(zip(big.nodes, targets)))
    big2 = relabel(big, phi)
    pairs = [(e, phi.apply_edge(e)) for e in big.edge_set]
    start = time.perf_counter()
    a = align_by_hyperedge_ids(big, big2, pairs)
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 8b (identifier alignment)",
        a.cost <= 1e-12 and elapsed < 5.0,
        f"200 small pairs ok, STAR(10^4) aligned in {elapsed:.2f}s",
    )


def test_criterion_8c_frucht_wl_ir():
    h1 = normalize(frucht())
    g = SimpleGraph(h1.nodes, [(e.nodes[0], e.nodes[1]) for e in h1.edge_set])
    uniform_classes = len(color_classes(wl_refine(g)))

    init = {v: 0 for v in g.vertices}
    init["0"] = 1
    individualized_classes = len(color_classes(wl_refine(g, init)))

    phi = NodeRelabeling({str(i): str((i * 7 + 5) % 12) for i in range(12)})
    h2 = relabel(h1, phi)
    anchored = align_wl_anchored(h1, h2, AnchorSet(node_pairs=(("0", phi["0"]),)))
    anchored_ok = (
        anchored is not None
        and anchored.backtracks == 0
        and dict(anchored.mapping.pairs) == dict(phi.pairs)
    )

    sweep = [
        j
        for j in range(12)
        if align_wl_anchored(h1, normalize(frucht()), AnchorSet(node_pairs=(("0", str(j)),)))
        is not None
    ]
    ok = (
        uniform_classes == 1
        and individualized_classes == 12
        and anchored_ok
        and sweep == [0]
    )
    verdict(
        "criterion 8c (Frucht WL/IR)",
        ok,
        f"uniform classes {uniform_classes}, individualized {individualized_classes}, "
        f"anchored backtracks {None if anchored is None else anchored.backtracks}, "
        f"sweep matches {sweep}",
    )


# -- criterion 9: multimodal fusion -------------------------------------------------------------


def test_criterion_9_fusion(star6_kappa10):
    phi = NodeRelabeling({str(i): f"m{i}" for i in range(6)})
    h2 = relabel(star6_kappa10, phi)
    bit_identical = True
    d_fused, d_single = [], []
    for s in range(20):
        d1 = sample_dataset(star6_kappa10, 10_000, seed_for(9, s, 0))
        d2 = sample_dataset(h2, 10_000, seed_for(9, s, 1))
        fused = fuse_datasets(d1, d2, phi)
        manual = Dataset(tuple(phi.apply_edge(e) for e in d1.samples) + d2.samples)
        if recover_from_dataset(fused).edges != recover_from_dataset(manual).edges:
            bit_identical = False
        d_fused.append(recovery_report(recover_from_dataset(fused), h2).weighted_error)
        only_d1 = fuse_datasets(d1, Dataset(()), phi)
        d_single.append(recovery_report(recover_from_dataset(only_d1), h2).weighted_error)
    mean_fused, mean_single = float(np.mean(d_fused)), float(np.mean(d_single))
    verdict(
        "criterion 9 (fusion)",
        bit_identical and mean_fused < mean_single,
        f"bit-identical {bit_identical}, mean d fused {mean_fused:.4f} < single {mean_single:.4f}",
    )


# -- criterion 10: bounds formulas ------------------------------------------------------------------


def test_criterion_10_bounds():
    exact = lower_bound_risk(100, 10_000) == 0.00625

    lemma_ok = True
    for m0 in (2, 3, 5):
        for kappa0 in (1, 2, 3):
            lo, hi = lemma_rr_bounds(m0, kappa0)
            rng = np.random.default_rng(derive_seed(10, "lemma", m0, kappa0))
            draws = np.where(rng.integers(0, 2, size=(1000, m0)) == 1, float(kappa0), 1.0)
            probs = draws / draws.sum(axis=1, keepdims=True)
            if probs.min(axis=1).min() < lo - 1e-12 or probs.max(axis=1).max() > hi + 1e-12:
                lemma_ok = False

    base = BoundsInput(m=10, kappa=3, L=2, c_pi=0.5, C_pi=2, epsilon=0.1, delta=0.1)
    k0, n0 = mm_sample_bounds(base)
    monotone = True
    for field, value, direction in [
        ("epsilon", 0.05, "up"),
        ("delta", 0.05, "up"),
        ("m", 20, "up"),
        ("kappa", 6.0, "up"),
        ("L", 4, "up"),
        ("C_pi", 4.0, "up"),
        ("c_pi", 0.25, "up"),
        ("epsilon", 0.2, "down"),
        ("c_pi", 1.0, "down"),
    ]:
        kwargs = dict(m=10, kappa=3, L=2, c_pi=0.5, C_pi=2, epsilon=0.1, delta=0.1)
        kwargs[field] = value
        k1, n1 = mm_sample_bounds(BoundsInput(**kwargs))
        if direction == "up" and (k1 < k0 or n1 < n0):
            monotone = False
        if direction == "down" and (k1 > k0 or n1 > n0):
            monotone = False
    verdict(
        "criterion 10 (bounds formulas)",
        exact and lemma_ok and monotone,
        f"lower bound exact {exact}, lemma property {lemma_ok}, monotonicity {monotone}",
    )


# -- criterion 11: kg-eval offline -------------------------------------------------------------------


def test_criterion_11_kg_eval_offline(tmp_path):
    from hgrec.cli import main
    from hgrec.kgeval import prompt_key, render_prompt
    from conftest import KG_RESPONSE, KG_TSV

    golden = Path(__file__).parent / "data" / "prompt_golden.txt"
    golden_ok = render_prompt(["table", "furniture"], 2).encode() == golden.read_bytes()

    kg = tmp_path / "kg.tsv"
    kg.write_text(KG_TSV, encoding="utf-8")
    prompt = render_prompt(["table", "furniture", "house", "room"], 2)
    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / f"{prompt_key(prompt)}.txt").write_text(KG_RESPONSE, encoding="utf-8")

    reports = []
    score = None
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        code = main([
            "kg-eval", "--kg", str(kg), "--source", "table", "-k", "2", "-d", "2",
            "--responses-dir", str(responses), "-o", str(out),
        ])
        assert code == 0
        reports.append(out.read_bytes())
        import json

        score = json.loads(out.read_text(encoding="utf-8"))["score"]
    verdict(
        "criterion 11 (kg-eval offline)",
        score == 0.75 and golden_ok and reports[0] == reports[1],
        f"score {score}, prompt golden byte-equal {golden_ok}, replay byte-stable {reports[0] == reports[1]}",
    )
