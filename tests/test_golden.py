"""Byte-identity pins: the sha256 of fixed-seed outputs at small sizes.

A refactor that must not change any output proves it here. When a change is
meant to alter an output, update the digest in the same commit and say why.
"""

import csv
import hashlib
import io
import random

from hgrec import (
    AnchorSet,
    NodeRelabeling,
    SimpleGraph,
    WeightedHypergraph,
    align_exact,
    align_wl_anchored,
    build_meta_graph,
    edge,
    encode,
    mm_path_length_bound,
    normalize,
    relabel,
    uniform_single_mask,
    wl_refine,
)
from hgrec.alignment import format_alignment
from hgrec.cli import main
from hgrec.generators import GeneratorSpec, chain, frucht, star
from hgrec.sweep import SweepConfig, rows_to_csv, run_sweep

STRATEGY = uniform_single_mask()

PIPELINE_DIGESTS = {
    "g.hg": "e336c77dac795f32cca5142e07fdbd1e4d9af6b064b787dd2577265fc3bf5673",
    "d.ds": "3aea1035043aec8a17e07ab499dbf62a4271bac3226e5ded8e062e902b41a5e9",
    "d.mm": "d62e5925330d9a01329b516637555beca44e083c2f9beaa3714ebdd1770112b3",
    "o.json": "2a4b2c65c8c5f82e417ded243976b7e515739a889813d84cbc4840247fe155fd",
    "rec.hg": "ad38754940f382d691a09966b7fbbed1ea2bafe950a080c4de0a34faa390b471",
    "recover.stdout": "0bf33a2b7b79037a98b0ca173ea8b06eb995d5b31fae1c225fa6c38611d36b77",
    "report.json": "43aed3e75b4d9ca21d665756ca22358278a486a8c5112677b9321fc574acbc80",
}
EXACT_STAR_DIGEST = "1f6ef74ae31a6635a4c863b2ab069a2313b7e41ad3ac3596357b4733d72c99e5"
SWEEP_DIGEST = "85e77546f80f00ccbd3377eb4829705ce1605e81f45acae9293a7b4e5bdf5833"
# sha256 of the .hg text of GeneratorSpec("wcgnm", n, p, 1.0, 10.0, seed).build(). Seed 5 of
# wcgnm(500, 0.01) rejects 81 draws before its connected one; wcgnm(3000, 0.002) rejects 114.
WCGNM_DIGESTS = {
    (500, 0.01, 5): "2fc5e4e20ab68d94448703120a0d67f3d91db6c8f10ec19c342380d24b491e86",
    (3000, 0.002, 1): "1e13820f25c6a3f91b785133a0e0e7cb9e9a66ff513c1df61234be8253dded5a",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def test_readme_pipeline_bytes(tmp_path, capsys):
    p = {name: tmp_path / name for name in PIPELINE_DIGESTS}
    run("gen", "--structure", "wcgnm", "--n", 12, "--p", 0.3, "--w-min", 1, "--w-max", 10,
        "--seed", 11, "-o", p["g.hg"])
    run("sample", "--hypergraph", p["g.hg"], "-n", 300, "--seed", 12, "-o", p["d.ds"])
    run("mm-sample", "--hypergraph", p["g.hg"], "-n", 3000, "-k", 2, "--seed", 13,
        "-o", p["d.mm"])
    run("train", "--mm-data", p["d.mm"], "-o", p["o.json"])
    capsys.readouterr()
    run("recover", "--oracle", p["o.json"], "--candidates", "pairs", "-o", p["rec.hg"])
    p["recover.stdout"].write_text(capsys.readouterr().out, encoding="utf-8")
    run("report", "--truth", p["g.hg"], "--rec", p["rec.hg"], "-o", p["report.json"])
    got = {name: sha(path.read_bytes()) for name, path in p.items()}
    assert got == PIPELINE_DIGESTS


def test_exact_recover_star_bytes(tmp_path):
    g, rec = tmp_path / "g.hg", tmp_path / "rec.hg"
    run("gen", "--structure", "star", "--n", 9, "--w-min", 1, "--w-max", 10, "--seed", 21, "-o", g)
    run("recover", "--exact-from", g, "--candidates", "pairs", "-o", rec)
    assert sha(rec.read_bytes()) == EXACT_STAR_DIGEST


def test_wcgnm_bytes():
    for (n, p, seed), digest in WCGNM_DIGESTS.items():
        h = GeneratorSpec("wcgnm", n, p, 1.0, 10.0, seed).build()
        assert sha(encode(h).encode("utf-8")) == digest, (n, p, seed)


def test_path_length_bounds():
    wcgnm = GeneratorSpec(structure="wcgnm", n=30, p=0.15, seed=31).build()
    got = [
        mm_path_length_bound(build_meta_graph(h, STRATEGY))
        for h in (normalize(star(12)), normalize(chain(9)), wcgnm)
    ]
    assert got == [2, 8, 6]


def test_sweep_csv_bytes():
    cfg = SweepConfig.from_dict({
        "instances": [
            {"structure": "star", "n": 6, "w_min": 1.0, "w_max": 10.0},
            {"structure": "wcgnm", "n": 10, "p": 0.4, "w_min": 1.0, "w_max": 5.0},
        ],
        "n_grid": [200, 800],
        "k_grid": [1, 3],
        "num_seeds": 2,
    })
    rows = list(csv.DictReader(io.StringIO(rows_to_csv(run_sweep(cfg)))))
    assert all(row["status"] == "ok" for row in rows)
    buf = io.StringIO()
    columns = [c for c in rows[0] if c != "runtime_ms"]
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert sha(buf.getvalue().encode("utf-8")) == SWEEP_DIGEST


def shuffled(h, seed):
    """``h`` with its node names permuted among themselves."""
    nodes = list(h.nodes)
    perm = nodes[:]
    random.Random(seed).shuffle(perm)
    return relabel(h, NodeRelabeling(dict(zip(nodes, perm))))


def random_cubic(rng, n):
    """A uniform-weight simple 3-regular graph on ``n`` nodes (pairing model, rejection)."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return normalize(WeightedHypergraph({edge(str(a), str(b)): 1.0 for a, b in pairs}))


# (sha256 of format_alignment, backtracks) for align_wl_anchored(h, shuffled(h, seed)).
ALIGNMENT_PINS = {
    "star60": ("5cbb413c58155c6a0ea3a8062efbd1e31e5a216993a787c52adc337415991869", 0),
    "wcgnm60": ("ba053bc178ee7b566d2f02971d5ac8d100b14d2a9ddfb9008950ec02d79f77d5", 0),
    "frucht": ("ecef99bfeca6fd882fa3fe43d269a4be6f0264018ca5ea1fead6d3e39b54ae65", 9),
    "cubic16": ("c704c53f6961300970d3385c4c3b31f83d262b528ccafb5d74d223da3e0f21a0", 4),
}


def test_wl_ir_alignment_bytes():
    cases = {
        "star60": (normalize(star(60)), 1),
        "wcgnm60": (GeneratorSpec("wcgnm", 60, 0.1, 1.0, 10.0, 7).build(), 2),
        "frucht": (normalize(frucht()), 2),
        "cubic16": (random_cubic(random.Random(3), 16), 3),
    }
    got = {}
    for label, (h, seed) in cases.items():
        a = align_wl_anchored(h, shuffled(h, seed))
        got[label] = (sha(format_alignment(a).encode("utf-8")), a.backtracks)
    assert got == ALIGNMENT_PINS


def test_wl_refine_frucht_colorings():
    h = normalize(frucht())
    g = SimpleGraph(h.nodes, [(e.nodes[0], e.nodes[1]) for e in h.edge_set])
    assert wl_refine(g) == {v: 0 for v in g.vertices}
    init = {v: 0 for v in g.vertices}
    init["0"] = 1
    assert wl_refine(g, init) == {
        "0": 0, "1": 1, "10": 2, "11": 3, "2": 4, "3": 5,
        "4": 6, "5": 7, "6": 8, "7": 9, "8": 10, "9": 11,
    }


def random_mixed(rng, n, m):
    """``m`` distinct hyperedges of 2 to 4 of ``n`` nodes, weights 1 to 4, normalized.

    Redrawn until every node is covered, so two draws with the same ``n`` have
    the same node count; the few weight values make many equal-cost mappings.
    """
    nodes = [f"v{i}" for i in range(n)]
    while True:
        edges = {edge(*rng.sample(nodes, rng.randint(2, 4))) for _ in range(m)}
        if len({v for e in edges for v in e}) == n:
            return normalize(WeightedHypergraph({e: float(rng.randint(1, 4)) for e in sorted(edges)}))


# sha256 of format_alignment(align_exact(h1, h2)); `#cost` is printed with .17g.
EXACT_ALIGNMENT_PINS = {
    "relabeled0": "288200e3b461dc233c4ef719f8b80e9467a54c690350755891a893460f48174a",
    "relabeled1": "77eede5d3779495d25c220f930720a6c06117f8017a50a3522598177e0629549",
    "different0": "85edd9dc9bf51a324d1e954df7adc8baeb579461bd09a780f727e0d026d1181a",
    "different1": "0ca7a0cf8c3756a2d4d0bba3aa8fe19e885d3f69835fc44558c926611d8634a2",
    "mixed0": "20c594ac1333e7efa33cb560a486ce0f23986952246df564afe4ab6bad83781b",
    "mixed1": "2cb0a76c6564d3f61d554f2ebe35c7f2e6b1625dacdf9dbabb1021f630d244ea",
    "mixed2": "84d730706eec878667f734b43d014f2b3c93f92a92fc5b33f1e460e1866e777c",
    "mixed_relabeled": "d0e9c3006ee757393f2c7f9156d37b3809ab89c0c7f72d849c1cec5334cf128d",
    "cubic_relabeled": "855dc9598aef8fc2ec4a7ee37abefba12f9d130f3815d578b7ce1bea2b664a0b",
    "cubic_different": "c378844a5f567b9d8ffe30d8e03f7cc34f54c34668c61299eac882913cb76420",
    "star_chain": "1003fa224ac9aeed686197181ac8e1c18f0e2a85ec6dab7ca531f40d3b0fdca4",
    "mixed_small0": "abd42260bce0a568fce2cd5fc4cba29cde4d1d981c6d93c747b1f58536b9b89d",
    "mixed_small1": "856cf3f66d363892b8c777aceebd2435741ba9186560988f6ce5686446e2e7ef",
    "mixed_small2": "4b40bf7cf7c96144acefdaf8bd9926a057a062a8f11b35c780ee1adec2a921bf",
    "mixed_small3": "bc7b24aa5dce0e82c7a20f7589d499ea1ae0597ea0f1def28d303c68dad2795d",
}


def exact_alignment_cases():
    rng = random.Random(41)
    cases = {}
    for i in range(2):
        h = GeneratorSpec("wcgnm", 8, 0.4, 1.0, 10.0, 50 + i).build()
        cases[f"relabeled{i}"] = (h, shuffled(h, 60 + i))
    for i in range(2):
        cases[f"different{i}"] = (
            GeneratorSpec("wcgnm", 7, 0.5, 1.0, 10.0, 70 + 2 * i).build(),
            GeneratorSpec("wcgnm", 7, 0.5, 1.0, 10.0, 71 + 2 * i).build(),
        )
    for i in range(3):
        h = random_mixed(rng, 7, 6 + i)
        cases[f"mixed{i}"] = (h, random_mixed(rng, 7, 5 + 2 * i))
    h = random_mixed(rng, 7, 7)
    cases["mixed_relabeled"] = (h, shuffled(h, 80))
    cube = random_cubic(rng, 8)
    cases["cubic_relabeled"] = (cube, shuffled(cube, 81))
    cases["cubic_different"] = (cube, random_cubic(rng, 8))
    cases["star_chain"] = (normalize(star(8)), normalize(chain(8)))
    for i in range(4):
        cases[f"mixed_small{i}"] = (random_mixed(rng, 5, 3 + i), random_mixed(rng, 5, 6 - i))
    return cases


def test_exact_alignment_bytes():
    got = {
        label: sha(format_alignment(align_exact(h1, h2)).encode("utf-8"))
        for label, (h1, h2) in exact_alignment_cases().items()
    }
    assert got == EXACT_ALIGNMENT_PINS


# -- seeded family of anchored searches and colorings ---------------------------------


def relabeled(h, rng):
    """``h`` with its node names permuted among themselves, and the permutation."""
    nodes = list(h.nodes)
    perm = nodes[:]
    rng.shuffle(perm)
    phi = NodeRelabeling(dict(zip(nodes, perm)))
    return relabel(h, phi), phi


def circulant(n, jumps):
    """The unit-weight circulant graph C_n(jumps), normalized."""
    pairs = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return normalize(WeightedHypergraph({edge(str(a), str(b)): 1.0 for a, b in pairs}))


def anchor_variants(rng, h, phi):
    """No anchors, right and wrong node anchors, right and wrong edge anchors."""
    nodes, edges = h.nodes, h.edge_set
    v, w = rng.sample(nodes, 2)
    e, f = rng.sample(edges, 2)
    u = rng.choice(nodes)
    return {
        "none": AnchorSet(),
        "node": AnchorSet(node_pairs=((v, phi[v]),)),
        "node2": AnchorSet(node_pairs=((v, phi[v]), (u, phi[u])) if u != v else ((v, phi[v]),)),
        "wrong_node": AnchorSet(node_pairs=((v, phi[w]),)),
        "edge": AnchorSet(edge_pairs=((e, phi.apply_edge(e)),)),
        "wrong_edge": AnchorSet(edge_pairs=((e, phi.apply_edge(f)),)),
    }


def search_outcome(h1, h2, anchors):
    """``format_alignment`` plus ``backtracks``, ``None``, or the error's type and message."""
    try:
        a = align_wl_anchored(h1, h2, anchors)
    except Exception as exc:  # the pin records the failure, whichever it is
        return f"{type(exc).__name__}: {exc}\n"
    if a is None:
        return "None\n"
    return f"{format_alignment(a)}#backtracks {a.backtracks}\n"


def search_family():
    """(label, h1, h2, anchors) for 783 seeded ``align_wl_anchored`` cases."""
    rng = random.Random(20261018)
    cases = []
    for i in range(40):
        h = random_cubic(rng, rng.choice(range(8, 21, 2)))
        h2, phi = relabeled(h, rng)
        for kind, anchors in anchor_variants(rng, h, phi).items():
            cases.append((f"cubic{i}-{kind}", h, h2, anchors))
        cases.append((f"cubic{i}-other", h, random_cubic(rng, len(h.nodes)), AnchorSet()))
    for i, (n, jumps) in enumerate(
        (n, jumps)
        for n in range(6, 17)
        for jumps in ((1,), (1, 2), (1, 3), (2, 3), (1, n // 2))
        if max(jumps) < n - max(jumps)
    ):
        h = circulant(n, jumps)
        h2, phi = relabeled(h, rng)
        for kind, anchors in anchor_variants(rng, h, phi).items():
            if kind in ("none", "node", "wrong_node"):
                cases.append((f"circ{n}{jumps}-{kind}", h, h2, anchors))
    for n in range(7, 17):
        pair = (circulant(n, (1, 2)), circulant(n, (1, 3)))
        if len(pair[0].edges) == len(pair[1].edges):
            cases.append((f"circ{n}-12-13", pair[0], relabeled(pair[1], rng)[0], AnchorSet()))
    for i in range(50):
        n = rng.randint(5, 9)
        h = random_mixed(rng, n, rng.randint(n - 2, 2 * n))
        h2, phi = relabeled(h, rng)
        for kind, anchors in anchor_variants(rng, h, phi).items():
            cases.append((f"mixed{i}-{kind}", h, h2, anchors))
        other = random_mixed(rng, n, len(h.edges))
        cases.append((f"mixed{i}-other", h, other, AnchorSet()))
    h = normalize(star(7))
    cases.append(("sizes", h, normalize(star(8)), AnchorSet()))
    cases.append(("unknown", h, h, AnchorSet(node_pairs=(("0", "x"),))))
    return cases


SEARCH_FAMILY_DIGEST = "94db87f6219fa321b9ec5ecac44d60bc3685f291f3f61312135cae7509b36141"


def test_wl_ir_seeded_family_bytes():
    cases = search_family()
    assert len(cases) == 783
    text = "".join(f"{label}\n{search_outcome(h1, h2, anchors)}" for label, h1, h2, anchors in cases)
    assert sha(text.encode("utf-8")) == SEARCH_FAMILY_DIGEST


def wl_family():
    """(graph, initial coloring or None) for 200 seeded random graphs."""
    rng = random.Random(1018)
    cases = []
    for i in range(200):
        n = rng.randint(2, 24)
        vertices = [f"u{j}" for j in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.5))
        g = SimpleGraph(
            vertices, [(a, b) for k, a in enumerate(vertices) for b in vertices[k + 1:] if rng.random() < p]
        )
        initial = None
        if i % 2:
            k = rng.randint(1, 3)
            initial = {v: rng.randrange(k) for v in vertices}
            initial[vertices[0]] = 0
            initial = {v: sorted(set(initial.values())).index(c) for v, c in initial.items()}
        cases.append((g, initial))
    return cases


WL_FAMILY_DIGEST = "c572af074a32b59572290f8d39c3470cbe42b6da7b2cea2a83687634033f5d8f"


def test_wl_refine_seeded_family_bytes():
    text = "".join(
        repr(sorted(wl_refine(g, initial).items())) + "\n" for g, initial in wl_family()
    )
    assert sha(text.encode("utf-8")) == WL_FAMILY_DIGEST
