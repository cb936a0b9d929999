import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from hgrec import NodeRelabeling, WeightedHypergraph, edge, relabel
from hgrec.alignment import parse_node_mapping
from hgrec.bounds import load_csv
from hgrec.cli import _load_subgraph, build_parser, main
from hgrec.core import load_hypergraph, save_hypergraph
from hgrec.errors import HgrecError, ParseError
from hgrec.kgeval import prompt_key, render_prompt
from conftest import (
    JSON_NUMBERS,
    JSON_VALUES,
    KG_RESPONSE,
    KG_TSV,
    READER_TEXTS,
    closed_port,
    file_lines,
    json_objects,
    traced_peak,
    write_repeated_records,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def quickstart(workdir: Path) -> dict[str, Path]:
    """The documented gen -> sample -> mm-sample -> train -> recover -> report chain."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {name: workdir / name for name in (
        "g.hg", "d.ds", "d.mm", "o.json", "rec.hg", "report.json",
    )}
    assert run("gen", "--structure", "star", "--n", 6, "--w-min", 1, "--w-max", 10,
               "--seed", 1, "-o", paths["g.hg"]) == 0
    assert run("sample", "--hypergraph", paths["g.hg"], "-n", 500, "--seed", 2,
               "-o", paths["d.ds"]) == 0
    assert run("mm-sample", "--hypergraph", paths["g.hg"], "-n", 2000, "-k", 1,
               "--seed", 3, "-o", paths["d.mm"]) == 0
    assert run("train", "--mm-data", paths["d.mm"], "-o", paths["o.json"]) == 0
    assert run("recover", "--oracle", paths["o.json"], "--candidates", "pairs",
               "--mask", "uniform1", "-o", paths["rec.hg"]) == 0
    assert run("report", "--truth", paths["g.hg"], "--rec", paths["rec.hg"],
               "-o", paths["report.json"]) == 0
    return paths


def test_full_pipeline_and_formats(tmp_path):
    paths = quickstart(tmp_path)
    report = json.loads(paths["report.json"].read_text(encoding="utf-8"))
    assert report["sketch_missing"] == [] and report["sketch_spurious"] == []
    assert 0.0 <= report["d"] < 0.5
    rec = load_hypergraph(paths["rec.hg"])
    assert rec.normalized and rec.m == 5


def test_pipeline_is_byte_deterministic(tmp_path):
    a = quickstart(tmp_path / "a")
    b = quickstart(tmp_path / "b")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes(), name


def test_exact_oracle_recover(tmp_path):
    g = tmp_path / "g.hg"
    rec = tmp_path / "rec.hg"
    assert run("gen", "--structure", "chain", "--n", 4, "--w-min", 1, "--w-max", 10,
               "--seed", 5, "-o", g) == 0
    assert run("recover", "--exact-from", g, "--candidates", "pairs", "-o", rec) == 0
    truth = load_hypergraph(g)
    from hgrec import dissimilarity

    assert dissimilarity(load_hypergraph(rec), truth) <= 1e-9


def test_recover_candidate_file_matches_all_pairs(tmp_path):
    g, by_pairs, by_file = tmp_path / "g.hg", tmp_path / "pairs.hg", tmp_path / "file.hg"
    assert run("gen", "--structure", "star", "--n", 6, "--w-min", 1, "--w-max", 10,
               "--seed", 1, "-o", g) == 0
    lines = [" ".join(e.nodes) for e in load_hypergraph(g).edge_set]
    cands = tmp_path / "cands.txt"
    cands.write_text("\n".join(["1 2", *lines, "", "3 5", "2 4"]) + "\n", encoding="utf-8")
    assert run("recover", "--exact-from", g, "--candidates", "pairs", "-o", by_pairs) == 0
    assert run("recover", "--exact-from", g, "--candidates", cands, "-o", by_file) == 0
    assert by_file.read_bytes() == by_pairs.read_bytes()


def test_recover_bad_candidate_line_names_it(tmp_path, capsys):
    g, cands = tmp_path / "g.hg", tmp_path / "cands.txt"
    assert run("gen", "--structure", "star", "--n", 4, "-o", g) == 0
    cands.write_text("0 1\n0 2\n3\n", encoding="utf-8")
    code = run("recover", "--exact-from", g, "--candidates", cands, "-o", tmp_path / "rec.hg")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag, text, line", [
    ("--anchors", "node 0 1\nedge 0+1\n", 2),
    ("--anchors", "# anchors\n\nedge 0+1 1\n", 3),
    ("--anchors", "node 0 1\nnode 1+2 2\n", 2),
    ("--anchors", "node _ 0\n", 1),
    ("--edge-pairs", "0+1 0+1\n0+2 0+2+\n", 2),
    ("--relabel", "0 0\n1\n", 2),
    ("--mapping", "# phi\n0 0\n1 1+2\n", 3),
])
def test_alignment_text_errors_name_the_line(tmp_path, capsys, flag, text, line):
    g, d, bad = tmp_path / "g.hg", tmp_path / "d.ds", tmp_path / "bad.txt"
    assert run("gen", "--structure", "star", "--n", 4, "-o", g) == 0
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    if flag == "--relabel":
        argv = ("report", "--truth", g, "--rec", g, "--relabel", bad, "-o", out)
    elif flag == "--mapping":
        assert run("sample", "--hypergraph", g, "-n", 10, "--seed", 1, "-o", d) == 0
        argv = ("fuse", "--d1", d, "--d2", d, "--mapping", bad, "-o", out)
    else:
        method = "wl-ir" if flag == "--anchors" else "ids"
        argv = ("align", "--h1", g, "--h2", g, "--method", method, flag, bad, "-o", out)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and f"line {line}:" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag, text, line", [
    ("--anchors", "node 0 1\nnode 0 2\n", 2),
    ("--relabel", "0 0\n1 1\n2 1\n", 3),
])
def test_alignment_text_repeats_name_the_line(tmp_path, capsys, flag, text, line):
    g, bad = tmp_path / "g.hg", tmp_path / "bad.txt"
    assert run("gen", "--structure", "star", "--n", 4, "-o", g) == 0
    bad.write_text(text, encoding="utf-8")
    if flag == "--relabel":
        argv = ("report", "--truth", g, "--rec", g, "--relabel", bad)
    else:
        argv = ("align", "--h1", g, "--h2", g, "--method", "wl-ir", "--anchors", bad)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: NotABijection: line {line}:") and err.count("\n") == 1


def test_align_ids_without_edge_pairs_exits_1(tmp_path, capsys):
    g = tmp_path / "g.hg"
    assert run("gen", "--structure", "star", "--n", 4, "-o", g) == 0
    capsys.readouterr()
    assert run("align", "--h1", g, "--h2", g, "--method", "ids") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--edge-pairs" in err and err.count("\n") == 1


@pytest.mark.parametrize("method, flag, value", [
    pytest.param(method, flag, value, id=f"{method}-{flag}") for method, flag, value in [
        ("wl-ir", "--edge-pairs", None),
        ("exact", "--edge-pairs", None),
        ("exact", "--anchors", None),
        ("ids", "--anchors", None),
        ("wl-ir", "--max-nodes", 3),
        ("ids", "--max-nodes", 3),
    ]
])
def test_align_rejects_the_input_flag_of_another_method(tmp_path, capsys, method, flag, value):
    """``value`` None stands for a file of nonsense."""
    g, junk, pairs = tmp_path / "g.hg", tmp_path / "junk.txt", tmp_path / "pairs.txt"
    assert run("gen", "--structure", "star", "--n", 4, "-o", g) == 0
    junk.write_text("nonsense file\n", encoding="utf-8")
    pairs.write_text("0+1 0+1\n0+2 0+2\n0+3 0+3\n", encoding="utf-8")
    extra = ("--edge-pairs", pairs) if method == "ids" else ()
    capsys.readouterr()
    assert run("align", "--h1", g, "--h2", g, "--method", method, flag, junk if value is None else value,
               *extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError:") and flag in captured.err
    assert captured.err.count("\n") == 1


def test_align_anchors_accept_an_exact_repeat(tmp_path, capsys):
    g, anchors, out = tmp_path / "g.hg", tmp_path / "anchors.txt", tmp_path / "al.txt"
    assert run("gen", "--structure", "star", "--n", 4, "-o", g) == 0
    anchors.write_text("node 1 1\nnode 1 1\nedge 0+2 0+2\nedge 2+0 0+2\n", encoding="utf-8")
    capsys.readouterr()
    assert run("align", "--h1", g, "--h2", g, "--method", "wl-ir", "--anchors", anchors, "-o", out) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8") == "0 0\n1 1\n2 2\n3 3\n#cost 0\n"


def test_align_ids_writes_the_alignment(tmp_path):
    h1, h2, pairs, out = (tmp_path / name for name in ("a.hg", "b.hg", "pairs.txt", "al.txt"))
    g = WeightedHypergraph({edge("a", "b"): 1.0, edge("b", "c"): 2.0, edge("c", "d"): 3.0})
    phi = NodeRelabeling({"a": "w", "b": "x", "c": "y", "d": "z"})
    save_hypergraph(g, h1)
    save_hypergraph(relabel(g, phi), h2)
    pairs.write_text("a+b w+x\nb+c x+y\nc+d y+z\n", encoding="utf-8")
    assert run("align", "--h1", h1, "--h2", h2, "--method", "ids", "--edge-pairs", pairs, "-o", out) == 0
    assert out.read_text(encoding="utf-8") == "a w\nb x\nc y\nd z\n#cost 0\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 2


def test_recover_has_no_aggregation_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("recover", "--exact-from", tmp_path / "g.hg", "--aggregation", "first",
            "-o", tmp_path / "rec.hg")
    assert exc.value.code == 2
    assert "--aggregation" in capsys.readouterr().err


#: The fewest arguments each subcommand parses with; no file is read at parse time.
MINIMAL_ARGV = {
    "gen": ["--structure", "star", "-o", "g.hg"],
    "sample": ["--hypergraph", "g.hg", "-n", "1", "-o", "d.ds"],
    "mm-sample": ["--hypergraph", "g.hg", "-n", "1", "-o", "d.mm"],
    "train": ["--mm-data", "d.mm", "-o", "o.json"],
    "recover": ["--exact-from", "g.hg", "-o", "rec.hg"],
    "report": ["--truth", "g.hg", "--rec", "rec.hg"],
    "align": ["--h1", "a.hg", "--h2", "b.hg", "--method", "exact"],
    "fuse": ["--d1", "a.ds", "--d2", "b.ds", "--mapping", "map.txt", "-o", "f.ds"],
    "bounds": ["--m", "10", "--kappa", "3", "-L", "2", "--c-pi", "0.5", "--C-pi", "2",
               "--epsilon", "0.1", "--delta", "0.1"],
    "sweep": ["--config", "sweep.json", "-o", "rows.csv"],
    "fit": ["--csv", "rows.csv"],
    "kg-ingest": ["--tsv", "kg.tsv"],
    "kg-extract": ["--kg", "kg.tsv", "--source", "table", "-k", "2", "-d", "3"],
    "kg-prompt": ["--subgraph", "sub.json"],
    "kg-parse": ["--response", "resp.txt", "--subgraph", "sub.json"],
    "kg-chat": ["--prompt-file", "p.txt", "--responses-dir", "r"],
    "kg-eval": ["--kg", "kg.tsv", "--source", "table", "-k", "2", "-d", "3", "--responses-dir", "r"],
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


SUBCOMMANDS = sorted(subparsers())


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_seed_only_where_a_draw_reads_it(command, capsys):
    argv = [command, *MINIMAL_ARGV[command]]
    assert build_parser().parse_args(argv).command == command
    if command in ("gen", "sample", "mm-sample"):
        assert build_parser().parse_args([*argv, "--seed", "1"]).seed == 1
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    code = run("gen", "--structure", "star", "--n", 1, "-o", tmp_path / "x.hg")
    assert code == 1
    assert "InvalidSize" in capsys.readouterr().err


def test_recover_oracle_without_counts_exits_1(tmp_path, capsys):
    oracle = tmp_path / "o.json"
    oracle.write_text('{"format": "hgrec-oracle-v1"}', encoding="utf-8")
    code = run("recover", "--oracle", oracle, "-o", tmp_path / "rec.hg")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and err.count("\n") == 1


def test_recover_oracle_with_colliding_keys_exits_1(tmp_path, capsys):
    oracle = tmp_path / "o.json"
    oracle.write_text('{"format": "hgrec-oracle-v1", "counts": {"a|1": {"a+b": 2, "b+a": 5}}}',
                      encoding="utf-8")
    code = run("recover", "--oracle", oracle, "-o", tmp_path / "rec.hg")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and "'b+a'" in err and err.count("\n") == 1


@pytest.mark.parametrize("counts, message", [
    ({"a+b|x": {"a+b": 1}}, "masked key 'a+b|x': invalid literal for int()"),
    ({"a|1": {"a": 1}}, "completion key 'a' given 'a|1': a hyperedge needs at least 2 distinct nodes"),
])
def test_recover_oracle_bad_key_names_it(tmp_path, capsys, counts, message):
    oracle = tmp_path / "o.json"
    oracle.write_text(json.dumps({"format": "hgrec-oracle-v1", "counts": counts}), encoding="utf-8")
    assert run("recover", "--oracle", oracle, "-o", tmp_path / "rec.hg") == 1
    assert_one_error_line(capsys, message)


def test_sweep_bad_instance_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instances": [{"structure": "star", "n": 6, "bogus": 1}],
        "n_grid": [100],
        "k_grid": [1],
        "num_seeds": 1,
    }), encoding="utf-8")
    assert run("sweep", "--config", cfg, "-o", tmp_path / "rows.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and "'bogus'" in err and err.count("\n") == 1


@pytest.mark.parametrize("change, key", [
    ({"n_grid": [None]}, "'n_grid'"),
    ({"instances": [{"structure": "star", "n": "six"}]}, "instance 0 key 'n'"),
])
def test_sweep_wrong_value_type_exits_1(tmp_path, capsys, change, key):
    cfg = tmp_path / "cfg.json"
    doc = {"instances": [{"structure": "star", "n": 6}], "n_grid": [100], "k_grid": [1],
           "num_seeds": 1}
    cfg.write_text(json.dumps({**doc, **change}), encoding="utf-8")
    assert run("sweep", "--config", cfg, "-o", tmp_path / "rows.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and key in err and err.count("\n") == 1


@pytest.mark.parametrize("key", ["w_min", "w_max"])
def test_sweep_number_too_large_for_a_float_exits_1(tmp_path, capsys, key):
    """A weight no float holds is a config error, not an OverflowError from the row's kappa."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"structure": "star", "n": 6, key: 10 ** 400}],
                               "n_grid": [100], "k_grid": [1], "num_seeds": 1}), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert run("sweep", "--config", cfg, "-o", out) == 1
    assert_one_error_line(capsys, f"instance 0 key '{key}' is too large for a float")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_nonpositive_jobs_exits_1(tmp_path, capsys, jobs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"structure": "star", "n": 6}], "n_grid": [100],
                               "k_grid": [1], "num_seeds": 1}), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert run("sweep", "--config", cfg, "--jobs", jobs, "-o", out) == 1
    assert_one_error_line(capsys, f"jobs must be >= 1, got {jobs}")
    assert not out.exists()


@pytest.mark.parametrize("w_min", [0, -1])
def test_sweep_nonpositive_w_min_records_invalid_weights(tmp_path, capsys, w_min):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instances": [{"structure": "star", "n": 6, "w_min": w_min, "w_max": 10.0}],
        "n_grid": [100],
        "k_grid": [1],
        "num_seeds": 2,
    }), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert run("sweep", "--config", cfg, "-o", out) == 0
    assert capsys.readouterr().err == ""
    assert [r["status"] for r in load_csv(out)] == ["InvalidWeights", "InvalidWeights"]


def test_sweep_into_a_missing_directory_runs_no_cell(tmp_path, capsys, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr("hgrec.sweep.run_sweep", no_cells)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"structure": "star", "n": 6}], "n_grid": [100],
                               "k_grid": [1], "num_seeds": 1}), encoding="utf-8")
    out = tmp_path / "missing" / "rows.csv"
    assert run("sweep", "--config", cfg, "-o", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError:") and "missing" in err and err.count("\n") == 1
    assert not out.parent.exists()


def loaded_after(code: str, cwd=None) -> set[str]:
    """The modules a fresh interpreter holds once it has run ``code``."""
    import hgrec

    env = {**os.environ, "PYTHONPATH": str(Path(hgrec.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
                         env=env, cwd=cwd, check=True, capture_output=True, encoding="utf-8")
    return set(out.stdout.split())


def test_package_import_loads_no_submodule():
    assert {m for m in loaded_after("import hgrec") if m.startswith("hgrec.")} == set()


def test_cli_import_loads_no_stage_module():
    """numpy, the process pool, the aligner, the KG layer and the HTTP modules wait for a stage."""
    heavy = {"numpy", "concurrent.futures", "hgrec.alignment", "hgrec.kgeval", "hgrec.sweep",
             "urllib.request", "http.client", "ssl"}
    assert heavy & loaded_after("import hgrec.cli") == set()


@pytest.mark.parametrize("argv", [
    ("report", "--truth", "g.hg", "--rec", "g.hg", "-o", "report.json"),
    ("bounds", "--m", 10, "--kappa", 3, "-L", 2, "--c-pi", 0.5, "--C-pi", 2, "--epsilon", 0.1,
     "--delta", 0.1, "-o", "bounds.json"),
    ("kg-prompt", "--subgraph", "sub.json", "-o", "prompt.txt"),
    ("train", "--mm-data", "d.mm", "-o", "oracle.json"),
    ("recover", "--oracle", "oracle.json", "--candidates", "pairs", "-o", "rec.hg"),
    ("recover", "--oracle", "oracle.json", "--candidates", "d.ds", "-o", "rec.hg"),
])
def test_stage_runs_without_numpy(slot_dir, argv):
    code = f"import hgrec.cli\nassert hgrec.cli.main({[str(a) for a in argv]!r}) == 0"
    assert "numpy" not in loaded_after(code, cwd=slot_dir)


def test_train_memory_does_not_grow_with_repeated_records(tmp_path):
    """``train`` holds a chunk of lines and the distinct ones, not the file: 4x the records, same peak."""
    write_repeated_records(tmp_path)

    def train(name: str) -> int:
        def call():
            assert run("train", "--mm-data", tmp_path / name, "-o", tmp_path / f"{name}.json") == 0

        return traced_peak(call)

    tracemalloc.start()
    try:
        train("small.mm")  # the first call imports the stage's modules
        small_peak, big_peak = train("small.mm"), train("big.mm")
    finally:
        tracemalloc.stop()
    assert (tmp_path / "small.mm.json").read_bytes() != (tmp_path / "big.mm.json").read_bytes()
    assert big_peak <= 1.25 * small_peak


def test_fit_loads_no_sweep(tmp_path):
    """``fit`` reads a CSV and fits one line: the sweep pipeline and its process pool stay unloaded."""
    (tmp_path / "rows.csv").write_text("N,d\n100,0.4\n1000,0.13\n10000,0.04\n", encoding="utf-8")
    argv = ["fit", "--csv", "rows.csv", "--x-field", "N", "--y-field", "d", "-o", "fit.json"]
    code = f"import hgrec.cli\nassert hgrec.cli.main({argv!r}) == 0"
    assert {"hgrec.sweep", "concurrent.futures"} & loaded_after(code, cwd=tmp_path) == set()
    assert json.loads((tmp_path / "fit.json").read_text(encoding="utf-8")).keys() == {"slope", "intercept"}


EXPORTED = [
    "ALL_PAIRS", "AliasSampler", "Alignment", "AnchorSet", "BoundsInput", "Dataset", "EvalResult",
    "ExactOracle", "GeneratorSpec", "Hyperedge", "KnowledgeGraph", "MMDataset", "MaskedHyperedge",
    "MaskingStrategy", "MetaGraph", "NodeRelabeling", "RecoveryReport", "SimpleGraph", "SubgraphSpec",
    "SweepConfig", "TabularOracle", "WeightedHypergraph", "align_by_hyperedge_ids", "align_exact",
    "align_wl_anchored", "assign_weights", "bf_weight_estimation", "build_meta_graph", "chain",
    "color_classes", "decode", "derive_seed", "dissimilarity", "edge", "encode", "extract_subgraph",
    "fit_scaling", "frucht", "fuse_datasets", "ingest_edge_list", "lemma_rr_bounds", "line_graph",
    "load_hypergraph", "lower_bound_risk", "mm_path_length_bound", "mm_sample_bounds", "normalize",
    "normalized_l1", "parse_edgelist", "recover_from_dataset", "recover_from_oracle",
    "recovery_report", "relabel", "render_prompt", "rng_stream", "run_sweep", "sample_dataset",
    "sample_mm_dataset", "save_hypergraph", "sketch_diff", "star", "strategy_constants",
    "train_tabular", "uniform_single_mask", "wcgnm", "wl_refine", "x_graph",
]


def test_package_exports_every_public_name():
    """``__all__`` holds the 67 names; ``from hgrec import *`` and ``__getattr__`` see each."""
    import hgrec

    assert len(EXPORTED) == 67 and sorted(hgrec.__all__) == EXPORTED
    star_import: dict = {}
    exec("from hgrec import *", star_import)
    assert all(star_import[name] is getattr(hgrec, name) for name in EXPORTED)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        hgrec.nonesuch


def test_package_name_follows_its_module(monkeypatch):
    """``__getattr__`` caches nothing: a rebinding in the defining module, and its undoing, show through."""
    import hgrec
    import hgrec.sampling

    original = hgrec.sample_dataset
    monkeypatch.setattr(hgrec.sampling, "sample_dataset", len)
    assert hgrec.sample_dataset is len
    monkeypatch.undo()
    assert hgrec.sample_dataset is original is hgrec.sampling.sample_dataset


def test_align_methods(tmp_path):
    h1 = tmp_path / "a.hg"
    h2 = tmp_path / "b.hg"
    out = tmp_path / "al.txt"
    assert run("gen", "--structure", "frucht", "--seed", 7, "-o", h1) == 0
    assert run("gen", "--structure", "frucht", "--seed", 7, "-o", h2) == 0
    assert run("align", "--h1", h1, "--h2", h2, "--method", "wl-ir", "-o", out) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[-1].startswith("#cost ")
    assert len(lines) == 13  # 12 node pairs + cost


def test_align_logs_the_search_only_at_info(tmp_path):
    """``--log-level info`` adds one record on stderr; the default level adds nothing and the output is the same."""
    import hgrec

    assert run("gen", "--structure", "star", "--n", 8, "-o", tmp_path / "s.hg") == 0
    env = {**os.environ, "PYTHONPATH": str(Path(hgrec.__file__).parents[1])}
    outputs = []
    for extra in (["--log-level", "info"], []):
        out = tmp_path / f"m{len(extra)}.txt"
        argv = ["align", "--h1", "s.hg", "--h2", "s.hg", "--method", "wl-ir", "-o", out.name, *extra]
        done = subprocess.run([sys.executable, "-m", "hgrec.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, encoding="utf-8")
        assert done.returncode == 0 and done.stdout == ""
        outputs.append((done.stderr, out.read_bytes()))
    (info, info_bytes), (default, default_bytes) = outputs
    assert info == ("INFO:hgrec.alignment:anchored search: 30 incidence vertices, "
                    "6 individualizations, depth 6, 0 backtracks\n")
    assert default == "" and default_bytes == info_bytes


def test_align_exact_above_eight_nodes(tmp_path, capsys):
    h1, h2, out = tmp_path / "a.hg", tmp_path / "b.hg", tmp_path / "al.txt"
    # A path with distinct weights: the relabeling is the only zero-cost bijection.
    g = WeightedHypergraph({edge(str(i), str(i + 1)): float(i + 1) for i in range(8)})
    phi = NodeRelabeling({str(i): f"y{(i + 5) % 9}" for i in range(9)})
    save_hypergraph(g, h1)
    save_hypergraph(relabel(g, phi), h2)
    assert run("align", "--h1", h1, "--h2", h2, "--method", "exact", "-o", out) == 1
    assert "max_nodes=8" in capsys.readouterr().err
    assert run("align", "--h1", h1, "--h2", h2, "--method", "exact", "--max-nodes", 9,
               "-o", out) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("#cost 0\n")
    assert parse_node_mapping(text).pairs == phi.pairs


def test_align_non_isomorphic_exits_1(tmp_path, capsys):
    h1 = tmp_path / "a.hg"
    h2 = tmp_path / "b.hg"
    assert run("gen", "--structure", "star", "--n", 6, "--seed", 1, "-o", h1) == 0
    assert run("gen", "--structure", "chain", "--n", 6, "--seed", 1, "-o", h2) == 0
    code = run("align", "--h1", h1, "--h2", h2, "--method", "wl-ir", "-o", tmp_path / "x")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: NotAnIsomorphism: no structural isomorphism between the two hypergraphs\n"
    )


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """A star(5) hypergraph and a dataset drawn from it, for the alignment readers' files."""
    d = tmp_path_factory.mktemp("reader-inputs")
    assert run("gen", "--structure", "star", "--n", 5, "--seed", 1, "-o", d / "s.hg") == 0
    assert run("sample", "--hypergraph", d / "s.hg", "-n", 20, "--seed", 2, "-o", d / "d.ds") == 0
    return d


@settings(max_examples=40, deadline=None)
@given(text=READER_TEXTS)
def test_alignment_reader_files_exit_0_or_1(reader_inputs, text):
    d = reader_inputs
    (d / "in.txt").write_bytes(text.encode("utf-8", "surrogatepass"))
    graphs = ["--h1", d / "s.hg", "--h2", d / "s.hg"]
    for argv in (
        ["align", *graphs, "--method", "wl-ir", "--anchors", d / "in.txt"],
        ["align", *graphs, "--method", "ids", "--edge-pairs", d / "in.txt"],
        ["fuse", "--d1", d / "d.ds", "--d2", d / "d.ds", "--mapping", d / "in.txt"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv, "-o", d / "out")  # an escaping exception fails the test
        message = err.getvalue()
        assert (code, message.count("\n")) in ((0, 0), (1, 1))
        assert code == 0 or message.startswith("error: ")


def test_fuse_accepts_alignment_output(tmp_path):
    h = tmp_path / "g.hg"
    d1 = tmp_path / "d1.ds"
    d2 = tmp_path / "d2.ds"
    mapping = tmp_path / "map.txt"
    fused = tmp_path / "fused.ds"
    assert run("gen", "--structure", "star", "--n", 5, "--seed", 1, "-o", h) == 0
    assert run("sample", "--hypergraph", h, "-n", 50, "--seed", 2, "-o", d1) == 0
    assert run("sample", "--hypergraph", h, "-n", 70, "--seed", 3, "-o", d2) == 0
    assert run("align", "--h1", h, "--h2", h, "--method", "exact", "-o", mapping) == 0
    assert run("fuse", "--d1", d1, "--d2", d2, "--mapping", mapping, "-o", fused) == 0
    assert len(fused.read_text(encoding="utf-8").strip().splitlines()) == 120


def test_bounds_json(tmp_path, capsys):
    assert run("bounds", "--m", 10, "--kappa", 3, "-L", 2, "--c-pi", 0.5, "--C-pi", 2,
               "--epsilon", 0.1, "--delta", 0.1, "--n-samples", 10000,
               "--m0", 2, "--kappa0", 3) == 0
    import math

    doc = json.loads(capsys.readouterr().out)
    assert doc["N_min"] == 51176
    assert doc["minimax_lower_bound"] == pytest.approx(math.sqrt(10 / 10000) / 16, abs=1e-15)
    assert doc["weight_min_floor"] == pytest.approx(1 / 6)


@pytest.mark.parametrize("flag, value", [
    ("--kappa", "inf"), ("--kappa", "nan"), ("--C-pi", "inf"), ("--C-pi", "nan"),
    ("--kappa0", "inf"), ("--kappa0", "nan"),
])
def test_bounds_rejects_non_finite(capsys, flag, value):
    argv = {"--m": 10, "--kappa": 3, "-L": 2, "--c-pi": 0.5, "--C-pi": 2,
            "--epsilon": 0.1, "--delta": 0.1, "--m0": 2, "--kappa0": 3}
    argv[flag] = value
    assert run("bounds", *(part for pair in argv.items() for part in pair)) == 1
    assert_one_error_line(capsys, f"{flag.lstrip('-').replace('-', '_')} must be finite")


@pytest.mark.parametrize("given, missing", [(("--m0", 2), "--kappa0"), (("--kappa0", 3), "--m0")])
def test_bounds_refuses_half_of_the_lemma_pair(capsys, given, missing):
    assert run("bounds", "--m", 10, "--kappa", 3, "-L", 2, "--c-pi", 0.5, "--C-pi", 2,
               "--epsilon", 0.1, "--delta", 0.1, *given) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ValueError:")
    assert f"{missing} is missing" in captured.err and captured.err.count("\n") == 1


HUGE = "1" + "0" * 400  # parses as an int too large to convert to a float


@pytest.mark.parametrize("extra, bound", [
    (("--kappa", "1e300"), "K_min"),
    (("--c-pi", "1e-300"), "K_min"),
    (("--epsilon", "1e-200"), "K_min"),
    (("--delta", "1e-320"), "K_min"),
    (("--m", HUGE), "K_min"),
    (("-L", HUGE), "K_min"),
    (("--m0", HUGE, "--kappa0", 2), "weight_min_floor"),
])
def test_bounds_out_of_float_range(capsys, extra, bound):
    assert run("bounds", "--m", 10, "--kappa", 3, "-L", 2, "--c-pi", 0.5, "--C-pi", 2,
               "--epsilon", 0.1, "--delta", 0.1, *extra) == 1
    assert_one_error_line(capsys, f"{bound} is out of floating-point range")


def test_sweep_and_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instances": [{"structure": "star", "n": 6, "w_min": 1.0, "w_max": 10.0}],
        "n_grid": [100, 400, 1600],
        "k_grid": [1],
        "num_seeds": 2,
    }), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert run("sweep", "--config", cfg, "-o", out) == 0
    assert run("fit", "--csv", out, "--x-field", "N", "--y-field", "d_plugin") == 0
    doc = json.loads(capsys.readouterr().out)
    assert -1.0 < doc["slope"] < 0.0


@pytest.mark.parametrize("table, x_field, message", [
    ("N,d\n10,1\n", "nope", "row 1: no 'nope' column"),
    ("N,d\n10,1\n100,abc\n", "N", "row 2: d value 'abc' is not a number"),
    ("N,d\n10,1\n100,inf\n1000,2\n", "N", "row 2: d value 'inf' is not finite"),
    ("N,d\n10,1\n100,2\ninf,3\n", "N", "row 3: N value 'inf' is not finite"),
    ("N,d\nnan,1\n10,1\n100,2\n", "N", "row 1: N value 'nan' is not finite"),
])
def test_fit_bad_csv_exits_1(tmp_path, capsys, table, x_field, message):
    rows = tmp_path / "rows.csv"
    rows.write_text(table, encoding="utf-8")
    assert run("fit", "--csv", rows, "--x-field", x_field, "--y-field", "d") == 1
    err = capsys.readouterr().err
    assert err == f"error: InvalidForLogFit: {message}\n"


@pytest.mark.parametrize("weight", ["0", "-1"])
def test_kg_ingest_names_the_line_of_a_nonpositive_weight(tmp_path, capsys, weight):
    kg = tmp_path / "kg.tsv"
    kg.write_text(f"a\tb\t0.5\nc\td\t{weight}\n", encoding="utf-8")
    assert run("kg-ingest", "--tsv", kg, "-o", tmp_path / "canon.tsv") == 1
    err = capsys.readouterr().err
    assert err == (
        "error: InvalidWeight: line 2: relatedness must be positive and finite, "
        f"got {float(weight)}\n"
    )


def test_kg_pipeline(tmp_path, capsys):
    kg = tmp_path / "kg.tsv"
    kg.write_text(KG_TSV, encoding="utf-8")
    canonical = tmp_path / "canon.tsv"
    sub = tmp_path / "sub.json"
    prompt = tmp_path / "prompt.txt"
    parsed = tmp_path / "parsed.json"

    assert run("kg-ingest", "--tsv", kg, "-o", canonical) == 0
    assert "table\t" in canonical.read_text(encoding="utf-8") or "\ttable" in canonical.read_text(encoding="utf-8")

    assert run("kg-extract", "--kg", kg, "--source", "table", "-k", 2, "-d", 2, "-o", sub) == 0
    doc = json.loads(sub.read_text(encoding="utf-8"))
    assert doc["entities"] == ["table", "furniture", "house", "room"]
    assert len(doc["edges"]) == 4

    assert run("kg-prompt", "--subgraph", sub, "-o", prompt) == 0
    assert prompt.read_text(encoding="utf-8").startswith("Consider the following concepts: table, furniture, house, room.")

    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / f"{prompt_key(prompt.read_text(encoding='utf-8'))}.txt").write_text(KG_RESPONSE, encoding="utf-8")

    resp = tmp_path / "resp.txt"
    assert run("kg-chat", "--prompt-file", prompt, "--responses-dir", responses, "-o", resp) == 0
    assert resp.read_text(encoding="utf-8") == KG_RESPONSE

    assert run("kg-parse", "--response", resp, "--subgraph", sub, "-o", parsed) == 0
    parsed_doc = json.loads(parsed.read_text(encoding="utf-8"))
    assert len(parsed_doc["pairs"]) == 5
    assert len(parsed_doc["unparsed"]) == 2


def test_kg_eval_offline_byte_stable(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text(KG_TSV, encoding="utf-8")
    entities = ["table", "furniture", "house", "room"]
    prompt = render_prompt(entities, 2)
    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / f"{prompt_key(prompt)}.txt").write_text(KG_RESPONSE, encoding="utf-8")

    outputs = []
    for tag in ("one", "two"):
        report = tmp_path / f"report-{tag}.json"
        csv_row = tmp_path / f"row-{tag}.csv"
        assert run("kg-eval", "--kg", kg, "--source", "table", "-k", 2, "-d", 2,
                   "--responses-dir", responses, "--model", "fake", "-o", report,
                   "--csv", csv_row) == 0
        outputs.append((report.read_bytes(), csv_row.read_bytes()))
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0][0])
    assert doc["score"] == 0.75
    assert outputs[0][1].decode().splitlines()[1] == "table,2,2,fake,0.75,1,2"


def test_kg_eval_refuses_a_model_label_without_csv(tmp_path, capsys):
    kg, resp, report = tmp_path / "kg.tsv", tmp_path / "resp.txt", tmp_path / "report.json"
    kg.write_text(KG_TSV, encoding="utf-8")
    resp.write_text(KG_RESPONSE, encoding="utf-8")
    argv = ("kg-eval", "--kg", kg, "--source", "table", "-k", 2, "-d", 2, "--response", resp, "-o", report)
    assert run(*argv, "--model", "gpt-x") == 1
    assert_one_error_line(capsys, "--model is read only with --csv")
    assert not report.exists()
    assert run(*argv, "--csv", tmp_path / "row.csv") == 0
    assert (tmp_path / "row.csv").read_text(encoding="utf-8").splitlines()[1] == "table,2,2,unknown,0.75,1,2"


@pytest.mark.parametrize("model", [(), ("--model", "gpt-x")])
def test_kg_eval_refuses_an_empty_csv_path(tmp_path, capsys, monkeypatch, model):
    """An empty ``--csv`` exits 1 naming it, before the knowledge graph is read."""
    resp = tmp_path / "resp.txt"
    resp.write_text(KG_RESPONSE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ("kg-eval", "--kg", "missing.tsv", "--source", "table", "-k", 2, "-d", 2, "--response", resp)
    assert run(*argv, *model, "--csv", "") == 1
    assert_one_error_line(capsys, "--csv is empty: it must name a file")


@pytest.mark.parametrize("argv", [
    ("gen", "--structure", "star", "--n", 4),
    ("report", "--truth", "missing.hg", "--rec", "missing.hg"),
    ("kg-eval", "--kg", "missing.tsv", "--source", "table", "-k", 2, "-d", 2, "--responses-dir", "missing"),
    ("bounds", "--m", 10, "--kappa", 3, "-L", 2, "--c-pi", 0.5, "--C-pi", 2, "--epsilon", 0.1, "--delta", 0.1),
], ids=["gen", "report", "kg-eval", "bounds"])
def test_empty_output_path_exits_1_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "-o", "") == 1
    assert_one_error_line(capsys, "-o is empty: it must name a file")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, what", [
    (("--structure", "star", "--n", 6, "--p", 0.4), "--p is read only by --structure wcgnm"),
    (("--structure", "chain", "--n", 6, "--p", 0.4), "--p is read only by --structure wcgnm"),
    (("--structure", "frucht", "--n", 99), "--n is not read by --structure frucht"),
])
def test_gen_refuses_a_flag_its_structure_does_not_read(tmp_path, capsys, argv, what):
    out = tmp_path / "g.hg"
    assert run("gen", *argv, "-o", out) == 1
    assert_one_error_line(capsys, what)
    assert not out.exists()
    assert run("gen", *argv[:-2], "-o", out) == 0


@pytest.mark.parametrize("argv", [("star",), ("x",), ("chain",), ("wcgnm", "--p", 0.5)], ids=lambda a: a[0])
def test_gen_names_a_missing_n(tmp_path, capsys, argv):
    out = tmp_path / "g.hg"
    assert run("gen", "--structure", *argv, "-o", out) == 1
    assert_one_error_line(capsys, f"--structure {argv[0]} needs --n")
    assert not out.exists()


def test_kg_eval_csv_into_a_missing_directory_exits_1_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("kg.tsv").write_text(KG_TSV, encoding="utf-8")
    Path("resp.txt").write_text(KG_RESPONSE, encoding="utf-8")
    argv = ("kg-eval", "--kg", "kg.tsv", "--source", "table", "-k", 2, "-d", 2, "--response", "resp.txt",
            "-o", "eval.json", "--csv")
    assert run(*argv, "nodir/row.csv") == 1
    assert capsys.readouterr().err == "error: FileNotFoundError: no directory 'nodir' to write --csv into\n"
    assert sorted(os.listdir()) == ["kg.tsv", "resp.txt"]
    assert run(*argv, "row.csv") == 0


def test_fit_csv_in_a_missing_directory_is_a_read_error(tmp_path, capsys):
    assert run("fit", "--csv", tmp_path / "nodir" / "rows.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: [Errno 2] No such file or directory:") and "to write" not in err


def assert_one_error_line(capsys, what: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and what in err and err.count("\n") == 1


@pytest.mark.parametrize("doc, what", [
    ([], "must be a JSON object"),
    ({"k": 2}, "'entities' must be a list of strings"),
    ({"entities": "ab", "k": 2}, "'entities' must be a list of strings"),
    ({"entities": ["table", 7], "k": 2}, "'entities' must be a list of strings"),
    ({"entities": ["table"]}, "'k' must be an integer, got None"),
    ({"entities": ["table"], "k": "2"}, "'k' must be an integer, got '2'"),
])
def test_kg_prompt_malformed_subgraph_exits_1(tmp_path, capsys, doc, what):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(doc), encoding="utf-8")
    assert run("kg-prompt", "--subgraph", sub, "-o", tmp_path / "prompt.txt") == 1
    assert_one_error_line(capsys, what)


# Any text, any JSON value, subgraph documents whose keys may each be missing or wrong,
# and a good document pieced with line ends and a byte that is not UTF-8.
SUBGRAPH_TEXTS = st.one_of(
    st.text(),
    st.builds(json.dumps, JSON_VALUES),
    json_objects(entities=st.one_of(st.lists(st.text(max_size=3), max_size=3), JSON_VALUES),
                 k=st.one_of(JSON_NUMBERS, JSON_VALUES)),
    st.lists(st.sampled_from(['{"entities": ["a"], "k": 2}', "\r", "\n", "\r\n", "\udcff", "é"]),
             max_size=4).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(text=SUBGRAPH_TEXTS, need_k=st.booleans())
def test_subgraph_reader_loads_or_names_a_line(tmp_path_factory, text, need_k):
    path = tmp_path_factory.mktemp("subgraph") / "sub.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    try:
        doc = _load_subgraph(str(path), need_k)
    except ParseError as exc:
        assert 1 <= exc.line_number <= file_lines(text)
    except (HgrecError, ValueError):
        pass
    else:
        assert all(isinstance(e, str) for e in doc["entities"])
        assert not need_k or type(doc["k"]) is int


def test_kg_prompt_k_flag_overrides_missing_k(tmp_path):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"entities": ["table", "room"]}), encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    assert run("kg-prompt", "--subgraph", sub, "-k", 3, "-o", prompt) == 0
    assert prompt.read_text(encoding="utf-8") == render_prompt(["table", "room"], 3)


@pytest.mark.parametrize("flag, doc_k, k", [(["-k", 0], 2, 0), (["-k", -3], 2, -3), ([], -1, -1)])
def test_kg_prompt_rejects_k_below_1(tmp_path, capsys, flag, doc_k, k):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"entities": ["table", "room"], "k": doc_k}), encoding="utf-8")
    assert run("kg-prompt", "--subgraph", sub, *flag, "-o", tmp_path / "prompt.txt") == 1
    assert_one_error_line(capsys, f"k must be >= 1, got {k}")
    assert not (tmp_path / "prompt.txt").exists()


@pytest.mark.parametrize("doc, what", [
    ({"entities": "ab"}, "'entities' must be a list of strings"),
    ("table", "must be a JSON object"),
])
def test_kg_parse_malformed_subgraph_exits_1(tmp_path, capsys, doc, what):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(doc), encoding="utf-8")
    resp = tmp_path / "resp.txt"
    resp.write_text("a - b\n", encoding="utf-8")
    assert run("kg-parse", "--response", resp, "--subgraph", sub, "-o", tmp_path / "p.json") == 1
    assert_one_error_line(capsys, what)


@pytest.mark.parametrize("config, what", [
    ("[]", "must be a JSON object"),
    ('{"model": "m"}', "missing key 'base_url'"),
    ('{"base_url": "http://x", "model": "m", "temperature": null}', "'temperature' must be a number"),
    ('{"base_url": "file:///tmp/fake", "model": "m"}', "'base_url' must be an http"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": Infinity}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": 1e400}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": 0}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "timeout_s": -1}', "'timeout_s' must be finite and > 0"),
    ('{"base_url": "http://x", "model": "m", "temperature": NaN}', "'temperature' must be finite"),
])
def test_kg_malformed_endpoint_config_exits_1(tmp_path, capsys, config, what):
    kg = tmp_path / "kg.tsv"
    kg.write_text(KG_TSV, encoding="utf-8")
    cfg = tmp_path / "endpoint.json"
    cfg.write_text(config, encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("p", encoding="utf-8")
    assert run("kg-chat", "--prompt-file", prompt, "--endpoint-config", cfg) == 1
    assert_one_error_line(capsys, what)
    assert run("kg-eval", "--kg", kg, "--source", "table", "-k", 2, "-d", 2,
               "--endpoint-config", cfg) == 1
    assert_one_error_line(capsys, what)


@pytest.mark.parametrize("answer, what", [
    (b"garbage\r\n\r\n", "BadStatusLine"),
    (None, "Connection refused"),
])
def test_kg_chat_without_an_answer_exits_1(tmp_path, capsys, chat_server, answer, what):
    port = closed_port()
    if answer is not None:
        chat_server.answers.append(answer)
        port = chat_server.server_port
    cfg = tmp_path / "endpoint.json"
    cfg.write_text(json.dumps({"base_url": f"http://127.0.0.1:{port}", "model": "m"}), encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("p", encoding="utf-8")
    assert run("kg-chat", "--prompt-file", prompt, "--endpoint-config", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RequestFailed: HTTP 0: ") and what in err and err.count("\n") == 1
    assert chat_server.sleeps == []


def test_error_with_line_breaks_is_one_line(tmp_path, capsys, chat_server):
    chat_server.answers.append((400, {}, b"line one\nline two\r\n"))
    cfg = tmp_path / "endpoint.json"
    cfg.write_text(json.dumps({"base_url": f"http://127.0.0.1:{chat_server.server_port}", "model": "m"}),
                   encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("p", encoding="utf-8")
    assert run("kg-chat", "--prompt-file", prompt, "--endpoint-config", cfg) == 1
    assert capsys.readouterr().err == "error: RequestFailed: HTTP 400: line one\\nline two\\r\\n\n"


@pytest.mark.parametrize("argv", [
    ("kg-chat", "--prompt-file", "p.txt"),
    ("kg-chat", "--prompt-file", "p.txt", "--responses-dir", "r", "--endpoint-config", "e.json"),
    ("kg-eval", "--kg", "kg.tsv", "--source", "table", "-k", 2, "-d", 2),
    ("kg-eval", "--kg", "kg.tsv", "--source", "table", "-k", 2, "-d", 2,
     "--responses-dir", "r", "--response", "resp.txt"),
    ("kg-eval", "--kg", "kg.tsv", "--source", "table", "-k", 2, "-d", 2,
     "--response", "resp.txt", "--endpoint-config", "e.json"),
])
def test_kg_response_source_is_exactly_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "--" in capsys.readouterr().err


# Each file slot: the argv that reads it (run in a directory holding the
# `slot_dir` files) and the file it reads, which the test makes hostile.
FILE_SLOTS = {
    "--hypergraph": ("sample --hypergraph bad -n 5 -o out", "bad"),
    "--exact-from": ("recover --exact-from bad -o out", "bad"),
    "--truth": ("report --truth bad --rec g.hg", "bad"),
    "--rec": ("report --truth g.hg --rec bad", "bad"),
    "--h1": ("align --h1 bad --h2 g.hg --method exact", "bad"),
    "--h2": ("align --h1 g.hg --h2 bad --method exact", "bad"),
    "--candidates": ("recover --exact-from g.hg --candidates bad -o out", "bad"),
    "--d1": ("fuse --d1 bad --d2 d.ds --mapping map.txt -o out", "bad"),
    "--d2": ("fuse --d1 d.ds --d2 bad --mapping map.txt -o out", "bad"),
    "--mm-data": ("train --mm-data bad -o out", "bad"),
    "--oracle": ("recover --oracle bad -o out", "bad"),
    "--relabel": ("report --truth g.hg --rec g.hg --relabel bad", "bad"),
    "--mapping": ("fuse --d1 d.ds --d2 d.ds --mapping bad -o out", "bad"),
    "--anchors": ("align --h1 g.hg --h2 g.hg --method wl-ir --anchors bad", "bad"),
    "--edge-pairs": ("align --h1 g.hg --h2 g.hg --method ids --edge-pairs bad", "bad"),
    "--config": ("sweep --config bad -o out", "bad"),
    "--csv": ("fit --csv bad", "bad"),
    "--tsv": ("kg-ingest --tsv bad", "bad"),
    "--kg": ("kg-extract --kg bad --source table -k 2 -d 2", "bad"),
    "--subgraph": ("kg-prompt --subgraph bad", "bad"),
    "--response": ("kg-parse --response bad --subgraph sub.json", "bad"),
    "--prompt-file": ("kg-chat --prompt-file bad --responses-dir responses", "bad"),
    "--endpoint-config": ("kg-chat --prompt-file prompt.txt --endpoint-config bad", "bad"),
    "--responses-dir": (
        "kg-chat --prompt-file prompt.txt --responses-dir responses",
        f"responses/{prompt_key('p')}.txt",
    ),
}


@pytest.fixture
def slot_dir(tmp_path, monkeypatch):
    """A working directory holding a valid file for every slot a test does not make hostile."""
    monkeypatch.chdir(tmp_path)
    save_hypergraph(WeightedHypergraph({edge("a", "b"): 0.5, edge("b", "c"): 0.5}, normalized=True), "g.hg")
    Path("d.ds").write_text("a b\nb c\n", encoding="utf-8")
    Path("d.mm").write_text("a b\ta _\na b\tb _\nb c\tb _\nb c\tc _\n", encoding="utf-8")
    Path("oracle.json").write_text(json.dumps({"format": "hgrec-oracle-v1", "counts": {
        "a|1": {"a+b": 1}, "b|1": {"a+b": 1, "b+c": 1}, "c|1": {"b+c": 1}}}), encoding="utf-8")
    Path("map.txt").write_text("a a\nb b\nc c\n", encoding="utf-8")
    Path("sub.json").write_text(json.dumps({"entities": ["a", "b"], "k": 1}), encoding="utf-8")
    Path("prompt.txt").write_text("p", encoding="utf-8")
    Path("responses").mkdir()
    return tmp_path


@pytest.mark.parametrize("slot", FILE_SLOTS)
def test_a_byte_that_is_not_utf8_names_its_line(slot_dir, capsys, slot):
    argv, bad = FILE_SLOTS[slot]
    Path(bad).write_bytes(b"first\nsecond\nthird \xff\n")
    assert run(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err == "error: ParseError: line 3: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("slot", ["--oracle", "--config", "--subgraph", "--endpoint-config"])
def test_json_nested_too_deeply_exits_1(slot_dir, capsys, slot):
    argv, bad = FILE_SLOTS[slot]
    Path(bad).write_text("[" * 100_000, encoding="utf-8")
    assert run(*argv.split()) == 1
    assert_one_error_line(capsys, "nested too deeply")


def test_fit_csv_field_over_the_csv_limit_names_its_line(tmp_path, capsys):
    table = tmp_path / "big.csv"
    table.write_text("N,d_plugin\n1," + "9" * 131_073 + "\n", encoding="utf-8")
    assert run("fit", "--csv", table) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: line 2: field larger than field limit") and err.count("\n") == 1


def test_out_of_memory_is_one_error_line(slot_dir, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("hgrec.sampling.sample_dataset", exhausted)
    assert run("sample", "--hypergraph", "g.hg", "-n", 10_000_000_000, "-o", "out") == 1
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 74.5 GiB\n"


# -- every flag read or refused, every output through one writer ---------------------
#
# The tests below run each subcommand in process, in `cli_files`, which holds every
# file MINIMAL_ARGV names plus those the flag rows read; each run's writes are undone.

CLI_FILES = {
    "g.hg": "#hg v1\n#normalized\nedge a b 0.125\nedge b c 0.375\nedge c d 0.5\n",
    "rec.hg": "#hg v1\n#normalized\nedge a b 0.25\nedge b c 0.25\nedge c d 0.5\n",
    "a.hg": "#hg v1\nedge a b 1\nedge b c 2\nedge c d 3\n",
    "b.hg": "#hg v1\nedge w x 1\nedge x y 2\nedge y z 3\n",
    "d.mm": "a b\ta _\na b\tb _\nb c\tb _\nb c\tc _\nc d\tc _\nc d\td _\nc d\td _\n",
    "a.ds": "a b\nb c\nc d\nb c\n",
    "b.ds": "w x\nx y\n",
    "map.txt": "a w\nb x\nc y\nd z\n",
    "cands.txt": "a b\nb c\n",
    "anchors.txt": "node a w\n",
    "pairs.txt": "a+b w+x\n",
    "sweep.json": json.dumps({"instances": [{"structure": "star", "n": 4}], "n_grid": [50],
                              "k_grid": [1], "num_seeds": 1}),
    "rows.csv": "N,K,d_plugin,d_oracle\n100,1,0.4,0.5\n1000,2,0.13,0.2\n10000,4,0.04,0.03\n",
    "kg.tsv": KG_TSV,
    "sub.json": json.dumps({"entities": ["table", "furniture", "house", "room"], "k": 2}),
    "resp.txt": KG_RESPONSE,
    "p.txt": "p",
    f"r/{prompt_key('p')}.txt": KG_RESPONSE,
}

#: One working invocation per subcommand: MINIMAL_ARGV, plus what makes its flags' effects show.
WORKING = {command: [*argv, *{
    "gen": ["--n", "4", "--w-max", "10"],
    "sample": ["-n", "20"],
    "mm-sample": ["-n", "20"],
}.get(command, [])] for command, argv in MINIMAL_ARGV.items()}

#: Per (subcommand, optional flag), arguments appended to the working invocation that give
#: the flag a value other than its default. The run must change an output byte, or exit 1
#: with one error line: `uniform1` is the only mask, and the other rows that exit 1 give a
#: flag the rest of the command line leaves unread.
FLAG_VALUES = {
    ("gen", "--n"): ["--n", "5"],
    ("gen", "--p"): ["--p", "0.5"],
    ("gen", "--w-min"): ["--w-min", "2"],
    ("gen", "--w-max"): ["--w-max", "5"],
    ("gen", "--seed"): ["--seed", "1"],
    ("sample", "--seed"): ["--seed", "1"],
    ("mm-sample", "--seed"): ["--seed", "1"],
    ("mm-sample", "--k-inner"): ["--k-inner", "2"],
    ("mm-sample", "--mask"): ["--mask", "uniform2"],
    ("recover", "--candidates"): ["--candidates", "cands.txt"],
    ("recover", "--mask"): ["--mask", "uniform2"],
    ("report", "--relabel"): ["--relabel", "map.txt"],
    ("report", "--disconnected"): ["--disconnected"],
    ("report", "--output"): ["-o", "out.json"],
    ("align", "--anchors"): ["--anchors", "anchors.txt"],
    ("align", "--edge-pairs"): ["--edge-pairs", "pairs.txt"],
    ("align", "--max-nodes"): ["--max-nodes", "2"],
    ("align", "--output"): ["-o", "out.txt"],
    ("bounds", "--n-samples"): ["--n-samples", "100"],
    ("bounds", "--m0"): ["--m0", "2"],
    ("bounds", "--kappa0"): ["--kappa0", "3"],
    ("bounds", "--output"): ["-o", "out.json"],
    ("fit", "--x-field"): ["--x-field", "K"],
    ("fit", "--y-field"): ["--y-field", "d_oracle"],
    ("fit", "--output"): ["-o", "out.json"],
    ("kg-ingest", "--output"): ["-o", "out.tsv"],
    ("kg-extract", "--output"): ["-o", "out.json"],
    ("kg-prompt", "-k"): ["-k", "3"],
    ("kg-prompt", "--output"): ["-o", "out.txt"],
    ("kg-parse", "--output"): ["-o", "out.json"],
    ("kg-chat", "--output"): ["-o", "out.txt"],
    ("kg-eval", "--model"): ["--model", "gpt-x"],
    ("kg-eval", "--csv"): ["--csv", "row.csv"],
    ("kg-eval", "--output"): ["-o", "out.json"],
}

#: Optional flags meant to change no output byte.
NO_OUTPUT_BYTE = {
    "--log-level": "records go to stderr, and outputs do not depend on what is logged",
    "--jobs": "sweep cells run in worker processes, and rows are written in config order",
}

#: The other members of each required either-or group, each read in place of the one
#: the working invocation names. They are where a stage reads its input, not options
#: with a default, so the flag table holds no row for them.
SOURCES = {
    ("recover", "--oracle"): "--exact-from",
    ("kg-chat", "--endpoint-config"): "--responses-dir",
    ("kg-eval", "--response"): "--responses-dir",
    ("kg-eval", "--endpoint-config"): "--responses-dir",
}


def flag_name(action: argparse.Action) -> str:
    return max(action.option_strings, key=len)


def test_flag_table_names_every_flag():
    """A flag added without a row in FLAG_VALUES, NO_OUTPUT_BYTE or SOURCES fails here."""
    optional, sources = set(), set()
    for command, parser in subparsers().items():
        grouped = {a for g in parser._mutually_exclusive_groups if g.required for a in g._group_actions}
        for action in parser._actions:
            if action.option_strings and not action.required and action.dest != "help":
                (sources if action in grouped else optional).add((command, flag_name(action)))
    assert {(c, f) for c, f in optional if f not in NO_OUTPUT_BYTE} == FLAG_VALUES.keys()
    assert {f for _, f in optional} >= NO_OUTPUT_BYTE.keys()
    assert sources == SOURCES.keys() | {(command, used) for (command, _), used in SOURCES.items()}
    assert all(used in WORKING[command] for (command, _), used in SOURCES.items())


class Ran(NamedTuple):
    code: int
    out: bytes
    err: str
    files: dict  # the path of every file in `cli_files` after the run -> its bytes


def snapshot(d: Path) -> dict[str, bytes]:
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in d.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    from hgrec.kgeval import SubgraphSpec, extract_subgraph, ingest_edge_list

    d = tmp_path_factory.mktemp("cli-files")
    for name, text in CLI_FILES.items():
        (d / name).parent.mkdir(exist_ok=True)
        (d / name).write_text(text, encoding="utf-8")
    _, entities = extract_subgraph(ingest_edge_list(d / "kg.tsv"), SubgraphSpec("table", 2, 3))
    (d / "r" / f"{prompt_key(render_prompt(entities, 2))}.txt").write_text(KG_RESPONSE, encoding="utf-8")
    return d


@pytest.fixture
def invoke(cli_files, monkeypatch, capsysbinary):
    """Run ``hgrec.cli.main(argv)`` in ``cli_files``, then put its files back as they were.

    ``prepare``, if given, is first called with the path ``bad`` there.
    """
    monkeypatch.chdir(cli_files)
    original = snapshot(cli_files)

    def call(argv: list[str], prepare=None) -> Ran:
        bad = cli_files / "bad"
        try:
            if prepare is not None:
                prepare(bad)
            capsysbinary.readouterr()
            code = main(argv)
            out, err = capsysbinary.readouterr()
        finally:
            files = snapshot(cli_files)
            if bad.is_dir():
                shutil.rmtree(bad)
            for name, data in files.items():
                if name not in original:
                    (cli_files / name).unlink()
                elif data != original[name]:
                    (cli_files / name).write_bytes(original[name])
        return Ran(code, out, err.decode("utf-8"), files)

    return call


def assert_ok_or_one_error_line(ran: Ran, what: str = "") -> None:
    if ran.code == 0:
        assert ran.err == "", what
    else:
        assert ran.code == 1 and ran.err.startswith("error: ") and ran.err.count("\n") == 1, (what, ran.err)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_works_on_small_files(invoke, command):
    ran = invoke([command, *WORKING[command]])
    assert (ran.code, ran.err) == (0, "")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_help_names_the_shared_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--log-level" in out and "-o OUTPUT" in out


@pytest.mark.parametrize("command, flag", FLAG_VALUES)
def test_every_flag_changes_an_output_byte_or_is_refused(invoke, command, flag):
    base = invoke([command, *WORKING[command]])
    ran = invoke([command, *WORKING[command], *FLAG_VALUES[command, flag]])
    assert_ok_or_one_error_line(ran)
    if ran.code == 0:
        assert (ran.out, ran.files) != (base.out, base.files)
    else:
        assert flag in ran.err or FLAG_VALUES[command, flag][-1] in ran.err


def without_runtime(csv_text: bytes) -> list[bytes]:
    """The sweep rows without ``runtime_ms``, their last column and the one that varies."""
    return [line.rsplit(b",", 1)[0] for line in csv_text.splitlines()]


@pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if c != "recover"])
def test_dash_writes_to_stdout_the_bytes_a_file_gets(invoke, command):
    to_stdout = invoke([command, *WORKING[command], "-o", "-"])
    to_file = invoke([command, *WORKING[command], "-o", "out"])
    assert (to_stdout.code, to_stdout.err, to_file.code, to_file.out) == (0, "", 0, b"")
    assert "-" not in to_stdout.files
    assert to_stdout.files == {k: v for k, v in to_file.files.items() if k != "out"}
    if command == "sweep":
        assert without_runtime(to_stdout.out) == without_runtime(to_file.files["out"])
    else:
        assert to_stdout.out == to_file.files["out"]


@pytest.mark.parametrize("tsv", ["東京\t大阪\t0.7\n", "café\tthé\t0.5\n"], ids=["unencodable", "latin-1"])
def test_dash_writes_utf8_whatever_the_stdout_encoding(tmp_path, tsv):
    """With a Latin-1 stdout, ``-o -`` still writes the UTF-8 bytes ``-o FILE`` writes."""
    import hgrec

    (tmp_path / "kg.tsv").write_text(tsv, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(hgrec.__file__).parents[1]), "PYTHONIOENCODING": "latin-1"}
    argv = [sys.executable, "-m", "hgrec.cli", "kg-ingest", "--tsv", "kg.tsv", "-o"]
    to_file = subprocess.run([*argv, "out.tsv"], env=env, cwd=tmp_path, capture_output=True)
    to_stdout = subprocess.run([*argv, "-"], env=env, cwd=tmp_path, capture_output=True)
    assert (to_file.returncode, to_stdout.returncode, to_stdout.stderr) == (0, 0, b"")
    assert to_stdout.stdout == (tmp_path / "out.tsv").read_bytes()


def test_an_optional_o_defaults_to_dash():
    """Leaving out an optional ``-o`` is ``-o -``; every subcommand has ``-o``."""
    for parser in subparsers().values():
        (output,) = [a for a in parser._actions if a.dest == "output"]
        assert output.required or output.default == "-"


def test_recover_refuses_dash_output(invoke, cli_files):
    ran = invoke(["recover", *WORKING["recover"], "-o", "-"])
    assert (ran.code, ran.out) == (1, b"")
    assert ran.err == "error: ValueError: recover writes meta_connected to stdout, so -o must name a file\n"
    assert ran.files == snapshot(cli_files)  # nothing written


@pytest.mark.parametrize(
    "same",
    [["--csv", "-"], ["-o", "same.txt", "--csv", "same.txt"], ["-o", "same.txt", "--csv", "./same.txt"]],
    ids=["stdout", "file", "dot-file"],
)
def test_kg_eval_refuses_csv_and_o_at_one_destination(invoke, cli_files, same):
    ran = invoke(["kg-eval", *WORKING["kg-eval"], *same])
    assert (ran.code, ran.out) == (1, b"")
    reason = "the CSV row and the JSON report need one each"
    assert ran.err == f"error: ValueError: --csv and -o both name {same[-1]!r}: {reason}\n"
    assert ran.files == snapshot(cli_files)  # nothing written


@pytest.mark.parametrize("kind", ["file", "missing"])
def test_responses_dir_that_is_not_a_directory_is_named(invoke, kind):
    prepare = (lambda bad: bad.write_text("x", encoding="utf-8")) if kind == "file" else None
    ran = invoke(["kg-chat", "--prompt-file", "p.txt", "--responses-dir", "bad"], prepare)
    assert (ran.code, ran.out) == (1, b"")
    assert ran.err == "error: NotADirectoryError: no directory of canned responses at 'bad'\n"


def test_dash_file_is_dot_slash_dash(invoke):
    ran = invoke(["gen", *WORKING["gen"], "-o", "./-"])
    assert ran.code == 0 and ran.out == b""
    assert ran.files["-"] == invoke(["gen", *WORKING["gen"], "-o", "-"]).out


def input_slots() -> dict[tuple[str, str], list[str]]:
    """Per (subcommand, input-file flag), a working argv that reads that flag's file from ``bad``."""
    names = {name.split("/")[0] for name in CLI_FILES}
    slots = {}
    for command, argv in WORKING.items():
        for i, (flag, value) in enumerate(zip(argv, argv[1:])):
            if flag not in ("-o", "--output") and value in names:
                slots[command, flag] = [*argv[:i + 1], "bad", *argv[i + 2:]]
    for (command, flag), extra in FLAG_VALUES.items():
        if extra[-1] in names:
            slots[command, flag] = [*WORKING[command], flag, "bad"]
    for (command, flag), used in SOURCES.items():
        i = WORKING[command].index(used)
        slots[command, flag] = [*WORKING[command][:i], flag, "bad", *WORKING[command][i + 2:]]
    for flag, method in (("--anchors", "wl-ir"), ("--edge-pairs", "ids")):  # read only by their method
        slots["align", flag] += ["--method", method]
    return slots


INPUT_SLOTS = input_slots()
HOSTILE_INPUTS = {
    "not-utf8": lambda bad: bad.write_bytes(b"a b\nc \xff d\n"),
    "nuls": lambda bad: bad.write_bytes(b"\0" * 8 + b"\n\0"),
    "junk": lambda bad: bad.write_bytes(b'{"a": [} |+_ \t#\n\r\nedge 0\n'),
    "empty": lambda bad: bad.write_bytes(b""),
    "directory": lambda bad: bad.mkdir(),
}


@pytest.mark.parametrize("command, flag", INPUT_SLOTS)
def test_hostile_input_file_exits_0_or_1(invoke, command, flag):
    """Each hostile file: exit 0, or exit 1 with one ``error:`` line; an escaping exception fails."""
    for hostile, prepare in HOSTILE_INPUTS.items():
        ran = invoke([command, *INPUT_SLOTS[command, flag]], prepare)
        assert_ok_or_one_error_line(ran, hostile)
