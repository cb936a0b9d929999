"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 on success, 2 on usage errors, and 1 with one ``error:`` line on
stderr for a domain error, a bad input file or running out of memory; a line
break in the message is written as ``\\r`` or ``\\n``. Input files are read
as UTF-8: a bad byte is a ``ParseError`` naming its line, and JSON nested too
deeply is a ``ValueError``. The three subcommands that draw,
``gen``, ``sample`` and ``mm-sample``, take ``--seed`` (default 0), and all
their randomness flows from it through the documented stream-splitting rule,
so reruns are byte-reproducible. No other subcommand accepts ``--seed``.
Every output goes through ``core.write_text``, where the path ``-`` is stdout:
``-o -`` writes there the bytes ``-o FILE`` writes, and a subcommand whose
``-o`` is optional writes there when it is left out. A file named ``-`` is
``./-``. ``recover`` refuses ``-o -``, since it prints ``meta_connected`` on stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .core import load_hypergraph, read_json, read_text, save_hypergraph, write_text
from .errors import HgrecError, NotAnIsomorphism

# Each handler imports the modules it runs, so a stage loads only those: report,
# bounds, kg-*, train and recover run without numpy, and only sweep loads the
# process pool. train and recover --candidates <file> tally the table index of each
# line of their file, chunk by chunk, and never hold the whole file.

OUTPUT = "the file to write, or - for stdout"


def _cmd_gen(args) -> int:
    from .generators import GeneratorSpec

    if args.p is not None and args.structure != "wcgnm":
        raise ValueError("--p is read only by --structure wcgnm")
    if args.n is not None and args.structure == "frucht":
        raise ValueError("--n is not read by --structure frucht")
    if args.n is None and args.structure != "frucht":
        raise ValueError(f"--structure {args.structure} needs --n")
    spec = GeneratorSpec(
        structure=args.structure,
        n=args.n,
        p=args.p,
        w_min=args.w_min,
        w_max=args.w_max,
        seed=args.seed,
    )
    save_hypergraph(spec.build(), args.output)
    return 0


def _cmd_sample(args) -> int:
    from .sampling import sample_dataset

    h = load_hypergraph(args.hypergraph)
    sample_dataset(h, args.n_samples, args.seed).save(args.output)
    return 0


def _cmd_mm_sample(args) -> int:
    from .sampling import make_masking_strategy, sample_mm_dataset

    h = load_hypergraph(args.hypergraph)
    strategy = make_masking_strategy(args.mask)
    sample_mm_dataset(h, args.n_samples, args.k_inner, strategy, args.seed).save(args.output)
    return 0


def _cmd_train(args) -> int:
    from .oracle import train_tabular
    from .sampling import MMDataset

    train_tabular(MMDataset.load_counts(args.mm_data)).save(args.output)
    return 0


def _cmd_recover(args) -> int:
    from .oracle import ExactOracle, TabularOracle
    from .recovery import ALL_PAIRS, recover_from_oracle
    from .sampling import Dataset, make_masking_strategy

    if args.output == "-":
        raise ValueError("recover writes meta_connected to stdout, so -o must name a file")
    strategy = make_masking_strategy(args.mask)
    if args.oracle:
        oracle = TabularOracle.load(args.oracle)
    else:
        oracle = ExactOracle(load_hypergraph(args.exact_from), strategy)
    if args.candidates == "pairs":
        candidates = ALL_PAIRS
    else:
        candidates = Dataset.load_counts(args.candidates).keys()
    recovered, connected = recover_from_oracle(oracle, candidates, strategy)
    save_hypergraph(recovered, args.output)
    print(f"meta_connected: {'true' if connected else 'false'}")
    return 0


def _cmd_report(args) -> int:
    from .recovery import recovery_report

    truth = load_hypergraph(args.truth)
    rec = load_hypergraph(args.rec)
    relabeling = None
    if args.relabel:
        from .alignment import parse_node_mapping

        relabeling = parse_node_mapping(read_text(args.relabel))
    report = recovery_report(rec, truth, relabeling, meta_connected=not args.disconnected)
    write_text(args.output, report.to_json())
    return 0


def _cmd_align(args) -> int:
    from .alignment import (
        AnchorSet,
        align_by_hyperedge_ids,
        align_exact,
        align_wl_anchored,
        format_alignment,
        parse_anchor_file,
        parse_edge_pairs,
    )

    for flag, method in (("edge_pairs", "ids"), ("anchors", "wl-ir"), ("max_nodes", "exact")):
        if getattr(args, flag) is not None and args.method != method:
            raise ValueError(f"--{flag.replace('_', '-')} is read only by --method {method}")
    h1 = load_hypergraph(args.h1)
    h2 = load_hypergraph(args.h2)
    if args.method == "exact":
        cap = {} if args.max_nodes is None else {"max_nodes": args.max_nodes}
        alignment = align_exact(h1, h2, **cap)
    elif args.method == "ids":
        if args.edge_pairs is None:
            raise ValueError("--method ids needs --edge-pairs")
        pairs = parse_edge_pairs(read_text(args.edge_pairs))
        alignment = align_by_hyperedge_ids(h1, h2, pairs)
    else:
        anchors = AnchorSet()
        if args.anchors is not None:
            anchors = parse_anchor_file(read_text(args.anchors))
        alignment = align_wl_anchored(h1, h2, anchors)
        if alignment is None:
            raise NotAnIsomorphism("no structural isomorphism between the two hypergraphs")
    write_text(args.output, format_alignment(alignment))
    return 0


def _cmd_fuse(args) -> int:
    from .alignment import fuse_datasets, parse_node_mapping
    from .sampling import Dataset

    d1 = Dataset.load(args.d1)
    d2 = Dataset.load(args.d2)
    phi = parse_node_mapping(read_text(args.mapping))
    fuse_datasets(d1, d2, phi).save(args.output)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import BoundsInput, lemma_rr_bounds, lower_bound_risk, mm_sample_bounds

    if (args.m0 is None) != (args.kappa0 is None):
        missing = "--m0" if args.m0 is None else "--kappa0"
        raise ValueError(f"--m0 and --kappa0 go together: {missing} is missing")
    doc: dict = {}
    b = BoundsInput(
        m=args.m,
        kappa=args.kappa,
        L=args.length_bound,
        c_pi=args.c_pi,
        C_pi=args.C_pi,
        epsilon=args.epsilon,
        delta=args.delta,
    )
    k_min, n_min = mm_sample_bounds(b)
    doc["K_min"] = k_min
    doc["N_min"] = n_min
    if args.n_samples is not None:
        doc["minimax_lower_bound"] = lower_bound_risk(args.m, args.n_samples)
    if args.m0 is not None:
        lo, hi = lemma_rr_bounds(args.m0, args.kappa0)
        doc["weight_min_floor"] = lo
        doc["weight_max_ceiling"] = hi
    write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepConfig, run_sweep, save_csv

    cfg = SweepConfig.load(args.config)
    rows = run_sweep(cfg, jobs=args.jobs)
    save_csv(rows, args.output)
    return 0


def _cmd_fit(args) -> int:
    from .bounds import fit_scaling, load_csv

    slope, intercept = fit_scaling(load_csv(args.csv), args.x_field, args.y_field)
    write_text(args.output, json.dumps({"slope": slope, "intercept": intercept}, indent=2) + "\n")
    return 0


def _cmd_kg_ingest(args) -> int:
    from .kgeval import ingest_edge_list

    kg = ingest_edge_list(args.tsv)
    write_text(args.output, kg.to_tsv())
    return 0


def _cmd_kg_extract(args) -> int:
    from .kgeval import SubgraphSpec, extract_subgraph, ingest_edge_list

    kg = ingest_edge_list(args.kg)
    truth, entities = extract_subgraph(kg, SubgraphSpec(args.source.lower(), args.k, args.d))
    doc = {
        "source": args.source.lower(),
        "k": args.k,
        "d": args.d,
        "entities": entities,
        "edges": [list(e) for e in sorted(truth.edges)],
    }
    write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


def _load_subgraph(path: str, need_k: bool) -> dict:
    """Read a kg-extract document, checking ``entities`` and, when asked, ``k``."""
    doc = read_json(read_text(path), f"{path}: subgraph")
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: subgraph must be a JSON object")
    entities = doc.get("entities")
    if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
        raise ValueError(f"{path}: subgraph 'entities' must be a list of strings")
    if need_k and (isinstance(doc.get("k"), bool) or not isinstance(doc.get("k"), int)):
        raise ValueError(f"{path}: subgraph 'k' must be an integer, got {doc.get('k')!r}")
    return doc


def _cmd_kg_prompt(args) -> int:
    from .kgeval import render_prompt

    doc = _load_subgraph(args.subgraph, need_k=args.k is None)
    k = args.k if args.k is not None else doc["k"]
    write_text(args.output, render_prompt(doc["entities"], k))
    return 0


def _cmd_kg_parse(args) -> int:
    from .kgeval import parse_edgelist

    doc = _load_subgraph(args.subgraph, need_k=False)
    response = read_text(args.response)
    pairs, unparsed = parse_edgelist(response, doc["entities"])
    out = {"pairs": [list(p) for p in sorted(pairs)], "unparsed": unparsed}
    write_text(args.output, json.dumps(out, indent=2) + "\n")
    return 0


def _completion(args, prompt: str) -> str:
    """The model's answer to ``prompt``, replayed from ``--responses-dir`` or fetched live."""
    from .kgeval import EndpointConfig, chat_completion, replay_completion

    if args.responses_dir is not None:
        return replay_completion(args.responses_dir, prompt)
    return chat_completion(EndpointConfig.load(args.endpoint_config), prompt)


def _cmd_kg_chat(args) -> int:
    write_text(args.output, _completion(args, read_text(args.prompt_file)))
    return 0


def _cmd_kg_eval(args) -> int:
    from .kgeval import (
        SubgraphSpec,
        eval_csv_row,
        evaluate_response,
        extract_subgraph,
        ingest_edge_list,
        render_prompt,
    )

    if args.model is not None and args.csv is None:
        raise ValueError("--model is read only with --csv")
    kg = ingest_edge_list(args.kg)
    spec = SubgraphSpec(args.source.lower(), args.k, args.d)
    truth, entities = extract_subgraph(kg, spec)
    prompt = render_prompt(entities, args.k)
    response = read_text(args.response) if args.response is not None else _completion(args, prompt)
    result = evaluate_response(truth, entities, response)
    write_text(args.output, result.to_json())
    if args.csv is not None:
        model = "unknown" if args.model is None else args.model
        write_text(args.csv, eval_csv_row(spec.source, spec.k, spec.d, model, result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .generators import STRUCTURES

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="logging verbosity",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="64-bit unsigned master seed")

    parser = argparse.ArgumentParser(
        prog="hgrec",
        description="Weighted hypergraph recovery, alignment, and relation evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", parents=[common, seeded], help="generate a weighted benchmark hypergraph (.hg)"
    )
    p.add_argument("--structure", required=True, choices=STRUCTURES)
    p.add_argument("--n", type=int, default=None, help="node count (every structure but frucht)")
    p.add_argument("--p", type=float, default=None, help="edge density (wcgnm only)")
    p.add_argument("--w-min", type=float, default=1.0)
    p.add_argument("--w-max", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True, help=OUTPUT)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sample", parents=[common, seeded], help="draw i.i.d. hyperedge samples (.ds)")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("-n", "--n-samples", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help=OUTPUT)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("mm-sample", parents=[common, seeded], help="draw masked-modeling records (.mm)")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("-n", "--n-samples", type=int, required=True, help="outer draws N")
    p.add_argument("-k", "--k-inner", type=int, default=1, help="masked variants per draw K")
    p.add_argument("--mask", default="uniform1")
    p.add_argument("-o", "--output", required=True, help=OUTPUT)
    p.set_defaults(func=_cmd_mm_sample)

    p = sub.add_parser("train", parents=[common], help="train the count-ratio oracle from .mm data")
    p.add_argument("--mm-data", required=True)
    p.add_argument("-o", "--output", required=True, help=OUTPUT)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("recover", parents=[common], help="two-phase recovery from an oracle")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--oracle", help="trained oracle JSON")
    src.add_argument("--exact-from", help="hypergraph file for an exact population oracle")
    p.add_argument("--candidates", default="pairs", help="'pairs' or a candidate edge file")
    p.add_argument("--mask", default="uniform1")
    p.add_argument("-o", "--output", required=True, help="the .hg file to write (not -: stdout gets meta_connected)")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("report", parents=[common], help="recovery error report vs a truth file")
    p.add_argument("--truth", required=True)
    p.add_argument("--rec", required=True)
    p.add_argument("--relabel", help="node mapping file applied to the recovered hypergraph")
    p.add_argument("--disconnected", action="store_true", help="mark the meta-graph as disconnected")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("align", parents=[common], help="align the entities of two hypergraphs")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--method", required=True, choices=("exact", "ids", "wl-ir"))
    p.add_argument("--anchors", help="anchor file (wl-ir)")
    p.add_argument("--edge-pairs", help="edge correspondence file (ids)")
    p.add_argument("--max-nodes", type=int, help="node cap (exact)")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("fuse", parents=[common], help="relabel one dataset and append another")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--mapping", required=True, help="node mapping file (alignment output)")
    p.add_argument("-o", "--output", required=True, help=OUTPUT)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("bounds", parents=[common], help="evaluate the closed-form sample bounds")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--length-bound", "-L", type=int, required=True, dest="length_bound")
    p.add_argument("--c-pi", type=float, required=True)
    p.add_argument("--C-pi", type=float, required=True, dest="C_pi")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=None, help="evaluate the minimax floor at N")
    p.add_argument("--m0", type=int, default=None, help="lemma bounds: distribution size")
    p.add_argument("--kappa0", type=float, default=None, help="lemma bounds: range ratio")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", parents=[common], help="run a recovery-error sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output", required=True, help=OUTPUT)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", parents=[common], help="log-log scaling fit over sweep rows")
    p.add_argument("--csv", required=True)
    p.add_argument("--x-field", default="N")
    p.add_argument("--y-field", default="d_plugin")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("kg-ingest", parents=[common], help="normalize a relatedness TSV")
    p.add_argument("--tsv", required=True)
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_kg_ingest)

    p = sub.add_parser("kg-extract", parents=[common], help="top-k depth-d subgraph around a source")
    p.add_argument("--kg", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_kg_extract)

    p = sub.add_parser("kg-prompt", parents=[common], help="render the evaluation prompt")
    p.add_argument("--subgraph", required=True, help="kg-extract output JSON")
    p.add_argument("-k", type=int, default=None, help="override the embedded k")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_kg_prompt)

    p = sub.add_parser("kg-parse", parents=[common], help="parse an edgelist out of a response")
    p.add_argument("--response", required=True)
    p.add_argument("--subgraph", required=True, help="kg-extract output JSON (vocabulary)")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_kg_parse)

    p = sub.add_parser("kg-chat", parents=[common], help="fetch a model response for a prompt")
    p.add_argument("--prompt-file", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--endpoint-config", help="endpoint JSON (live mode)")
    src.add_argument("--responses-dir", help="offline replay directory keyed by prompt hash")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_kg_chat)

    p = sub.add_parser("kg-eval", parents=[common], help="end-to-end relation evaluation")
    p.add_argument("--kg", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--responses-dir", help="offline replay directory")
    src.add_argument("--response", help="response text file")
    src.add_argument("--endpoint-config", help="endpoint JSON (live mode)")
    p.add_argument("--model", help="model label for the CSV row (default unknown)")
    p.add_argument("--csv", help="also write a CSV row to this file, or - for stdout")
    p.add_argument("-o", "--output", default="-", help=f"{OUTPUT} (default -)")
    p.set_defaults(func=_cmd_kg_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        for flag, name in (("output", "-o"), ("csv", "--csv")):
            path = getattr(args, flag, None)
            if path == "":
                raise ValueError(f"{name} is empty: it must name a file")
            written = flag == "output" or args.command == "kg-eval"  # fit --csv is read
            if written and path not in (None, "-") and not Path(path).parent.is_dir():
                raise FileNotFoundError(f"no directory {str(Path(path).parent)!r} to write {name} into")
        return args.func(args)
    except (HgrecError, ValueError, OSError, MemoryError) as exc:
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # one line, whatever it holds
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
