"""Command-line surface: graph | train | eval | predict | ablate.

A run's settings are one ``RunConfig``: the ``--config`` JSON file with the
subcommand's override flags on top.  Each subcommand registers only the
flags it reads: ``train`` and ``ablate`` all ten settings flags, ``graph``
``--config``, ``--out`` and ``--tau``, ``eval`` ``--config``, and
``predict`` none, since its settings come from the checkpoint.  Any other
flag, or an abbreviation of one, is a usage error before anything runs.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 numeric failure, 4 internal error (the traceback is printed).  BLAS thread
pools are pinned to one thread before numpy loads so training runs are
reproducible and desk-scale timings honest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import fields

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, ConfigError, LabelsetError, ValidationError


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with the config error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> _Parser:
    parser = _Parser(prog="labelset",
                     description="Multi-label text classification as set prediction")
    commands = parser.add_subparsers(dest="command", required=True)
    # each flag's dest is the RunConfig key it overrides (--config excepted)
    settings = {
        "--config": dict(help="JSON file of run settings"),
        "--seed": dict(type=int, help="override the run seed"),
        "--out": dict(dest="out_dir", help="override the output directory"),
        "--lambda": dict(dest="bc_weight", type=float,
                         help="override the overlap-penalty weight"),
        "--tau": dict(type=float, help="override the edge threshold"),
        "--m": dict(dest="num_queries", type=int, help="override the query slot count"),
        "--no-gcn": dict(dest="use_gcn", action="store_const", const=False,
                         help="replace graph queries with a plain learnable table"),
        "--no-bc": dict(dest="use_bc", action="store_const", const=False,
                        help="disable the overlap penalty"),
        "--head": dict(choices=("set_prediction", "bce"),
                       help="override the classification head"),
        "--cost-mode": dict(choices=("prob", "log_prob"),
                            help="override the matching cost flavor"),
    }

    def command(name, func, summary, flags=()):
        sub = commands.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            sub.add_argument(flag, **settings[flag])
        sub.set_defaults(func=func)
        return sub

    command("graph", cmd_graph, "build and dump the label graph", ("--config", "--out", "--tau"))
    command("train", cmd_train, "train a model", settings)

    eval_cmd = command("eval", cmd_eval, "evaluate a checkpoint", ("--config",))
    eval_cmd.add_argument("--checkpoint", required=True)
    eval_cmd.add_argument("--split", choices=("train", "valid", "test"), default="test")

    # settings come from the checkpoint
    predict_cmd = command("predict", cmd_predict, "label a JSONL file")
    predict_cmd.add_argument("--checkpoint", required=True)
    predict_cmd.add_argument("--input", required=True)
    predict_cmd.add_argument("--output", required=True)

    command("ablate", cmd_ablate,
            "train full, wo/GCN, wo/BC, and bce variants and compare", settings)
    return parser


def resolve_config(args):
    """The RunConfig of ``--config`` with the subcommand's flag overrides."""
    from .model import RunConfig

    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
    keys = {f.name for f in fields(RunConfig)}
    raw.update({key: value for key, value in vars(args).items()
                if key in keys and value is not None})
    return RunConfig.from_dict(raw)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def echo_config(config, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "config.json"), config.to_dict())


def load_splits(config):
    from .data import build_corpus, read_jsonl

    if config.train_path is None:
        raise ConfigError("train_path is required")
    duplicates = 0
    splits = []
    for path in (config.train_path, config.valid_path, config.test_path):
        if path is None:
            splits.append([])
            continue
        records, dups = read_jsonl(path)
        duplicates += dups
        splits.append(records)
    corpus = build_corpus(*splits)
    corpus.counters["duplicate_labels"] = duplicates
    return corpus


def cmd_graph(args) -> int:
    from .graph import LabelGraph, dump_matrix

    config = resolve_config(args)
    corpus = load_splits(config)
    built = LabelGraph(corpus.train, corpus.label_vocab,
                       tau=config.tau, p_neighbor=config.p_neighbor)
    out_dir = config.out_dir
    echo_config(config, out_dir)
    dump_matrix(os.path.join(out_dir, "counts.txt"), built.counts.astype(float))
    dump_matrix(os.path.join(out_dir, "cond_prob.txt"), built.cond_prob)
    dump_matrix(os.path.join(out_dir, "reweighted.txt"), built.reweighted)
    names = corpus.label_vocab.names
    lines = [
        f"labels: {built.num_labels}",
        f"training samples: {len(corpus.train)}",
        f"edges retained at tau={config.tau}: {built.edge_count}",
        f"isolated labels: {', '.join(names[i] for i in built.isolated_labels) or '(none)'}",
    ]
    for i in range(built.num_labels):
        for j in range(built.num_labels):
            if i != j and built.reweighted[i, j] > 0.0:
                lines.append(f"edge {names[i]} -> {names[j]}: "
                             f"cond_prob={built.cond_prob[i, j]:.4f}")
    summary = "\n".join(lines)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary + "\n")
    print(summary)
    return 0


def cmd_train(args) -> int:
    from .training import run_training

    config = resolve_config(args)
    corpus = load_splits(config)
    if len(corpus.valid) == 0:
        raise ConfigError("valid_path is required: training selects its checkpoint "
                          "by validation F1")
    echo_config(config, config.out_dir)
    model, result = run_training(config, corpus, out_dir=config.out_dir, log_stream=sys.stdout)
    write_json(os.path.join(config.out_dir, "run_summary.json"), {
        "best_epoch": result.best_epoch,
        "best_valid_f1": result.best_valid_f1,
        "corpus_counters": corpus.counters,
        "truncated_train_records": sum(len(s.tokens) > config.max_len for s in corpus.train),
    })
    print(f"best valid F1 {result.best_valid_f1:.4f} at epoch {result.best_epoch}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    from .data import read_jsonl, records_to_dataset
    from .metrics import render_table, report_json
    from .model import load_checkpoint
    from .training import evaluate

    config = resolve_config(args)
    model = load_checkpoint(args.checkpoint)
    path = getattr(config, f"{args.split}_path")
    if path is None:
        raise ConfigError(f"{args.split}_path is required to evaluate that split")
    records, _ = read_jsonl(path)
    if not records:
        raise ValidationError(f"{args.split} split {path} holds no records to evaluate")
    dataset, dropped = records_to_dataset(records, model.label_vocab, model.token_vocab,
                                          name=args.split, drop_unseen=True)
    report = evaluate(model, dataset)
    print(f"dropped {dropped} mentions of labels the model was not trained on")
    print(render_table([(args.split, report)]))
    print(report_json(report))
    return 0


def cmd_predict(args) -> int:
    from .data import read_jsonl
    from .model import load_checkpoint

    model = load_checkpoint(args.checkpoint)

    records, _ = read_jsonl(args.input, require_labels=False)
    preds = model.predict_many([model.token_vocab.encode(record.text) for record in records])
    with open(args.output, "w", encoding="utf-8") as fh:
        for record, pred in zip(records, preds):
            names = model.label_vocab.decode(pred)
            fh.write(json.dumps({"text": record.text, "predicted_labels": names}) + "\n")
    print(f"wrote {len(records)} predictions to {args.output}")
    return 0


VARIANTS = (
    ("full", {}),
    ("wo/GCN", {"use_gcn": False}),
    ("wo/BC", {"use_bc": False}),
    ("bce", {"head": "bce"}),
)


def cmd_ablate(args) -> int:
    from .metrics import render_table
    from .model import RunConfig
    from .training import evaluate, run_training

    config = resolve_config(args)
    corpus = load_splits(config)
    if len(corpus.valid) == 0:
        raise ConfigError("valid_path is required: training selects its checkpoint "
                          "by validation F1")
    target = corpus.test if len(corpus.test) else corpus.valid
    echo_config(config, config.out_dir)
    rows = []
    for name, overrides in VARIANTS:
        variant_config = RunConfig.from_dict({**config.to_dict(), **overrides})
        sub_dir = os.path.join(config.out_dir, name.replace("/", "_"))
        print(f"[{name}]")
        model, _result = run_training(variant_config, corpus, out_dir=sub_dir,
                                      log_stream=sys.stdout)
        rows.append((name, evaluate(model, target)))
    table = render_table(rows)
    print(table)
    write_json(os.path.join(config.out_dir, "ablation.json"), dict(rows))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LabelsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
