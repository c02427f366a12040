"""Command-line entry points.

Subcommands: `generate` writes the planted-community benchmark to files,
`align` optimizes subspace dimensions and reports the alignment measure,
`randomize` emits a degraded copy of a dataset, `train` fits one model
variant, `sweep` runs a randomization sweep to CSV, and `correlate`
reads a sweep CSV and prints the accuracy/alignment correlation per
dataset and variant. Every flag can also be supplied through a
`key = value` config file via `--config`; explicit flags win.

Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datasets import (
    ConstructiveSpec,
    Dataset,
    generate_constructive,
    largest_connected_component,
    load_dataset,
    save_dataset,
)
from .experiments import (
    AXES,
    SweepSpec,
    _randomized_dataset,
    correlate,
    read_rows,
    run_sweep,
    write_rows,
)
from .models import VARIANTS, GcnConfig, build_split, train
from .subspaces import METRICS, alignment_at, optimize_dimensions

__all__ = ["main", "cli"]


class CliUsageError(Exception):
    """Bad invocation discovered outside argparse (config files, flag combos)."""


# Flags that take no value; a config file supplies them as key = true/false.
_SWITCH_KEYS = {"lcc"}
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _read_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliUsageError(f"{path}:{lineno}: expected `key = value`")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config FILE` into flags inserted after the subcommand.

    Insertion before the explicit flags means a flag given on the command
    line overrides the same key from the file.
    """
    while "--config" in argv:
        i = argv.index("--config")
        if i == 0:
            raise CliUsageError("--config must follow a subcommand")
        if i + 1 >= len(argv):
            raise CliUsageError("--config needs a file path")
        path = argv[i + 1]
        del argv[i : i + 2]
        injected: list[str] = []
        for key, value in _read_config(path):
            flag = "--" + key.replace("_", "-")
            if key in _SWITCH_KEYS:
                if value.lower() in _TRUE_WORDS:
                    injected.append(flag)
                elif value.lower() not in _FALSE_WORDS:
                    raise CliUsageError(f"{path}: {key} must be true or false, got {value!r}")
            else:
                injected.extend([flag, value])
        argv[1:1] = injected
    return argv


def _parse_grid(text: str) -> tuple[int, ...]:
    """`start:stop:step` (stop inclusive) or a comma-separated list."""
    try:
        if ":" in text:
            start, stop, step = (int(t) for t in text.split(":"))
            if step <= 0:
                raise ValueError
            return tuple(range(start, stop + 1, step))
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliUsageError(f"cannot parse grid {text!r} (use start:stop:step or a,b,c)") from None


def _seed(text: str) -> int:
    """Argument type of the seed and realization flags: the seed rule
    hashes them, so they must be nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("dataset")
    group.add_argument("--dataset", choices=("constructive", "files"), default="constructive",
                       help="built-in generated benchmark or files on disk")
    group.add_argument("--seed", type=_seed, default=0, help="generation seed (constructive)")
    group.add_argument("--edges", help="edge-list file (--dataset files)")
    group.add_argument("--features", help="per-node feature/label file (--dataset files)")
    group.add_argument("--format", choices=("generic", "cora"), default="generic")
    group.add_argument("--name", help="dataset name used in outputs (default: file stem)")
    group.add_argument("--lcc", action="store_true",
                       help="restrict to the largest connected component")
    parser.add_argument("--config", help="key = value file supplying any flag", metavar="FILE")


def _resolve_dataset(args: argparse.Namespace) -> tuple[str, Dataset]:
    if args.dataset == "constructive":
        ds = generate_constructive(ConstructiveSpec(seed=args.seed))
        name = args.name or "constructive"
    else:
        if not args.edges or not args.features:
            raise CliUsageError("--dataset files requires --edges and --features")
        ds = load_dataset(args.edges, args.features, format=args.format)
        name = args.name or Path(args.features).stem
    if args.lcc:
        ds = largest_connected_component(ds)
    return name, ds


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = ConstructiveSpec(
        n_nodes=args.nodes,
        n_communities=args.communities,
        n_features=args.communities * args.features_per_community,
        features_per_community=args.features_per_community,
        p_in=args.p_in,
        p_out=args.p_out,
        seed=args.seed,
    )
    ds = generate_constructive(spec)
    save_dataset(ds, args.out_edges, args.out_features)
    _emit(
        {"nodes": ds.n_nodes, "edges": ds.n_edges, "features": ds.n_features,
         "classes": ds.num_classes, "seed": args.seed},
        None,
    )
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    result = optimize_dimensions(
        ds,
        metric=args.metric,
        n_null=args.nulls,
        grid_points=args.grid_points,
        rounds=args.rounds,
        seed=args.align_seed,
    )
    _emit({"dataset": name, **result.to_dict()}, args.out)
    return 0


def _cmd_randomize(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    degraded = _randomized_dataset(ds, args.axis, args.percent, args.rand_seed, args.realization)
    save_dataset(degraded, args.out_edges, args.out_features)
    _emit(
        {"dataset": name, "axis": args.axis, "percent": args.percent,
         "edges": degraded.n_edges},
        None,
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    config = GcnConfig(
        hidden_units=args.hidden,
        learning_rate=args.lr,
        dropout=args.dropout,
        l2_weight=args.l2,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.train_seed,
    )
    split = build_split(ds.labels, seed=args.split_seed)
    report = train(ds, args.variant, config, split=split)
    _emit(
        {
            "dataset": name,
            "variant": report.variant,
            "seed": report.seed,
            "epochs_run": report.epochs_run,
            "test_accuracy": report.test_accuracy,
            "final_train_loss": report.train_losses[-1],
            "final_val_loss": report.val_losses[-1],
        },
        args.out,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    if (args.kx is None) != (args.ka is None):
        raise CliUsageError("--kx and --ka must be given together")
    if args.kx is not None:
        dims = alignment_at(ds, args.kx, args.ka, metric=args.metric)
    else:
        dims = optimize_dimensions(
            ds,
            metric=args.metric,
            n_null=args.nulls,
            grid_points=args.grid_points,
            rounds=args.rounds,
            seed=args.align_seed,
        )
    spec = SweepSpec(
        dataset=ds,
        name=name,
        axis=args.axis,
        percents=_parse_grid(args.grid),
        realizations=args.realizations,
        variants=tuple(args.variants.split(",")),
        base_seed=args.base_seed,
    )
    rows = run_sweep(spec, dims, metric=args.metric, workers=args.workers)
    write_rows(args.out if args.out else sys.stdout, rows)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    rows = read_rows(args.csv)
    for result in correlate(rows, aggregation=args.aggregation):
        print(f"{result.dataset} {result.variant} r={result.r:+.4f} n={result.n_points}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphalign",
        description="Subspace alignment of graph datasets and GCN accuracy sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the planted-community benchmark to files")
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--communities", type=int, default=10)
    p.add_argument("--features-per-community", type=int, default=50)
    p.add_argument("--p-in", type=float, default=0.07)
    p.add_argument("--p-out", type=float, default=0.007)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-features", required=True)
    p.add_argument("--config", help="key = value file supplying any flag", metavar="FILE")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("align", help="optimize subspace dimensions, report the alignment")
    _add_dataset_args(p)
    p.add_argument("--metric", choices=METRICS, default="chordal")
    p.add_argument("--nulls", type=int, default=100, help="null realizations (10 = quick)")
    p.add_argument("--grid-points", type=int, default=10)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--align-seed", type=_seed, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("randomize", help="emit a randomized copy of a dataset")
    _add_dataset_args(p)
    p.add_argument("--axis", choices=AXES, default="both")
    p.add_argument("--percent", type=int, required=True, help="integer percent, as on a sweep grid")
    p.add_argument("--rand-seed", type=_seed, default=0, help="the sweep's --base-seed")
    p.add_argument("--realization", type=_seed, default=0,
                   help="realization index; reproduces the sweep rows with this index")
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-features", required=True)
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("train", help="train one model variant, report JSON")
    _add_dataset_args(p)
    p.add_argument("--variant", choices=VARIANTS, default="gcn")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=5e-4)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--patience", type=int, default=100)
    p.add_argument("--train-seed", type=_seed, default=0)
    p.add_argument("--split-seed", type=_seed, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="randomization sweep to CSV")
    _add_dataset_args(p)
    p.add_argument("--axis", choices=AXES, default="both")
    p.add_argument("--grid", default="0:100:10", help="start:stop:step (stop inclusive) or a,b,c")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--variants", default="gcn", help="comma-separated model variants")
    p.add_argument("--metric", choices=METRICS, default="chordal")
    p.add_argument("--base-seed", type=_seed, default=0)
    p.add_argument("--kx", type=int, help="fix the feature dimension (skips optimization)")
    p.add_argument("--ka", type=int, help="fix the graph dimension (skips optimization)")
    p.add_argument("--nulls", type=int, default=100)
    p.add_argument("--grid-points", type=int, default=10)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--align-seed", type=_seed, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("correlate", help="accuracy/alignment correlation from a sweep CSV")
    p.add_argument("csv", help="sweep CSV produced by the sweep subcommand")
    p.add_argument("--aggregation", choices=("percent_mean", "point"), default="percent_mean")
    p.add_argument("--config", help="key = value file supplying any flag", metavar="FILE")
    p.set_defaults(func=_cmd_correlate)

    return parser


def cli(argv: list[str]) -> int:
    """Run one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        expanded = _apply_config(list(argv))
        args = parser.parse_args(expanded)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return cli(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
