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
import inspect
import json
import math
import sys
from collections.abc import Callable
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
    _first_repeat,
    _randomized_dataset,
    correlate,
    read_rows,
    run_sweep_multi,
    write_rows,
)
from .models import VARIANTS, GcnConfig, build_split, train
from .subspaces import METRICS, AlignmentResult, alignment_at, optimize_dimensions

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
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise CliUsageError(f"{path}:{lineno}: a config file cannot name another")
        pairs.append((key, value))
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


def _int_at_least(minimum: int, kind: str, maximum: int | None = None) -> Callable[[str], int]:
    """Argument type: an integer of at least `minimum` (and at most
    `maximum`, if given), named `kind` in the usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"must be a {kind}, got {value}")
        return value

    return parse


# The seed and realization flags: the seed rule hashes them.
_seed = _int_at_least(0, "nonnegative integer")
# The count and size flags (rounds, nulls, realizations, nodes, epochs, ...).
_positive = _int_at_least(1, "positive integer")
# Degradation percents, as on a sweep grid.
_percent = _int_at_least(0, "percent in [0, 100]", maximum=100)


def _defaults(function: Callable) -> dict:
    """`function`'s parameter defaults, for the flags whose value it owns."""
    return {name: p.default for name, p in inspect.signature(function).parameters.items()}


def _finite_float(text: str) -> float:
    """Argument type of the real-valued flags (rates, weights, probabilities):
    NaN and infinities slip through range checks, so they are refused here."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _parse_grid(text: str) -> tuple[int, ...]:
    """Argument type of --grid: `start:stop:step` (stop inclusive) or a
    comma-separated list of percents."""
    try:
        if ":" in text:
            start, stop, step = (int(t) for t in text.split(":"))
            if step <= 0:
                raise ValueError
            grid = tuple(range(start, stop + 1, step))
        else:
            grid = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse grid {text!r} (use start:stop:step or a,b,c)") from None
    if not grid or not all(0 <= p <= 100 for p in grid):
        raise argparse.ArgumentTypeError(
            f"grid {text!r} must list one or more percents in [0, 100]")
    return _distinct(grid, "percent")


def _parse_variants(text: str) -> tuple[str, ...]:
    """Argument type of --variants: a comma-separated list of model variants."""
    unknown = sorted(set(text.split(",")) - set(VARIANTS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown variants {unknown} (choose from {VARIANTS})")
    return _distinct(tuple(text.split(",")), "variant")


def _distinct(values: tuple, kind: str) -> tuple:
    """`values`, refused if one repeats: a sweep keeps one cell per value."""
    if (repeated := _first_repeat(values)) is not None:
        raise argparse.ArgumentTypeError(f"{kind} {repeated!r} is listed twice")
    return values


# The generate and train flags of ConstructiveSpec and GcnConfig fields: flag: (field, type).
_SPEC_FLAGS = {
    "nodes": ("n_nodes", _positive), "communities": ("n_communities", _positive),
    "features_per_community": ("features_per_community", _positive),
    "p_in": ("p_in", _finite_float), "p_out": ("p_out", _finite_float), "seed": ("seed", _seed),
}
_CONFIG_FLAGS = {
    "hidden": ("hidden_units", _positive), "lr": ("learning_rate", _finite_float),
    "dropout": ("dropout", _finite_float), "l2": ("l2_weight", _finite_float),
    "epochs": ("max_epochs", _positive), "patience": ("patience", _positive),
    "train_seed": ("seed", _seed),
}


def _add_field_flags(parser: argparse.ArgumentParser, owner: type, flags: dict) -> None:
    """One flag per entry of `flags`, defaulting to `owner`'s field value."""
    for flag, (name, kind) in flags.items():
        parser.add_argument("--" + flag.replace("_", "-"), type=kind, default=getattr(owner, name))


def _fields(args: argparse.Namespace, flags: dict) -> dict:
    """The field values that `flags` set, read off the parsed flags."""
    return {name: getattr(args, flag) for flag, (name, _) in flags.items()}


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("dataset")
    group.add_argument("--dataset", choices=("constructive", "files"), default="constructive",
                       help="built-in generated benchmark or files on disk")
    group.add_argument("--seed", type=_seed, default=ConstructiveSpec.seed,
                       help="generation seed (constructive)")
    group.add_argument("--edges", help="edge-list file (--dataset files)")
    group.add_argument("--features", help="per-node feature/label file (--dataset files)")
    group.add_argument("--format", choices=("generic", "cora"),
                       default=_defaults(load_dataset)["format"])
    group.add_argument("--name", help="dataset name used in outputs (default: file stem)")
    group.add_argument("--lcc", action="store_true",
                       help="restrict to the largest connected component")


def _add_search_args(parser: argparse.ArgumentParser) -> None:
    search = _defaults(optimize_dimensions)
    parser.add_argument("--metric", choices=METRICS, default=search["metric"])
    parser.add_argument("--nulls", type=_positive, default=search["n_null"],
                        help="null realizations (10 = quick)")
    parser.add_argument("--grid-points", type=_positive, default=search["grid_points"])
    parser.add_argument("--rounds", type=_positive, default=search["rounds"])
    parser.add_argument("--align-seed", type=_seed, default=search["seed"])


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
    spec = ConstructiveSpec(n_features=args.communities * args.features_per_community,
                            **_fields(args, _SPEC_FLAGS))
    ds = generate_constructive(spec)
    save_dataset(ds, args.out_edges, args.out_features)
    _emit(
        {"nodes": ds.n_nodes, "edges": ds.n_edges, "features": ds.n_features,
         "classes": ds.num_classes, "seed": args.seed},
        None,
    )
    return 0


def _optimize(ds: Dataset, args: argparse.Namespace) -> AlignmentResult:
    """The dimension search configured by the align and sweep flags."""
    return optimize_dimensions(ds, metric=args.metric, n_null=args.nulls,
                               grid_points=args.grid_points, rounds=args.rounds,
                               seed=args.align_seed)


def _cmd_align(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    result = _optimize(ds, args)
    _emit({"dataset": name, **result.to_dict()}, args.out)
    return 0


def _cmd_randomize(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    degraded, _ = _randomized_dataset(ds, args.axis, args.percent, args.rand_seed, args.realization)
    save_dataset(degraded, args.out_edges, args.out_features)
    _emit(
        {"dataset": name, "axis": args.axis, "percent": args.percent,
         "edges": degraded.n_edges},
        None,
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    name, ds = _resolve_dataset(args)
    split = build_split(ds.labels, seed=args.split_seed)
    report = train(ds, args.variant, GcnConfig(**_fields(args, _CONFIG_FLAGS)), split=split)
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
        dims = _optimize(ds, args)
    spec = SweepSpec(
        dataset=ds,
        name=name,
        axis=args.axis,
        percents=args.grid,
        realizations=args.realizations,
        variants=args.variants,
        base_seed=args.base_seed,
    )
    rows = run_sweep_multi(spec, dims, metrics=(args.metric,), workers=args.workers)[args.metric]
    write_rows(args.out if args.out else sys.stdout, rows)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    rows = read_rows(args.csv)
    status = 0
    for result in correlate(rows, aggregation=args.aggregation):
        print(f"{result.dataset} {result.variant} r={result.r:+.4f} n={result.n_points}")
        if result.reason:
            print(f"error: {result.dataset} {result.variant}: r is undefined: {result.reason}",
                  file=sys.stderr)
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphalign",
        description="Subspace alignment of graph datasets and GCN accuracy sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the planted-community benchmark to files")
    _add_field_flags(p, ConstructiveSpec, _SPEC_FLAGS)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-features", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("align", help="optimize subspace dimensions, report the alignment")
    _add_dataset_args(p)
    _add_search_args(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("randomize", help="emit a randomized copy of a dataset")
    _add_dataset_args(p)
    p.add_argument("--axis", choices=AXES, default=SweepSpec.axis)
    p.add_argument("--percent", type=_percent, required=True,
                   help="integer percent, as on a sweep grid")
    p.add_argument("--rand-seed", type=_seed, default=SweepSpec.base_seed,
                   help="the sweep's --base-seed")
    p.add_argument("--realization", type=_seed, default=0,
                   help="realization index; reproduces the sweep rows with this index")
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-features", required=True)
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("train", help="train one model variant, report JSON")
    _add_dataset_args(p)
    p.add_argument("--variant", choices=VARIANTS, default=_defaults(train)["variant"])
    _add_field_flags(p, GcnConfig, _CONFIG_FLAGS)
    p.add_argument("--split-seed", type=_seed, default=_defaults(build_split)["seed"])
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="randomization sweep to CSV")
    _add_dataset_args(p)
    _add_search_args(p)
    p.add_argument("--axis", choices=AXES, default=SweepSpec.axis)
    p.add_argument("--grid", type=_parse_grid, default=SweepSpec.percents,
                   help="start:stop:step (stop inclusive) or a,b,c")
    p.add_argument("--realizations", type=_positive, default=SweepSpec.realizations)
    p.add_argument("--variants", type=_parse_variants, default=SweepSpec.variants,
                   help="comma-separated model variants")
    p.add_argument("--base-seed", type=_seed, default=SweepSpec.base_seed)
    p.add_argument("--kx", type=_positive, help="fix the feature dimension (skips optimization)")
    p.add_argument("--ka", type=_positive, help="fix the graph dimension (skips optimization)")
    p.add_argument("--workers", type=_positive, default=_defaults(run_sweep_multi)["workers"])
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("correlate", help="accuracy/alignment correlation from a sweep CSV")
    p.add_argument("csv", help="sweep CSV produced by the sweep subcommand")
    p.add_argument("--aggregation", choices=("percent_mean", "point"),
                   default=_defaults(correlate)["aggregation"])
    p.set_defaults(func=_cmd_correlate)

    for p in sub.choices.values():
        p.add_argument("--config", help="key = value file supplying any flag", metavar="FILE")
    return parser


def cli(argv: list[str]) -> int:
    """Run one invocation; returns the process exit code."""
    try:
        args = build_parser().parse_args(_apply_config(list(argv)))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
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
