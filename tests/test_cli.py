import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graphalign
from conftest import make_dataset
from graphalign import (
    ConstructiveSpec,
    GcnConfig,
    SweepSpec,
    alignment_at,
    build_split,
    correlate,
    load_dataset,
    optimize_dimensions,
    read_rows,
    run_sweep_multi,
    save_dataset,
    train,
    write_rows,
)
from graphalign.cli import build_parser, cli
from graphalign.experiments import CSV_HEADER, _randomized_dataset

GEN_ARGS = ["--nodes", "60", "--communities", "3", "--features-per-community", "4",
            "--p-in", "0.3", "--p-out", "0.05", "--seed", "1"]


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """Generated benchmark written to disk once for the file-based commands."""
    root = tmp_path_factory.mktemp("ds")
    edges, features = str(root / "edges.txt"), str(root / "features.txt")
    code = cli(["generate", *GEN_ARGS, "--out-edges", edges, "--out-features", features])
    assert code == 0
    return edges, features


def file_args(dataset_files):
    edges, features = dataset_files
    return ["--dataset", "files", "--edges", edges, "--features", features]


def test_generate_writes_loadable_dataset(dataset_files, capsys):
    edges, features = dataset_files
    ds = load_dataset(edges, features)
    assert ds.n_nodes == 60
    assert ds.num_classes == 3
    assert ds.n_features == 12
    code = cli(["generate", *GEN_ARGS, "--out-edges", edges, "--out-features", features])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 60 and payload["edges"] == ds.n_edges


def test_train_reports_json(dataset_files, tmp_path):
    out = tmp_path / "report.json"
    code = cli(["train", *file_args(dataset_files), "--epochs", "5",
                "--patience", "50", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["variant"] == "gcn"
    assert payload["epochs_run"] == 5
    assert 0.0 <= payload["test_accuracy"] <= 1.0
    assert payload["dataset"] == "features"  # file stem is the default name


def test_train_on_labels_that_skip_a_class(dataset_files, tmp_path):
    """A generic label file whose labels skip class 1 trains; the split
    stratified over class 1 too and refused it with exit 1."""
    ds = load_dataset(*dataset_files)
    edges, features = tmp_path / "e.txt", tmp_path / "f.txt"
    save_dataset(replace(ds, labels=np.where(ds.labels == 1, 0, ds.labels)), edges, features)
    out = tmp_path / "report.json"
    code = cli(["train", *file_args((str(edges), str(features))), "--epochs", "5",
                "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["epochs_run"] == 5


def test_non_finite_feature_file_exits_1(tmp_path, capsys):
    edges, features = tmp_path / "e.txt", tmp_path / "f.txt"
    edges.write_text("a b\n")
    features.write_text("a 1.0 0\nb nan 1\n")
    code = cli(["align", *file_args((str(edges), str(features))), "--nulls", "2"])
    assert code == 1
    assert "f.txt:2: non-finite feature value" in capsys.readouterr().err


def test_align_quick(dataset_files, capsys):
    code = cli(["align", *file_args(dataset_files), "--nulls", "2",
                "--grid-points", "3", "--name", "toy"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dataset"] == "toy"
    assert payload["k_star_y"] == 3
    assert 3 <= payload["k_star_x"] <= 12
    assert payload["sam"] >= 0.0


def test_align_on_features_narrower_than_the_labels_exits_1(dataset_files, tmp_path, capsys):
    """Two distinct feature rows span two columns, fewer than the three
    classes where the k_x grid starts."""
    ds = load_dataset(*dataset_files)
    edges, features = tmp_path / "e.txt", tmp_path / "f.txt"
    save_dataset(replace(ds, features=np.eye(ds.n_features)[np.arange(ds.n_nodes) % 2]),
                 edges, features)
    code = cli(["align", *file_args((str(edges), str(features))), "--nulls", "1"])
    assert code == 1
    assert "has 2 columns" in capsys.readouterr().err


def test_randomize_deterministic(dataset_files, tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        oe, of = str(tmp_path / f"e{tag}.txt"), str(tmp_path / f"f{tag}.txt")
        code = cli(["randomize", *file_args(dataset_files), "--axis", "graph",
                    "--percent", "50", "--rand-seed", "3",
                    "--out-edges", oe, "--out-features", of])
        assert code == 0
        outs.append((oe, of))
    capsys.readouterr()
    (ea, fa), (eb, fb) = outs
    assert Path(ea).read_text() == Path(eb).read_text()
    assert Path(fa).read_text() == Path(fb).read_text()
    degraded = load_dataset(ea, fa)
    assert degraded.n_nodes == 60


def test_randomize_reproduces_sweep_realization(dataset_files, tmp_path, capsys):
    """The CLI copy at (percent, realization, seed) is the dataset behind that sweep row."""
    oe, of = str(tmp_path / "e.txt"), str(tmp_path / "f.txt")
    code = cli(["randomize", *file_args(dataset_files), "--axis", "both", "--percent", "50",
                "--rand-seed", "3", "--realization", "2", "--out-edges", oe, "--out-features", of])
    assert code == 0
    degraded = load_dataset(oe, of)
    expected, _ = _randomized_dataset(load_dataset(*dataset_files), "both", 50, 3, 2)
    assert np.array_equal(degraded.features, expected.features)
    assert (degraded.adjacency != expected.adjacency).nnz == 0

    out = tmp_path / "sweep.csv"
    code = cli(["sweep", *file_args(dataset_files), "--axis", "both", "--kx", "5", "--ka", "4",
                "--grid", "50", "--realizations", "3", "--base-seed", "3", "--out", str(out)])
    assert code == 0
    row = next(r for r in read_rows(out) if r.realization == 2)
    assert row.percent == 50
    assert alignment_at(degraded, 5, 4).sam == row.sam
    capsys.readouterr()


def test_sweep_to_csv_and_correlate(dataset_files, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli(["sweep", *file_args(dataset_files), "--kx", "5", "--ka", "4",
                "--grid", "0:100:50", "--realizations", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER
    rows = read_rows(out)
    assert [r.percent for r in rows] == [0, 50, 100]
    assert all(r.kx == 5 and r.ka == 4 for r in rows)

    capsys.readouterr()
    code = cli(["correlate", str(out), "--aggregation", "point"])
    out_text = capsys.readouterr().out
    assert code == 0
    line = out_text.strip().splitlines()[0]
    assert line.startswith("features gcn r=")
    assert " n=3" in line


def test_sweep_grid_list_form(dataset_files, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli(["sweep", *file_args(dataset_files), "--kx", "5", "--ka", "4",
                "--grid", "0,100", "--realizations", "1", "--out", str(out)])
    assert code == 0
    assert [r.percent for r in read_rows(out)] == [0, 100]


def test_sweep_requires_both_dims(dataset_files, capsys):
    code = cli(["sweep", *file_args(dataset_files), "--kx", "5"])
    assert code == 2
    assert "kx" in capsys.readouterr().err


def test_correlate_degenerate_input_fails(tmp_path, capsys):
    from test_experiments import synth_row

    path = tmp_path / "flat.csv"
    write_rows(path, [synth_row(percent=p, accuracy=0.5, sam_value=1.0)
                      for p in (0, 50, 100)])
    code = cli(["correlate", str(path), "--aggregation", "point"])
    assert code == 1
    assert "variance" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli(["sweep", "--no-such-flag"]) == 2
    assert cli(["unknown-command"]) == 2
    assert cli([]) == 2
    assert cli(["train", "--dataset", "files"]) == 2  # missing --edges/--features
    outputs = ["--out-edges", str(tmp_path / "e"), "--out-features", str(tmp_path / "f")]
    absent = ["--dataset", "files", "--edges", str(tmp_path / "e"), "--features",
              str(tmp_path / "f")]
    for argv, message in [
        (["randomize", "--percent", "150", "--axis", "graph", *outputs],
         "argument --percent: must be a percent in [0, 100], got 150"),
        (["randomize", "--percent", "-5", "--axis", "features", *outputs],
         "argument --percent: must be a percent in [0, 100], got -5"),
        (["sweep", "--grid", "0:150:50"],
         "argument --grid: grid '0:150:50' must list one or more percents in [0, 100]"),
        (["sweep", "--variants", "gcn,foo"], "argument --variants: unknown variants ['foo']"),
        # the repeat is refused before the (absent) dataset files are read
        (["sweep", "--grid", "0,0,50", *absent], "argument --grid: percent 0 is listed twice"),
        (["sweep", "--variants", "gcn,gcn", *absent],
         "argument --variants: variant 'gcn' is listed twice"),
    ]:
        capsys.readouterr()
        assert cli(argv) == 2
        assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("randomize", "--realization"),
    ("randomize", "--rand-seed"),
    ("sweep", "--base-seed"),
    ("sweep", "--align-seed"),
    ("align", "--align-seed"),
    ("train", "--train-seed"),
    ("train", "--split-seed"),
    ("train", "--seed"),
    ("generate", "--seed"),
])
def test_negative_seed_is_usage_error(command, flag, tmp_path, capsys):
    outputs = ["--out-edges", str(tmp_path / "e"), "--out-features", str(tmp_path / "f")]
    extra = {"randomize": ["--percent", "50", *outputs], "generate": outputs}.get(command, [])
    assert cli([command, flag, "-1", *extra]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a nonnegative integer, got -1" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("align", "--nulls"),
    ("align", "--grid-points"),
    ("align", "--rounds"),
    ("sweep", "--nulls"),
    ("sweep", "--grid-points"),
    ("sweep", "--rounds"),
    ("sweep", "--realizations"),
    ("sweep", "--workers"),
    ("sweep", "--kx"),
    ("sweep", "--ka"),
    ("generate", "--nodes"),
    ("generate", "--communities"),
    ("generate", "--features-per-community"),
    ("train", "--hidden"),
    ("train", "--epochs"),
    ("train", "--patience"),
])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_count_is_usage_error(command, flag, value, capsys):
    assert cli([command, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer, got {value}" in err


@pytest.mark.parametrize("command, flag", [
    ("train", "--lr"),
    ("train", "--l2"),
    ("train", "--dropout"),
    ("generate", "--p-in"),
    ("generate", "--p-out"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_real_is_usage_error(command, flag, value, tmp_path, capsys):
    outputs = ["--out-edges", str(tmp_path / "e"), "--out-features", str(tmp_path / "f")]
    extra = {"generate": outputs, "train": ["--epochs", "3"]}[command]
    assert cli([command, f"{flag}={value}", *extra]) == 2  # "-inf" alone reads as a flag
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a finite number, got {value}" in err
    assert not any(tmp_path.iterdir())


def test_non_numeric_real_is_usage_error(capsys):
    assert cli(["train", "--lr", "fast"]) == 2
    assert "argument --lr: invalid number: 'fast'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["align", "--nulls", "ten"], "argument --nulls: invalid integer: 'ten'"),
    (["sweep", "--grid", "0:100:0"], "argument --grid: cannot parse grid '0:100:0'"),
    (["sweep", "--grid", "0:a:10"], "argument --grid: cannot parse grid '0:a:10'"),
])
def test_unparsable_count_or_grid_is_usage_error(argv, message, capsys):
    assert cli(argv) == 2
    assert message in capsys.readouterr().err


def test_correlate_reports_every_group_when_one_is_undefined(tmp_path, capsys):
    from test_experiments import synth_row

    path = tmp_path / "mixed.csv"
    write_rows(path, [synth_row(variant="flat", percent=p, accuracy=0.5, sam_value=1.0 + p)
                      for p in (0, 50, 100)]
               + [synth_row(variant="line", percent=p, accuracy=1.0 - p / 100, sam_value=1.0 + p)
                  for p in (0, 50, 100)])
    code = cli(["correlate", str(path), "--aggregation", "point"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["d flat r=+nan n=3", "d line r=-1.0000 n=3"]
    assert captured.err.splitlines() == [
        "error: d flat: r is undefined: zero variance in at least one input"
    ]


def test_correlate_reports_a_group_whose_trainings_all_diverged(small_constructive, tmp_path,
                                                                capsys):
    """A learning rate of 1e160 makes every gcn and sgc training of this
    sweep diverge. Each row keeps its cell's SAM, distances and seed, the
    NaN accuracy survives the CSV, and correlate reports the all-NaN group
    beside a normal one and exits 1; it used to drop the NaN rows before
    grouping, print the normal group alone and exit 0."""
    dims = alignment_at(small_constructive, 8, 4)
    spec = SweepSpec(dataset=small_constructive, name="c", percents=(0, 50), realizations=2,
                     variants=("gcn", "sgc"), config=GcnConfig(max_epochs=20))
    finite = run_sweep_multi(spec, dims, metrics=("chordal",))["chordal"]
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = run_sweep_multi(replace(spec, config=GcnConfig(learning_rate=1e160)), dims,
                                   metrics=("chordal",))["chordal"]
    assert all(math.isnan(row.accuracy) for row in diverged)
    assert not any(math.isnan(row.accuracy) for row in finite)
    assert [replace(row, accuracy=0.0) for row in diverged] == [
        replace(row, accuracy=0.0) for row in finite]

    path = tmp_path / "diverged.csv"
    write_rows(path, [row for row in finite if row.variant == "gcn"]
               + [row for row in diverged if row.variant == "sgc"])
    back = read_rows(path)
    assert [math.isnan(row.accuracy) for row in back] == [False] * 4 + [True] * 4
    capsys.readouterr()
    assert cli(["correlate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["c gcn r=-1.0000 n=2", "c sgc r=+nan n=0"]
    assert captured.err.splitlines() == [
        "error: c sgc: r is undefined: all 4 trainings diverged (NaN accuracy)"
    ]


def test_correlate_fails_on_rows_of_two_experiments(tmp_path, capsys):
    from test_experiments import mixed_experiment_rows

    graph, features = mixed_experiment_rows()
    path = tmp_path / "pooled.csv"
    write_rows(path, graph + features)
    code = cli(["correlate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["d m r=+nan n=3"]
    assert captured.err.splitlines() == [
        "error: d m: r is undefined: rows mix axis values; correlate one experiment at a time"
    ]


def _library_defaults() -> dict:
    """Each subcommand's flags whose value the library owns, with the
    owner's value: a dataclass field's or a function parameter's."""
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    spec, config = ConstructiveSpec(), GcnConfig()
    sweep = SweepSpec(dataset=make_dataset(), name="d")
    dataset = {"seed": spec.seed, "format": default(load_dataset, "format")}
    search = {"metric": default(optimize_dimensions, "metric"),
              "nulls": default(optimize_dimensions, "n_null"),
              "grid_points": default(optimize_dimensions, "grid_points"),
              "rounds": default(optimize_dimensions, "rounds"),
              "align_seed": default(optimize_dimensions, "seed")}
    return {
        "generate": {"nodes": spec.n_nodes, "communities": spec.n_communities,
                     "features_per_community": spec.features_per_community,
                     "p_in": spec.p_in, "p_out": spec.p_out, "seed": spec.seed},
        "align": {**dataset, **search},
        "randomize": {**dataset, "axis": sweep.axis, "rand_seed": sweep.base_seed},
        "train": {**dataset, "variant": default(train, "variant"),
                  "hidden": config.hidden_units, "lr": config.learning_rate,
                  "dropout": config.dropout, "l2": config.l2_weight,
                  "epochs": config.max_epochs, "patience": config.patience,
                  "train_seed": config.seed, "split_seed": default(build_split, "seed")},
        "sweep": {**dataset, **search, "axis": sweep.axis, "grid": sweep.percents,
                  "realizations": sweep.realizations, "variants": sweep.variants,
                  "base_seed": sweep.base_seed, "workers": default(run_sweep_multi, "workers")},
        "correlate": {"aggregation": default(correlate, "aggregation")},
    }


# The defaults that only the CLI has: the dataset source and the
# realization that `randomize` reproduces.
_CLI_DEFAULTS = {"dataset": "constructive", "realization": 0}


def test_every_library_owned_default_is_the_owners_value():
    """Parsed with only its required flags, each subcommand's flags hold
    the library's value where the library owns one, and a CLI default
    otherwise; a flag that restated a library default would fail here
    once the library's value changed."""
    required = {"generate": ["--out-edges", "e", "--out-features", "f"],
                "randomize": ["--percent", "0", "--out-edges", "e", "--out-features", "f"],
                "correlate": ["rows.csv"]}
    for command, owned in _library_defaults().items():
        args = vars(build_parser().parse_args([command, *required.get(command, [])]))
        given = {"command", "func", "out_edges", "out_features", "percent", "csv"}
        defaults = {flag: value for flag, value in args.items()
                    if flag not in given and value is not None and value is not False}
        assert defaults.keys() == owned.keys() | (defaults.keys() & _CLI_DEFAULTS.keys()), command
        for flag, value in defaults.items():
            want = owned[flag] if flag in owned else _CLI_DEFAULTS[flag]
            assert (value, type(value)) == (want, type(want)), (command, flag)


def test_help_exits_zero(capsys):
    assert cli(["-h"]) == 0
    assert "subspace" in capsys.readouterr().out.lower()


def test_missing_file_exits_1(tmp_path, capsys):
    code = cli(["correlate", str(tmp_path / "absent.csv")])
    assert code == 1
    capsys.readouterr()


def test_config_file_supplies_and_cli_overrides(dataset_files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 3\ntrain_seed = 7  # inline comment\n\n")
    code = cli(["train", *file_args(dataset_files), "--config", str(cfg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epochs_run"] == 3
    assert payload["seed"] == 7

    code = cli(["train", *file_args(dataset_files), "--config", str(cfg),
                "--epochs", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["epochs_run"] == 5


@pytest.mark.parametrize("value, nodes", [("yes", 3), ("ON", 3), ("off", 4), ("0", 4)])
def test_config_lcc_switch(value, nodes, tmp_path, capsys):
    """`lcc = <true word>` restricts to the largest component; a false
    word leaves the dataset whole."""
    feats, edges = tmp_path / "f.txt", tmp_path / "e.txt"
    feats.write_text("a 1.0 0\nb 2.0 1\nc 3.0 1\nd 0.5 0\n")
    edges.write_text("a b\nb c\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lcc = {value}\n")
    out_edges, out_feats = tmp_path / "oe.txt", tmp_path / "of.txt"
    code = cli(["randomize", "--dataset", "files", "--edges", str(edges), "--features", str(feats),
                "--axis", "graph", "--percent", "0", "--out-edges", str(out_edges),
                "--out-features", str(out_feats), "--config", str(cfg)])
    assert code == 0
    capsys.readouterr()
    assert load_dataset(out_edges, out_feats).n_nodes == nodes


def test_config_lcc_switch_rejects_other_words(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lcc = maybe\n")
    assert cli(["align", "--config", str(cfg)]) == 2
    assert f"{cfg}: lcc must be true or false, got 'maybe'" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    assert cli(["--config", "whatever"]) == 2  # must follow a subcommand
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    assert cli(["train", "--config", str(bad)]) == 2
    assert cli(["train", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert cli(["train", "--config"]) == 2
    loop = tmp_path / "loop.cfg"
    loop.write_text(f"config = {loop}\n")  # would expand itself forever
    assert cli(["align", "--config", str(loop)]) == 2
    assert "cannot name another" in capsys.readouterr().err
    capsys.readouterr()


def test_module_entry_point():
    # The child imports the package this suite imports, installed or not.
    src = str(Path(graphalign.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "graphalign.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
