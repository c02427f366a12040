import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphalign
from graphalign import alignment_at, load_dataset, read_rows, write_rows
from graphalign.cli import cli
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


def test_align_quick(dataset_files, capsys):
    code = cli(["align", *file_args(dataset_files), "--nulls", "2",
                "--grid-points", "3", "--name", "toy"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dataset"] == "toy"
    assert payload["k_star_y"] == 3
    assert 3 <= payload["k_star_x"] <= 12
    assert payload["sam"] >= 0.0


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
    assert open(ea).read() == open(eb).read()
    assert open(fa).read() == open(fb).read()
    degraded = load_dataset(ea, fa)
    assert degraded.n_nodes == 60


def test_randomize_reproduces_sweep_realization(dataset_files, tmp_path, capsys):
    """The CLI copy at (percent, realization, seed) is the dataset behind that sweep row."""
    oe, of = str(tmp_path / "e.txt"), str(tmp_path / "f.txt")
    code = cli(["randomize", *file_args(dataset_files), "--axis", "both", "--percent", "50",
                "--rand-seed", "3", "--realization", "2", "--out-edges", oe, "--out-features", of])
    assert code == 0
    degraded = load_dataset(oe, of)
    expected = _randomized_dataset(load_dataset(*dataset_files), "both", 50, 3, 2)
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


def test_usage_errors_exit_2(capsys):
    assert cli(["sweep", "--no-such-flag"]) == 2
    assert cli(["unknown-command"]) == 2
    assert cli([]) == 2
    assert cli(["train", "--dataset", "files"]) == 2  # missing --edges/--features
    capsys.readouterr()


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


def test_config_file_errors(tmp_path, capsys):
    assert cli(["--config", "whatever"]) == 2  # must follow a subcommand
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    assert cli(["train", "--config", str(bad)]) == 2
    assert cli(["train", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert cli(["train", "--config"]) == 2
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
