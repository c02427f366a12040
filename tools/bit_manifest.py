"""Print sha256s of the package's reproducible outputs, as one JSON object.

    python3 tools/bit_manifest.py > manifest.json

Run from any directory: the package is imported from ``src/`` of the
checkout that holds this script. Two checkouts that print the same object
compute the same bits for every output below, on the benchmark instance
``ConstructiveSpec()`` (seed 0):

- ``optimize_dimensions(n_null=3).to_dict()`` for each metric at null
  seeds 0 and 1, and ``optimize_dimensions(metric="chordal",
  n_null=10).to_dict()``, the benchmark's ``align`` setting, at null
  seeds 0 and 1;
- the sweep CSV per metric: every variant, axis ``both``, percents 0 and
  60, one realization, at ``alignment_at(ds, 275, 10)``, with
  ``GcnConfig(max_epochs=60)``;
- each variant's training at dropout 0 and 0.5: its losses as hex, its
  epoch count, its test accuracy and its weights' bytes;
- ``forward`` of each variant's dropout-0 model on the variant's operator
  and input features (``propagation_operator``, ``_model_features``);
- the ``build_split`` masks for seeds 0 to 4.

Float results depend on the BLAS build and its thread count, so compare
manifests made on one host with the same ``OPENBLAS_NUM_THREADS``. The
``"runtime"`` key records what the run saw: the numpy and scipy versions,
``os.cpu_count()``, and the thread count of each wheel's bundled OpenBLAS
(``"unknown"`` where its library or getter is not found). Takes 19-22 s
on 2 cores.
"""

import ctypes
import hashlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import graphalign as ga  # noqa: E402


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def blas_threads(package, getter: str):
    """The thread count that `getter` reports in the OpenBLAS bundled in
    `package`'s wheel (``<package>.libs``), or ``"unknown"``."""
    libs = Path(package.__file__).resolve().parents[1] / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            return getattr(ctypes.CDLL(str(lib)), getter)()
        except (OSError, AttributeError):
            continue
    return "unknown"


def runtime() -> dict:
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "numpy_blas_threads": blas_threads(numpy, "scipy_openblas_get_num_threads64_"),
        "scipy_blas_threads": blas_threads(scipy, "scipy_openblas_get_num_threads"),
    }


def manifest() -> dict:
    ds = ga.generate_constructive(ga.ConstructiveSpec())
    out = {"optimize_dimensions": {}, "sweep": {}, "train": {}, "forward": {}, "build_split": {}}
    for metric in ga.METRICS:
        for seed in (0, 1):
            result = ga.optimize_dimensions(ds, metric=metric, n_null=3, seed=seed)
            out["optimize_dimensions"][f"{metric}/seed{seed}"] = digest(
                json.dumps(result.to_dict(), sort_keys=True))
    for seed in (0, 1):
        result = ga.optimize_dimensions(ds, metric="chordal", n_null=10, seed=seed)
        out["optimize_dimensions"][f"chordal/n_null10/seed{seed}"] = digest(
            json.dumps(result.to_dict(), sort_keys=True))

    spec = ga.SweepSpec(dataset=ds, name="constructive", axis="both", percents=(0, 60),
                        realizations=1, variants=ga.VARIANTS,
                        config=ga.GcnConfig(max_epochs=60))
    for metric, rows in ga.run_sweep_multi(spec, ga.alignment_at(ds, 275, 10)).items():
        csv = io.StringIO()
        ga.write_rows(csv, rows)
        out["sweep"][metric] = digest(csv.getvalue().encode())

    for variant in ga.VARIANTS:
        for dropout in (0.0, 0.5):
            report = ga.train(ds, variant, replace(ga.GcnConfig(), dropout=dropout))
            weights = [w for w in (report.model.w0, report.model.w1) if w is not None]
            out["train"][f"{variant}/dropout{dropout}"] = digest(
                [float(x).hex() for x in report.train_losses + report.val_losses],
                report.epochs_run, report.test_accuracy, *(w.tobytes() for w in weights))
            if dropout == 0.0:
                z = ga.forward(report.model, ga.models.propagation_operator(ds, variant),
                               ga.models._model_features(ds, variant))
                out["forward"][variant] = digest(z.tobytes())

    for seed in range(5):
        split = ga.build_split(ds.labels, seed=seed)
        out["build_split"][f"seed{seed}"] = digest(
            split.train_mask.tobytes(), split.val_mask.tobytes(), split.test_mask.tobytes())
    out["runtime"] = runtime()
    return out


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=1))
