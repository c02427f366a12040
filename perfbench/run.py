"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload align --seed 0 --seconds 38 --trace 0

Run from the root of a checkout of the repository: the package is
imported from ``src/`` of that checkout. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Lines
before it give each metric with its sample count, the run environment,
and any failed op. A record of the run, and the spans of a traced run,
are written under ``perfbench/out/``. See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is repeated and its median reported, so that one slow repetition
# does not decide the figure.
SETUP_REPEATS = 3

# name -> unit, in report order. Each workload names what its op is in
# ``aliases``: op_s is align_s on the align workloads and cell_s on sweep.
END_TO_END = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    """Wall time of each attempted op, the loop's wall time, failures by op."""

    times: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / len(self.times)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def measure(workload, ctx, seconds: float, tracer=None) -> Outcome:
    """Run ops back to back for at most ``seconds``, then check every output.

    An op starts only if it would end within ``seconds``, judged by the
    slowest op so far; at least one op runs. An op fails if it raises or if
    its output fails the workload's check. Checks run after the timed loop
    and are not traced.
    """
    outcome = Outcome()
    results = {}
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is not None:
            tracer.op = f"op{index}"
        t = time.perf_counter()
        try:
            with _span(tracer, "op"):
                results[index] = workload.op(ctx, index)
        except Exception as exc:  # a failed op is counted and the run goes on
            outcome.failures[index] = f"{type(exc).__name__}: {exc}"
        outcome.times.append(time.perf_counter() - t)
        index += 1
        if time.perf_counter() - start + max(outcome.times) > seconds:
            break
    outcome.loop_s = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    cache: dict = {}
    for index, result in results.items():
        try:
            problems = workload.check(ctx, index, result, cache)
        except Exception as exc:  # a malformed output is a failed op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            outcome.failures[index] = "; ".join(problems)
    return outcome


def limit_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; returns that count.

    Takes effect only before numpy is first imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def git_rev() -> str:
    """Commit of the checkout, read from ``.git``; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc: int, outcome: Outcome) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUP_REPEATS,
        "ops_attempted": len(outcome.times),
        "ops_failed": len(outcome.failures),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    src = ROOT / "src"
    if not (src / "graphalign" / "__init__.py").is_file():
        print(f"error: no package at {src / 'graphalign'}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import graphalign

    import_s = time.perf_counter() - T0
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (have {sorted(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    reference = workloads.load_reference(workload.name) if args.seed == 0 else None

    tracer = spans.Tracer() if args.trace else None
    setup_times = []
    with spans.instrument(tracer) if tracer is not None else nullcontext():
        for repeat in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.op = f"setup{repeat}"
            t = time.perf_counter()
            with _span(tracer, "setup"):
                ctx = workloads.set_up(args.seed, reference=reference)
            setup_times.append(time.perf_counter() - t)
        outcome = measure(workload, ctx, args.seconds, tracer)

    n_ops = len(outcome.times)
    if tracer is None:
        values = {
            "setup_s": (import_s + statistics.median(setup_times), SETUP_REPEATS),
            "op_s": (statistics.median(outcome.times), n_ops),
            "ops_per_s": (n_ops / outcome.loop_s, n_ops),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        units = END_TO_END
    else:
        layer = spans.layer_metrics(tracer.spans, graphalign.VARIANTS, spans.span_cost())
        layer["failed_frac"] = outcome.failed_frac
        values = {name: (value, n_ops) for name, value in layer.items()}
        units = {name: spans.unit_of(name) for name in values}

    env = environment(args, nproc, outcome)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {n_ops}  failed {len(outcome.failures)}  loop {outcome.loop_s:.2f} s")
    for name, (value, samples) in values.items():
        alias = workload.aliases.get(name) if tracer is None else None
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<34} {value:>12.6g} {units[name]:<6} n={samples}")
    if tracer is None:
        print(f"  {'failed_frac':<34} {outcome.failed_frac:>12.6g} {'ratio':<6} n={n_ops}")
        print(f"  set-up: import {import_s:.3f} s + median of "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for index, reason in sorted(outcome.failures.items()):
        print(f"FAILED op {index}: {reason}", file=sys.stderr)
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "metrics": {n: {"value": v, "unit": units[n], "samples": s} for n, (v, s) in values.items()},
        "op_times_s": outcome.times,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "failures": {str(i): r for i, r in outcome.failures.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": n_ops,
        "failed": len(outcome.failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
