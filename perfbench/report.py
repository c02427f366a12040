"""Run workloads over several seeds and summarize every metric.

    python3 perfbench/report.py --seeds 0 1 2 3 4 5 6 7 8 9
    python3 perfbench/report.py --workloads sweep --seeds 0 1 --trace --out summary.json

Runs ``perfbench/run.py`` once per workload and seed, one child process
at a time, from the root of the checkout. For each end-to-end metric it
prints the median over the runs with its quartiles and their spread
(interquartile range over median, as ``statistics.quantiles(n=4)`` gives
it) beside the metric's bound from ``BENCHMARK.json``. With ``--trace``
it also makes the traced runs and prints the median of each per-layer
metric and the tracing overhead: the traced mean op time over the
untraced one, 1/ops_per_s. ``--out`` writes the summary, with the run environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run of run.py; returns its result line and its environment line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, trace=False)
            summary.setdefault("env", env)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        print(f"\n{workload}: {len(results)} runs, {entry['attempted']} ops, {entry['failed']} failed, "
              f"failed_frac {entry['failed'] / entry['attempted']:.3g}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["spread"] <= bound / 3
            steady &= ok
            print(f"  {name:<14} {s['unit']:<6} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                  f"{s['spread']:>8.4f} {bound:>6}{'' if ok else '  (spread above bound/3)'}")
        if args.trace:
            traced = [run_once(workload, seed, args.seconds, trace=True)[0] for seed in args.seeds]
            entry["traced_failed"] = sum(r["failed"] for r in traced)
            entry["per_layer"] = {
                name: summarize([r["metrics"][name]["value"] for r in traced])["median"]
                for name in traced[0]["metrics"]
            }
            layer = entry["per_layer"]
            # op.s is a mean op time, and so is the inverse of ops_per_s.
            mean_op_s = 1.0 / entry["end_to_end"]["ops_per_s"]["median"]
            entry["trace_overhead_measured"] = layer["op.s"] / mean_op_s - 1.0
            print(f"  traced ({len(traced)} runs, medians; zero values omitted):")
            for name, value in layer.items():
                if value:
                    print(f"    {name:<44} {value:>11.5g} {traced[0]['metrics'][name]['unit']}")
            print(f"  tracing overhead: traced op.s {layer['op.s']:.4g} s over untraced "
                  f"1/ops_per_s {mean_op_s:.4g} s = {entry['trace_overhead_measured']:+.2%} "
                  f"(estimated from span cost: {layer['trace.overhead_frac']:.2e})")
        summary["workloads"][workload] = entry
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("every end-to-end spread below a third of its bound" if steady
          else "some end-to-end spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
