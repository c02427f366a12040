"""Record the seed-0 outputs that the benchmark's output checks compare against.

    python3 perfbench/record_reference.py

Runs the first ops of every workload at workload seed 0 and writes
``perfbench/reference_seed0.json``. Record more ops than a run on a fast
machine completes; later ops are checked by the seed-free checks only.
Re-record only when the package's answers are meant to change.
"""

import json
import sys

import run

OPS = {"align": 6, "align-projection": 6, "sweep": 24}


def main() -> int:
    run.limit_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        ctx = workloads.set_up(0)
        recorded[name] = [workload.record(workload.op(ctx, i)) for i in range(OPS[name])]
        print(f"{name}: {len(recorded[name])} ops recorded", flush=True)
    text = json.dumps(recorded, indent=1) + "\n"
    workloads.REFERENCE_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
