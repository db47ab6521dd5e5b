"""Run benchmark workloads and print their metrics; the last line is JSON.

    python3 perfbench/run.py --workload fleet-week --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the workload untraced, then traced, and reports the per-layer
metrics of the traced half (its spans go to ``.perfbench/``).
``--workload all`` runs every workload of ``BENCHMARK.json``, each in its
own process.  The exit code is non-zero when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in spec["workloads"]:
        command = [sys.executable, __file__, "--workload", workload["name"]]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        status = max(status, child.returncode)
        if not lines:
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload['name']}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # One core: pin the BLAS/OpenMP pools before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
