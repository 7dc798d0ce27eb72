"""Benchmark entry point: seeded select/evaluate workloads of the hopspread CLI.

    python3 bench/run.py --workload twohop-ic --seed 7 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 60

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics of one run; with --trace 1 it holds the per-layer metrics of a
separate run that alternates untraced and traced iterations. The line
before it is the run's environment (`run_info`). `--workload all` runs
every workload, each in its own process, and prints every end-to-end metric
with its unit plus the failed-command fraction.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: the benchmark measures
# the single-threaded program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 7


def _run_all(args):
    """Each workload in its own process; a table of end-to-end metrics."""
    from harness import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"failed_frac {result['failed'] / result['attempted']:.3g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description="hopspread benchmark")
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hopspread" / "__init__.py").is_file():
        print(f"bench: the program's sources are missing: no {SRC / 'hopspread'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import WORKLOADS, run, run_info

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run_info": {**run_info(), **info}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
