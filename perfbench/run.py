"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload sharded-10k --seed 0 --seconds 12 --trace 0

It makes the workload's input CSV from the seed (``gen.py``), times
set-up in fresh processes, runs the measured program (``workload.py``)
and prints every metric with its unit, then one JSON object as the last
line.  ``--trace 1`` reports the per-layer ledger instead of the
end-to-end metrics.  Scratch files go to ``.bench_work/`` in the root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = REPO / ".bench_work"

#: Extra set-up-only processes per run; with the measured program's own
#: set-up they give the samples whose median is ``setup_s``.
SETUP_PROBES = 2

#: Every process of a run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0


def child_env() -> dict:
    """Environment of every child: no stray REPRO_* knob, no artifact store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(REPO / "src"),
        PYTHONHASHSEED="0",
        REPRO_CACHE="0",
        REPRO_ARTIFACT_DIR=str(WORK / "artifacts"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, deadline: float) -> str:
    """Run a child to completion and return its stdout; raise on failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting " + " ".join(map(str, args)))
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        env=child_env(), cwd=REPO, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(str(args[0])).name} exited with {proc.returncode}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def make_input(population: str, seed: int, deadline: float) -> Path:
    """The seed's input CSV, generated once per checkout."""
    path = WORK / "inputs" / f"{population}-seed{seed}.csv"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        run_child([BENCH / "gen.py", "--population", population,
                   "--seed", seed, "--out", path], deadline)
    return path


def program_args(args, csvs: list) -> list:
    return [BENCH / "workload.py", "--workload", args.workload, "--input", *csvs,
            "--seconds", args.seconds, "--trace", args.trace]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (REPO / "src" / "repro" / "__init__.py",
                           REPO / "tests" / "properties" / "test_k_anonymity.py")
               if not p.is_file()]
    if missing:
        print(f"error: the program under test is missing: {missing[0]}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        # Population j of seed s is synthesized from seed s * n + j.
        n = workload.populations
        csvs = [make_input(workload.population, args.seed * n + j, deadline)
                for j in range(n)]
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = program_args(args, csvs) + ["--setup-only", "--t-launch", time.time()]
                setup.append(last_json(run_child(probe, deadline))["setup_s"])
        extra = ["--t-launch", time.time()]
        if args.trace:
            extra += ["--spans", WORK / f"spans-{args.workload}.csv"]
        result = last_json(run_child(program_args(args, csvs) + extra, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if "setup_s" in metrics:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
