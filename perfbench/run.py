"""Benchmark of the syzkit resolve pipeline.

    python3 perfbench/run.py --workload {agr42,agr-min,corpus200} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts the workload in a fresh
single-threaded process with a fixed PYTHONHASHSEED, importing syzkit from
the checkout's ``src``.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Either way it holds exactly the metrics
``BENCHMARK.json`` lists; other figures a workload measures go to standard
error.  A failed check makes the exit code 1; a missing program, a crash or
a listed metric the run did not measure makes it 2.  See README.md beside this file.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("agr42", "agr-min", "corpus200")
# Extra processes that only set up, so setup_s is a median of several; agr42
# sets up once, since its ~17 s of input generation is long enough to be
# steady and repeating it would double the run.
EXTRA_SETUPS = {"agr42": 0, "agr-min": 4, "corpus200": 4}
WORKER_TIMEOUT_S = 170


def run_worker(args, extra=()):
    """Run one worker process; return its JSON result (None if it printed
    none) and its exit code."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None, 2
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        return None, proc.returncode or 2


def listed_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="syzkit resolve-pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "syzkit" / "__init__.py").is_file():
        print(f"no syzkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(EXTRA_SETUPS[args.workload]):
            res, code = run_worker(args, ["--setup-only"])
            if res is None or code:
                return 2
            setups.append(res["setup_s"])
    result, code = run_worker(args)
    if result is None:
        return 2
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    listed = listed_metrics(args.trace)
    measured = result["metrics"]
    for name, m in sorted(measured.items()):
        note = "" if name in listed else "  (not listed)"
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}{note}", file=sys.stderr)
    wrong = [n for n, unit in listed.items()
             if n not in measured or measured[n]["unit"] != unit]
    if wrong:
        print(f"not measured in the listed unit: {', '.join(wrong)}",
              file=sys.stderr)
        return 2
    result["metrics"] = {n: measured[n] for n in listed}
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
