"""Run the stepgate benchmark from the root of a checkout.

    python3 bench/run.py --workload wide-l2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own worker process (bench/worker.py) with one
caller in a closed loop. The worker imports stepgate from this checkout's
src/ and nothing else. Before any numpy is loaded, here or in a worker,
BLAS and OpenMP are pinned to one thread.

--trace 0 prints the end-to-end metrics; set-up is repeated in
SETUP_SAMPLES fresh processes and setup_s is their median. --trace 1
prints the per-layer metrics of a traced run. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("wide-l2", "robust-m", "null-lab", "rank-cli")  # as in workloads.py, which loads numpy
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # per workload, for all of its processes together


class BenchError(Exception):
    pass


def _worker(env, deadline, args):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")] + args,
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def run_workload(env, name, seed, seconds, trace):
    """Print the worker's report and return its result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(env, deadline, common + ["--setup-only"])[1]["setup_s"])
    lines, result = _worker(env, deadline, common + ["--trace", str(trace)])
    print("\n".join(lines))
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']!r} {m['unit']}")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stepgate", "__init__.py")):
        print(f"no stepgate sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # this process and every worker
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH]),
               PYTHONDONTWRITEBYTECODE="1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(env, name, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
