"""Benchmark worker: one workload, one caller, closed loop, in this process.

Start it through run.py, which pins the BLAS and OpenMP thread counts to 1
and puts the checkout's src/ first on the path before numpy is imported.
Set-up time is the import of stepgate (with numpy and scipy) plus input
generation.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# set-up time counts stepgate's own imports (numpy and scipy with them) and
# input generation, not the benchmark's imports (scipy.stats, the oracle)
_T0 = time.perf_counter()
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import stepgate  # noqa: E402
import stepgate.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TAIL_BEYOND = 10  # the tail is the slowest op time with this many ops beyond it
MIN_TIMED_OPS = TAIL_BEYOND + 1
MAX_MEASURE_FACTOR = 4  # stop after this many times --seconds even below MIN_TIMED_OPS

# The end-to-end metrics of BENCHMARK.json, in the result object
END_TO_END = (
    ("runs_per_kref", "1/kref"),
    ("run_p50_ref", "ref"),
    ("run_tail_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed in the report only: plain wall-time figures drift with the host
WALL_CLOCK = (
    ("runs_per_s", "1/s"),
    ("run_p50_s", "s"),
    ("run_tail_s", "s"),
)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as f:
                head = f.read().strip()
        return head
    except OSError:
        return "unknown"


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
    }


# Op wall time drifts with the host: on a shared 2-vCPU Xeon VM one and the
# same op took from 0.84 s to 1.76 s, in episodes of seconds to minutes that a
# run of tens of seconds cannot average out. A fixed kernel of small lstsq
# solves and Python arithmetic, timed before the first op and after every op,
# samples the same drift; the bounded timing metrics divide each op time by
# the mean of the two reference times around it.
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((80, 6))
_REF_B = _REF_RNG.standard_normal(80)
REF_REPS = 300


def reference_s():
    """Wall time of the fixed reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REF_REPS):
        acc += float(np.linalg.lstsq(_REF_A, _REF_B, rcond=None)[0][0])
        acc += sum(j * 0.5 for j in range(100))
    return time.perf_counter() - start


class Loop:
    """Runs ops one after another; each op's output goes through the oracle.

    Only the op itself is timed. An op that raises or fails its check counts
    as failed; its time is still recorded.
    """

    def __init__(self, workload):
        self.wl = workload
        self.next_input = 0
        self.attempted = 0
        self.failed = 0

    def op(self):
        wl = self.wl
        inp = wl.inputs[self.next_input % len(wl.inputs)]
        self.next_input += 1
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"op {self.attempted} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            wl.check(inp, out)
        except Exception:
            self.failed += 1
            print(f"op {self.attempted} failed its check:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed

    def measure(self, seconds, min_ops, op=None):
        """Op times until `seconds` of op time and at least min_ops ops, and
        the reference kernel's time before the first op and after each op."""
        op = op or self.op
        times, refs = [], [reference_s()]
        stop = time.perf_counter() + MAX_MEASURE_FACTOR * seconds
        while sum(times) < seconds or len(times) < min_ops:
            times.append(op())
            refs.append(reference_s())
            if time.perf_counter() >= stop:
                break
        return times, refs


def end_to_end(loop, times, refs, setup_s):
    n = len(times)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    # each op against the mean of the reference times just before and after it
    rel = [t / (0.5 * (before + after)) for t, before, after in zip(times, refs, refs[1:])]
    values = {
        "runs_per_s": n / sum(times),
        "run_p50_s": statistics.median(times),
        "run_tail_s": sorted(times)[tail_index],
        "runs_per_kref": 1000.0 * n / sum(rel),
        "run_p50_ref": statistics.median(rel),
        "run_tail_ref": sorted(rel)[tail_index],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"timed ops: {n} after 1 warm-up; the tail is op {tail_index + 1} of {n} by time, "
          f"the p{100.0 * (tail_index + 1) / n:.1f} op, with {n - 1 - tail_index} ops beyond it")
    print("op times (s): " + " ".join(f"{t:.4f}" for t in times))
    print("reference times (s): " + " ".join(f"{r:.5f}" for r in refs))
    for name, unit in WALL_CLOCK:
        print(f"  {name} = {values[name]!r} {unit}")
    print(f"  failed_frac = {loop.failed / loop.attempted!r} frac ({loop.failed} failed of "
          f"{loop.attempted} ops attempted)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(loop, seconds, workload, seed):
    """Alternate untraced and traced ops; per-layer metrics from the traced."""
    tracer = Tracer()
    plain, traced = [], []

    def alternate():
        if len(plain) <= len(traced):
            plain.append(loop.op())
            return plain[-1]
        with tracer:
            traced.append(loop.op())
        return traced[-1]

    loop.measure(seconds, 2, alternate)
    metrics, failures = layer_metrics(tracer.spans, len(traced))
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    tracer.save(path)
    print(f"traced ops: {len(traced)}, untraced ops: {len(plain)}, spans: {len(tracer.spans)} "
          f"written to {os.path.relpath(path, ROOT)}")
    for (name, error), count in sorted(failures.items()):
        print(f"raised in {name}: {error} x {count}")
    for name, unit, _, moves in PER_LAYER:
        print(f"  {name} = {metrics[name]!r} {unit}  (should move: {moves})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _, _ in PER_LAYER}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(stepgate.__file__).startswith(src):
        print(f"stepgate was imported from {stepgate.__file__}, not from {src}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = _IMPORT_S + time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("environment: " + json.dumps(environment(args.seed)))
    print(f"inputs: {len(wl.inputs)} distinct, sha256 {wl.digest}")
    loop = Loop(wl)
    loop.op()  # warm-up, checked but not timed
    if args.trace:
        metrics = per_layer(loop, args.seconds, args.workload, args.seed)
    else:
        metrics = end_to_end(loop, *loop.measure(args.seconds, MIN_TIMED_OPS), setup_s)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
