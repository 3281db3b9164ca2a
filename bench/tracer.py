"""Span tracer for the traced benchmark run, and the per-layer metrics.

Tracer.install() wraps each named public stepgate function at every
module-level binding that holds it, found by identity, so the copies made
by `from .linalg import ...` are wrapped as well. Each call records a span
(name, parent, start, end, extra, error) in memory. Nothing inside stepgate
changes; uninstall() puts every original binding back. A function that no
longer exists is skipped and its metrics read zero.
"""

import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("stepper", "linalg", "mfit", "rho", "chisq", "simlab", "dataio", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _bytes_in(args, kwargs, result):
    # computed, not measured: what the call reads from its two inputs
    return (np.asarray(_arg(args, kwargs, 0, "design")).nbytes
            + np.asarray(_arg(args, kwargs, 1, "response")).nbytes)


def _elements(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 1, "u")))


def _steps(args, kwargs, result):
    return len(result.evaluations), sum(ev.k0 for ev in result.evaluations)


RUN = "stepper.run_stepwise"
LS = "linalg.fit_least_squares"
WLS = "linalg.fit_weighted_least_squares"
L1 = "mfit.l1_single_covariate_init"
MFIT = "mfit.m_fit_fixed_scale"
RHO = ("rho.rho", "rho.rho_d1", "rho.rho_d2")
NULL = "simlab.null_calibration"

# (span name, attribute of stepgate.<layer>, what to keep from a call)
TARGETS = (
    (RUN, "run_stepwise", _steps),
    (LS, "fit_least_squares", _bytes_in),
    (WLS, "fit_weighted_least_squares", None),
    (L1, "l1_single_covariate_init", None),
    (MFIT, "m_fit_fixed_scale", lambda a, k, r: r.iterations),
    ("mfit.mad_scale", "mad_scale", None),
    ("rho.rho", "rho", _elements),
    ("rho.rho_d1", "rho_d1", _elements),
    ("rho.rho_d2", "rho_d2", _elements),
    ("chisq.max_chisq_tail", "max_chisq_tail", None),
    (NULL, "null_calibration", None),
    ("dataio.Dataset", "Dataset.__init__", None),
    ("dataio.load_builtin", "load_builtin", None),
    ("cli.main", "main", None),
)

# Every per-layer metric: (name, unit, better, the end-to-end metric and
# workload it should move). Values are per traced op unless the unit is a
# ratio or fraction. Guards move nothing; a change in one means the
# program's output changed.
PER_LAYER = (
    ("stepper.run_stepwise.self_s", "s", "lower", "run_p50_s on wide-l2"),
    ("stepper.steps", "count", "lower", "nothing (guard)"),
    ("stepper.candidates_scanned", "count", "lower", "nothing (guard)"),
    ("stepper.fits_per_candidate", "ratio", "lower", "runs_per_s on wide-l2 and robust-m"),
    ("linalg.fit_least_squares.calls", "count", "lower", "runs_per_s on wide-l2 and null-lab"),
    ("linalg.fit_least_squares.self_s", "s", "lower", "runs_per_s on wide-l2 and null-lab"),
    ("linalg.fit_least_squares.bytes_in", "bytes_computed", "lower", "runs_per_s on wide-l2 and null-lab"),
    ("linalg.fit_weighted_least_squares.calls", "count", "lower", "run_p50_s on robust-m"),
    ("linalg.fit_weighted_least_squares.self_s", "s", "lower", "run_p50_s on robust-m"),
    ("mfit.l1_single_covariate_init.total_s", "s", "lower", "run_p50_s on robust-m"),
    ("mfit.l1_single_covariate_init.wls_calls", "count", "lower", "run_p50_s on robust-m"),
    ("mfit.m_fit_fixed_scale.calls", "count", "lower", "run_p50_s on robust-m"),
    ("mfit.m_fit_fixed_scale.total_s", "s", "lower", "run_p50_s on robust-m"),
    ("mfit.m_fit_fixed_scale.irls_iterations", "count", "lower", "run_p50_s on robust-m"),
    ("mfit.m_fit_fixed_scale.failed", "count", "lower", "run_p50_s on robust-m"),
    ("mfit.mad_scale.calls", "count", "lower", "nothing (guard)"),
    ("rho.calls", "count", "lower", "run_p50_s on robust-m"),
    ("rho.self_s", "s", "lower", "run_p50_s on robust-m"),
    ("rho.elements", "count", "lower", "run_p50_s on robust-m"),
    ("chisq.max_chisq_tail.calls", "count", "lower", "runs_per_s on null-lab"),
    ("chisq.max_chisq_tail.self_s", "s", "lower", "runs_per_s on null-lab"),
    ("simlab.null_calibration.self_s", "s", "lower", "runs_per_s on null-lab"),
    ("simlab.run_stepwise.calls", "count", "lower", "runs_per_s on null-lab"),
    ("dataio.Dataset.constructions", "count", "lower", "runs_per_s on null-lab and rank-cli"),
    ("dataio.Dataset.self_s", "s", "lower", "runs_per_s on null-lab and rank-cli"),
    ("dataio.load_builtin.total_s", "s", "lower", "runs_per_s on null-lab and rank-cli"),
    ("cli.main.self_s", "s", "lower", "run_p50_s on rank-cli"),
    ("bench.trace_overhead_frac", "frac", "lower", "nothing (what tracing costs)"),
)

NAME, PARENT, START, END, EXTRA, ERROR = range(6)


class Tracer:
    """Records one span per call of each target; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if extract is not None:
                span[EXTRA] = extract(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"stepgate.{layer}")
        modules = [m for n, m in list(sys.modules.items()) if n == "stepgate" or n.startswith("stepgate.")]
        for name, attr, extract in self.targets:
            home = sys.modules[f"stepgate.{name.split('.')[0]}"]
            if "." in attr:  # a method: patched once, on its class
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(method)
                if fn is not None:
                    self._patch(cls, method, self._wrap(name, fn, extract))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            traced = self._wrap(name, fn, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def save(self, path):
        """Write the spans as arrays; names are codes into the `names` array."""
        names = sorted({s[NAME] for s in self.spans})
        code = {nm: i for i, nm in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            name=np.array([code[s[NAME]] for s in self.spans], dtype=np.int16),
            parent=np.array([s[PARENT] for s in self.spans], dtype=np.int64),
            start=np.array([s[START] for s in self.spans]),
            end=np.array([s[END] for s in self.spans]),
        )


def layer_metrics(spans, ops):
    """Per-layer metrics from the spans of `ops` traced ops.

    Self time is a span's duration minus the time its child spans cover.
    Returns (metrics without bench.trace_overhead_frac, failures counted by
    (span name, exception class)).
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    self_t = list(dur)
    in_l1 = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            self_t[p] -= dur[i]
            in_l1[i] = spans[p][NAME] == L1 or in_l1[p]
    calls, total, own, extra = Counter(), Counter(), Counter(), Counter()
    failures = Counter()
    fits = wls_in_l1 = sim_runs = steps = scanned = 0
    for i, s in enumerate(spans):
        nm = s[NAME]
        calls[nm] += 1
        total[nm] += dur[i]
        own[nm] += self_t[i]
        if s[ERROR] is not None:
            failures[nm, s[ERROR]] += 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if nm == RUN:
            if s[EXTRA] is not None:
                steps += s[EXTRA][0]
                scanned += s[EXTRA][1]
            sim_runs += parent == NULL
        elif s[EXTRA] is not None:
            extra[nm] += s[EXTRA]
        fits += nm in (LS, MFIT) and parent == RUN
        wls_in_l1 += nm == WLS and in_l1[i]

    def rho_sum(counter):
        return sum(counter[nm] for nm in RHO)

    per_op = {
        "stepper.run_stepwise.self_s": own[RUN],
        "stepper.steps": steps,
        "stepper.candidates_scanned": scanned,
        "linalg.fit_least_squares.calls": calls[LS],
        "linalg.fit_least_squares.self_s": own[LS],
        "linalg.fit_least_squares.bytes_in": extra[LS],
        "linalg.fit_weighted_least_squares.calls": calls[WLS],
        "linalg.fit_weighted_least_squares.self_s": own[WLS],
        "mfit.l1_single_covariate_init.total_s": total[L1],
        "mfit.l1_single_covariate_init.wls_calls": wls_in_l1,
        "mfit.m_fit_fixed_scale.calls": calls[MFIT],
        "mfit.m_fit_fixed_scale.total_s": total[MFIT],
        "mfit.m_fit_fixed_scale.irls_iterations": extra[MFIT],
        "mfit.m_fit_fixed_scale.failed": sum(c for (nm, _), c in failures.items() if nm == MFIT),
        "mfit.mad_scale.calls": calls["mfit.mad_scale"],
        "rho.calls": rho_sum(calls),
        "rho.self_s": rho_sum(own),
        "rho.elements": rho_sum(extra),
        "chisq.max_chisq_tail.calls": calls["chisq.max_chisq_tail"],
        "chisq.max_chisq_tail.self_s": own["chisq.max_chisq_tail"],
        "simlab.null_calibration.self_s": own[NULL],
        "simlab.run_stepwise.calls": sim_runs,
        "dataio.Dataset.constructions": calls["dataio.Dataset"],
        "dataio.Dataset.self_s": own["dataio.Dataset"],
        "dataio.load_builtin.total_s": total["dataio.load_builtin"],
        "cli.main.self_s": own["cli.main"],
    }
    metrics = {key: value / ops for key, value in per_op.items()}
    metrics["stepper.fits_per_candidate"] = fits / scanned if scanned else 0.0
    return metrics, failures
