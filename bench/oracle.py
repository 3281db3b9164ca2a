"""Output oracles for the benchmark ops. They pin no numbers from a run.

L2 traces are recomputed from the data with plain numpy.linalg.lstsq; M
traces are checked for invariants only, because their P-values and one
prostate ordering are expected to move with planned engine changes. Every
P-value is recomputed from (statistic, k0) with scipy.stats.chi2.
"""

import dataclasses
import math

import numpy as np
from scipy.stats import chi2

REL = 1e-9


class OracleError(Exception):
    """An op's output failed a correctness check."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


def _close(got, want, what):
    require(math.isclose(got, want, rel_tol=REL, abs_tol=0.0), f"{what}: got {got!r}, expected {want!r}")


def max_chisq_p(statistic, k0):
    """P(max of k0 chi2(1) > statistic), in the -expm1(k0*log1p(-sf)) form."""
    return float(-np.expm1(k0 * np.log1p(-chi2.sf(statistic, 1))))


def trace_dict(trace):
    """A library StepTrace as the same nested dict the CLI prints as JSON."""
    return dataclasses.asdict(trace)


def _design(n, columns, names, intercept):
    cols = ([np.ones(n)] if intercept else []) + [columns[nm] for nm in names]
    return np.column_stack(cols) if cols else np.empty((n, 0))


def _lstsq_ss(X, y):
    if X.shape[1] == 0:
        return float(y @ y)
    r = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    return float(r @ r)


def l2_reductions(base, y, Z):
    """Residual ss of y on base, and the drop each column of Z would add.

    Adding column z to base lowers the residual ss by (r.z')^2/(z'.z'), with
    r and z' the residuals of y and z on base. Columns already in the span
    of base drop nothing.
    """
    if base.shape[1]:
        Q = np.linalg.qr(base)[0]
        r = y - Q @ (Q.T @ y)
        Zr = Z - Q @ (Q.T @ Z)
    else:
        r, Zr = y, Z
    zz = np.einsum("ij,ij->j", Zr, Zr)
    live = zz > 1e-20 * np.einsum("ij,ij->j", Z, Z)
    rz = r @ Zr
    red = np.divide(rz * rz, zz, out=np.zeros_like(zz), where=live)
    return float(r @ r), red


def _check_l2_step(y, columns, included, ev, intercept):
    n = y.shape[0]
    base = _design(n, columns, included, intercept)
    ss_before = _lstsq_ss(base, y)
    ss_after = min(_lstsq_ss(_design(n, columns, included + [ev["chosen_covariate"]], intercept), y),
                   ss_before)
    step = ev["step_index"]
    _close(ev["ss_before"], ss_before, f"step {step} ss_before")
    _close(ev["ss_after"], ss_after, f"step {step} ss_after")
    statistic = n * (1.0 - ss_after / ss_before)
    require(abs(ev["statistic"] - statistic) <= REL * max(abs(statistic), 1.0),
            f"step {step} statistic: got {ev['statistic']!r}, expected {statistic!r}")
    remaining = [c for c in columns if c not in included]
    _, red = l2_reductions(base, y, _design(n, columns, remaining, False))
    best = ss_before - float(red.max())
    require(ss_after <= best + REL * ss_before,
            f"step {step}: {ev['chosen_covariate']} (ss {ss_after!r}) is not an argmin "
            f"(best candidate ss {best!r})")


def check_trace(t, y, columns, exact_l2):
    """Check one stepwise trace (as a dict) against the data it came from.

    Every engine: k0 counts down from k, each P-value matches its
    (statistic, k0), included == (P < alpha), ss_after <= ss_before, the
    selected list is the accepted prefix, a gated run stops at its first
    failure and an exhaustive run ranks every covariate once. M: sigma is
    finite and positive. exact_l2: ss, statistic and argmin recomputed.
    """
    cfg = t["config"]
    evs = list(t["evaluations"])
    names = list(columns)
    k = len(names)
    require(len(evs) >= 1, "empty trace")
    included, selected, gate_open = [], [], True
    for i, ev in enumerate(evs):
        step = ev["step_index"]
        require(step == i + 1 and ev["k1"] == i and ev["k0"] == k - i,
                f"step {step}: k1={ev['k1']}, k0={ev['k0']} with k={k}")
        chosen = ev["chosen_covariate"]
        require(chosen in columns and chosen not in included, f"step {step}: bad covariate {chosen!r}")
        _close(ev["p_value"], max_chisq_p(ev["statistic"], ev["k0"]), f"step {step} P")
        require(ev["included"] == (ev["p_value"] < cfg["alpha"]), f"step {step}: gate decision")
        require(ev["ss_after"] <= ev["ss_before"], f"step {step}: ss_after > ss_before")
        if cfg["method"] == "m":
            sigma = ev["sigma"]
            require(sigma is not None and math.isfinite(sigma) and sigma > 0, f"step {step}: sigma {sigma!r}")
        if exact_l2:
            _check_l2_step(y, columns, included, ev, cfg["intercept"])
        if not ev["included"]:
            gate_open = False
        elif gate_open:
            selected.append(chosen)
        included.append(chosen)
    require(list(t["selected"]) == selected, f"selected {t['selected']} != accepted prefix {selected}")
    if cfg["exhaustive"]:
        require(len(included) == k, f"exhaustive run ranked {len(included)} of {k} covariates")
    else:
        require(all(ev["included"] for ev in evs[:-1]), "gated run continued past a failure")
        require(not evs[-1]["included"] or len(evs) == k, "gated run stopped while the gate was open")


def check_cli_output(argv, doc, data):
    """Check the JSON of `rank` or `perturb` on a builtin dataset."""
    ds = data[argv[1]]
    exact = argv[argv.index("--method") + 1] == "l2"
    if argv[0] == "rank":
        require(doc["config"]["exhaustive"], "rank must be exhaustive")
        check_trace(doc, ds.y, ds.columns, exact)
        return
    index, value = argv[argv.index("--perturb") + 1].split("=")
    index, value = int(index), float(value)
    y = ds.y.copy()
    y[index - 1] = value
    require(doc["perturbation"] == {"index": index, "value": value}, "perturbation echo")
    for key, resp in (("original", ds.y), ("perturbed", y)):
        require(doc[key]["config"]["exhaustive"], "perturb must rank exhaustively")
        check_trace(doc[key], resp, ds.columns, exact)
    pairs = zip((e["chosen_covariate"] for e in doc["original"]["evaluations"]),
                (e["chosen_covariate"] for e in doc["perturbed"]["evaluations"]))
    diff = [{"position": i + 1, "original": a, "perturbed": b}
            for i, (a, b) in enumerate(pairs) if a != b]
    require(doc["order_diff"] == diff, "order_diff does not match the two orders")


def null_inclusions(n, k, replications, alpha, seed):
    """How many null replications clear the gate, recomputed without stepgate.

    Replication rep draws y and then the k columns, each N(0,1)^n, from the
    Philox stream keyed by (seed, rep); its one step fits an intercept plus
    the best single column.
    """
    Y = np.empty((replications, n))
    X = np.empty((replications, k, n))
    for rep in range(replications):
        g = np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))
        Y[rep] = g.standard_normal(n)
        X[rep] = g.standard_normal((k, n))
    Yc = Y - Y.mean(axis=1, keepdims=True)
    Xc = X - X.mean(axis=2, keepdims=True)
    rz = np.einsum("rkn,rn->rk", Xc, Yc)
    red = np.max(rz * rz / np.einsum("rkn,rkn->rk", Xc, Xc), axis=1)
    statistic = n * red / np.einsum("rn,rn->r", Yc, Yc)
    p = -np.expm1(k * np.log1p(-chi2.sf(statistic, 1)))
    return int(np.sum(p < alpha))


def check_null_report(report, replications, expected_inclusions):
    """Histogram sums to the replication count, bin 0 ([0, 0.05)) is the
    inclusion count at alpha 0.05, and that count matches the independent
    recomputation to within one replication."""
    hist = list(report.p_value_histogram)
    require(report.replication_count == replications, "replication count")
    require(sum(hist) == replications, f"histogram sums to {sum(hist)}, not {replications}")
    included = report.inclusion_rate * replications
    require(abs(included - hist[0]) < 1e-6, f"inclusion_rate*reps {included} != bin 0 {hist[0]}")
    require(abs(included - expected_inclusions) <= 1 + 1e-6,
            f"{included} inclusions, independent recomputation gives {expected_inclusions}")
