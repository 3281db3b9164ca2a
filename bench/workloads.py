"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

One op is one timed call into stepgate. All inputs are generated once at
set-up from the workload seed; ops cycle through them. The library only
ever sees the generated Datasets, SimConfigs or argv lists. Ops call
stepgate through module attributes, looked up at call time, so that the
tracer's wrappers see them.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

import oracle
import stepgate
import stepgate.cli
from stepgate import Dataset, GateConfig, SimConfig, load_builtin

PLANTED_BETA = np.array([6.0, 4.0, 3.0, 2.0])

# Under the null a noise column clears an alpha = 0.05 gate at step 5 about
# one draw in twenty, which would make "selected == planted" fail for a
# correct program. Draws are therefore screened by a calculation that does
# not use stepgate, and redrawn from the next stream until that calculation
# puts step 5's P-value above a margin clear of the gate: a small one for the
# exact L2 scan, a wide one for the approximate M score test.
L2_SCREEN_MIN_P = 0.1
M_SCREEN_MIN_P = 0.5

NULL_CONFIGS = 8  # per-op SimConfig seeds in the null-lab cycle


@dataclass
class Workload:
    """Generated inputs plus how to run and check one op on each of them."""

    inputs: list
    run: object  # run(input) -> output
    check: object  # check(input, output) -> None, raises oracle.OracleError
    digest: str


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode())
    return h.hexdigest()


def _dataset_parts(ds):
    yield ds.name.encode()
    yield ds.y.tobytes()
    for nm, col in ds.columns.items():
        yield nm.encode()
        yield col.tobytes()


def _l2_screen(X, y, planted):
    """Exact L2 forward scan by Gram-Schmidt: do steps 1-4 pick the planted
    columns, and does step 5 miss the gate by the margin?"""
    n, k = X.shape
    chosen = []
    base = np.ones((n, 1))
    for step in range(5):
        cand = np.setdiff1d(np.arange(k), chosen)
        ss_before, red = oracle.l2_reductions(base, y, X[:, cand])
        j = int(np.argmax(red))
        if step < 4 and cand[j] not in planted:
            return False
        chosen.append(cand[j])
        base = np.column_stack([base, X[:, cand[j]]])
    return oracle.max_chisq_p(n * red[j] / ss_before, k - 4) > L2_SCREEN_MIN_P


def _m_screen(X, y, planted, c=1.0):
    """Does step 5 of the logistic-rho M engine miss the gate by the margin,
    by a score-test approximation of its P-value?

    Fits y on the planted columns by IRLS with a MAD scale, then scores every
    other column: the M step statistic of a column is close to
    (s2/s1) * g^2/h with g, h its score and curvature at that fit.
    """
    n, k = X.shape
    A = np.column_stack([np.ones(n), X[:, planted]])
    b = np.linalg.lstsq(A, y, rcond=None)[0]
    for _ in range(30):
        r = y - A @ b
        sigma = 1.4826 * np.median(np.abs(r - np.median(r)))
        u = r / sigma
        safe = np.where(u == 0.0, 1.0, u)
        w = np.where(u == 0.0, c / 2.0, np.tanh(c * safe / 2.0) / safe)
        sw = np.sqrt(w)
        b = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)[0]
    u = (y - A @ b) / sigma
    d1 = np.tanh(c * u / 2.0)
    d2 = (c / 2.0) / np.cosh(c * u / 2.0) ** 2
    rest = np.setdiff1d(np.arange(k), planted)
    Z = X[:, rest]
    Zt = Z - A @ np.linalg.solve(A.T @ (A * d2[:, None]), A.T @ (Z * d2[:, None]))
    g = d1 @ Zt
    h = d2 @ Zt**2
    stat = (d2.sum() / (d1 @ d1)) * float(np.max(g * g / h))
    return oracle.max_chisq_p(stat, len(rest)) > M_SCREEN_MIN_P


def _planted(seed, tag, n, k, noise, screen):
    """y = 6,4,3,2 x four seed-chosen columns + noise; redrawn until screened."""
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, tag, attempt])
        Xt = rng.standard_normal((k, n))  # row j is column j, contiguous
        pos = rng.choice(k, 4, replace=False)
        y = PLANTED_BETA @ Xt[pos] + noise(rng, n)
        if screen(Xt.T, y, pos):
            break
        attempt += 1
    names = [f"x{j + 1}" for j in range(k)]
    ds = Dataset(name=f"planted-{tag}-{attempt}", y=y, columns=dict(zip(names, Xt)))
    return ds, frozenset(names[j] for j in pos)


def _gated(tags, n, k, noise, screen, config, seed):
    datasets, planted = [], {}
    for tag in tags:
        ds, planted[tag] = _planted(seed, tag, n, k, noise, screen)
        datasets.append((tag, ds))

    def check(inp, trace):
        tag, ds = inp
        oracle.check_trace(oracle.trace_dict(trace), ds.y, ds.columns, config.method == "l2")
        oracle.require(set(trace.selected) == planted[tag],
                       f"selected {sorted(trace.selected)} != planted {sorted(planted[tag])}")

    return Workload(
        inputs=datasets,
        run=lambda inp: stepgate.run_stepwise(inp[1], config),
        check=check, digest=_digest(p for _, ds in datasets for p in _dataset_parts(ds)),
    )


def wide_l2(seed):
    return _gated([10], 71, 4088, lambda g, n: g.standard_normal(n),
                  _l2_screen, GateConfig(), seed)


def robust_m(seed):
    # M work (IRLS iterations, L1 start) varies with the draw by a few
    # percent; cycling through three draws averages that out of a run
    return _gated([20, 21, 22], 100, 200, lambda g, n: g.standard_t(3, n),
                  _m_screen, GateConfig(method="m"), seed)


def null_lab(seed):
    seeds = np.random.default_rng([seed, 3]).integers(0, 2**32, NULL_CONFIGS)
    configs = [SimConfig(n=100, k=20, replications=200, seed=int(s)) for s in seeds]
    expected = {}

    def check(cfg, report):
        if cfg.seed not in expected:
            expected[cfg.seed] = oracle.null_inclusions(cfg.n, cfg.k, cfg.replications,
                                                        cfg.alpha, cfg.seed)
        oracle.check_null_report(report, cfg.replications, expected[cfg.seed])

    return Workload(
        inputs=configs, run=lambda cfg: stepgate.null_calibration(cfg), check=check,
        digest=_digest([[c.n, c.k, c.replications, c.alpha, c.seed] for c in configs]),
    )


def _cli_pass(argvs):
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = stepgate.cli.main(argv)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return outputs


def rank_cli(seed):
    argvs = [["rank", d, "--method", m, "--format", "json"]
             for d in ("prostate", "birthweight") for m in ("l2", "m")]
    argvs += [["perturb", "prostate", "--perturb", "1=10", "--method", m, "--format", "json"]
              for m in ("l2", "m")]
    # the seed only fixes the order of the six invocations within a pass
    order = np.random.default_rng([seed, 4]).permutation(len(argvs))
    argvs = [argvs[i] for i in order]
    data = {nm: load_builtin(nm)[0] for nm in ("prostate", "birthweight")}

    def check(invocations, outputs):
        for argv, (rc, out, err) in zip(invocations, outputs):
            oracle.require(rc == 0, f"{argv}: exit {rc}: {err.strip()}")
            oracle.check_cli_output(argv, json.loads(out), data)

    parts = [argvs] + [p for nm in sorted(data) for p in _dataset_parts(data[nm])]
    return Workload(inputs=[argvs], run=_cli_pass, check=check,
                    digest=_digest(parts))


WORKLOADS = {
    "wide-l2": wide_l2,
    "robust-m": robust_m,
    "null-lab": null_lab,
    "rank-cli": rank_cli,
}
