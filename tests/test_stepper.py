"""Stepwise-loop tests: statistics, gate decisions, termination, traces."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import stepgate.stepper
from stepgate import (
    DEGENERATE,
    EXHAUSTED,
    GATE_FAILED,
    MAX_STEPS,
    Dataset,
    DegenerateFitError,
    DegenerateScaleError,
    GateConfig,
    InvalidInputError,
    MFitSummary,
    RhoFunction,
    StepEvaluation,
    StepTrace,
    fit_least_squares,
    gate_threshold,
    l2_gate_statistic,
    m_fit_fixed_scale,
    m_gate_statistic,
    mad_scale,
    max_chisq_tail,
    run_stepwise,
    step_p_value,
)


def make_dataset(seed=0, n=80, signal=True):
    rng = np.random.default_rng(seed)
    cols = {f"x{j}": rng.standard_normal(n) for j in range(1, 6)}
    y = rng.standard_normal(n)
    if signal:
        y = y + 4.0 * cols["x2"] + 2.0 * cols["x4"]
    return Dataset("synthetic", y, cols)


# ------------------------------------------------------------ gate statistics

def test_l2_statistic_value():
    assert l2_gate_statistic(5.0, 4.0, 10) == pytest.approx(2.0)
    assert l2_gate_statistic(3.0, 3.0, 7) == 0.0


def test_l2_statistic_validation():
    with pytest.raises(DegenerateFitError):
        l2_gate_statistic(0.0, 0.0, 10)
    with pytest.raises(InvalidInputError):
        l2_gate_statistic(4.0, 5.0, 10)  # nested fits cannot increase ss
    with pytest.raises(InvalidInputError):
        l2_gate_statistic(5.0, -1.0, 10)
    for bad_n in (0, -3, 2.5, True):
        with pytest.raises(InvalidInputError):
            l2_gate_statistic(5.0, 4.0, bad_n)
    with pytest.raises(InvalidInputError):
        l2_gate_statistic(np.inf, 4.0, 10)


def _summary(objective, s1, s2):
    return MFitSummary(
        coefficients=np.zeros(1), residuals=np.zeros(3), sigma=1.0,
        objective=objective, s1=s1, s2=s2, iterations=0,
    )


def test_m_statistic_value():
    # 2 * (s2/s1) * drop = 2 * (20/40) * 4
    assert m_gate_statistic(_summary(100.0, 40.0, 20.0), 96.0) == pytest.approx(4.0)


def test_m_statistic_validation():
    with pytest.raises(DegenerateFitError):
        m_gate_statistic(_summary(100.0, 40.0, 0.0), 96.0)
    with pytest.raises(DegenerateFitError):
        m_gate_statistic(_summary(100.0, 0.0, 20.0), 96.0)
    with pytest.raises(DegenerateFitError):
        m_gate_statistic(_summary(0.0, 40.0, 20.0), 0.0)
    with pytest.raises(InvalidInputError):
        m_gate_statistic(_summary(100.0, 40.0, 20.0), 101.0)
    with pytest.raises(InvalidInputError):
        m_gate_statistic(_summary(100.0, 40.0, 20.0), np.nan)


def test_m_statistic_equals_l2_statistic_for_quadratic_loss():
    # huber with an enormous corner is exactly quadratic: rho(u) = u^2/2,
    # so s1 = ss/sigma^2, s2 = n, and the M statistic collapses to the L2 one
    rng = np.random.default_rng(4)
    n = 50
    X0 = np.column_stack([np.ones(n)])
    z = rng.standard_normal(n)
    y = rng.standard_normal(n) + 0.8 * z
    quad = RhoFunction("huber", 1e8)
    sigma = 2.3
    before = m_fit_fixed_scale(X0, y, quad, sigma)
    after = m_fit_fixed_scale(np.column_stack([X0, z]), y, quad, sigma)
    m_stat = m_gate_statistic(before, after.objective)
    ss_b = fit_least_squares(X0, y).ss
    ss_a = fit_least_squares(np.column_stack([X0, z]), y).ss
    assert m_stat == pytest.approx(l2_gate_statistic(ss_b, ss_a, n), rel=1e-9)


def test_step_p_value_is_the_max_tail():
    assert step_p_value(3.2, 5) == max_chisq_tail(3.2, 5)


# ------------------------------------------------------------------ the loop

def test_exhaustive_run_bookkeeping():
    ds = make_dataset()
    trace = run_stepwise(ds, GateConfig(exhaustive=True))
    assert trace.termination_reason == EXHAUSTED
    assert len(trace.evaluations) == 5
    assert [e.step_index for e in trace.evaluations] == [1, 2, 3, 4, 5]
    assert [e.k1 for e in trace.evaluations] == [0, 1, 2, 3, 4]
    assert [e.k0 for e in trace.evaluations] == [5, 4, 3, 2, 1]  # k0 = k - k1
    chosen = [e.chosen_covariate for e in trace.evaluations]
    assert sorted(chosen) == sorted(ds.columns)  # each covariate ranked once
    assert trace.evaluations[0].chosen_covariate == "x2"  # dominant signal first


def test_gate_decision_matches_threshold_duality():
    ds = make_dataset(seed=3)
    for alpha in (0.01, 0.05, 0.3):
        trace = run_stepwise(ds, GateConfig(alpha=alpha, exhaustive=True))
        for ev in trace.evaluations:
            assert ev.included == (ev.p_value < alpha)
            assert ev.included == (ev.statistic > gate_threshold(alpha, ev.k0))


def test_greedy_choice_is_the_argmin_at_every_step():
    # the reference refits every candidate; the scan must pick the same
    # argmin, and each step must start from the previous step's ss_after
    for seed, intercept, (n, k) in itertools.product(
        (8, 21, 34, 55), (True, False), ((80, 5), (24, 22))
    ):
        rng = np.random.default_rng(seed)
        cols = {f"x{j}": rng.standard_normal(n) for j in range(1, k + 1)}
        ds = Dataset("greedy", rng.standard_normal(n) + 4.0 * cols["x2"] + 2.0 * cols["x4"], cols)
        trace = run_stepwise(ds, GateConfig(exhaustive=True, intercept=intercept))
        assert len(trace.evaluations) == k
        base = [np.ones(n)] if intercept else []
        included = []
        for i, ev in enumerate(trace.evaluations):
            best = None
            for cand in ds.columns:
                if cand in included:
                    continue
                X = np.column_stack(base + [ds.columns[c] for c in included + [cand]])
                ss = fit_least_squares(X, ds.y).ss
                if best is None or ss < best[1]:
                    best = (cand, ss)
            assert ev.chosen_covariate == best[0]
            assert ev.ss_after == pytest.approx(best[1], rel=1e-10)
            if i > 0:
                assert ev.ss_before == trace.evaluations[i - 1].ss_after
            included.append(ev.chosen_covariate)


def test_constant_column_next_to_the_intercept_ranks_last_with_zero_gain():
    # listed first, so only its zero gain (not the tie rule) can put it last
    rng = np.random.default_rng(3)
    n = 40
    cols = {"const": np.full(n, 2.5), **{f"x{j}": rng.standard_normal(n) for j in range(1, 4)}}
    ds = Dataset("const", cols["x2"] + rng.standard_normal(n), cols)
    trace = run_stepwise(ds, GateConfig(exhaustive=True))
    assert trace.termination_reason == EXHAUSTED
    last = trace.evaluations[-1]
    assert last.chosen_covariate == "const"
    assert last.ss_after == pytest.approx(last.ss_before, rel=1e-12)
    assert last.statistic == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("intercept", [True, False])
def test_column_in_the_span_of_the_model_never_beats_a_live_column(intercept):
    # once two of s = a + b, a and b are in, the third adds nothing (the
    # RCOND rank decision), while near, within 1e-6 of s, still adds something
    rng = np.random.default_rng(5)
    n = 50
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    cols = {"s": a + b, "a": a, "b": b, "near": a + b + 1e-6 * rng.standard_normal(n)}
    ds = Dataset("span", 3.0 * a - 2.0 * b + rng.standard_normal(n), cols)
    trace = run_stepwise(ds, GateConfig(exhaustive=True, intercept=intercept))
    chosen = [e.chosen_covariate for e in trace.evaluations]
    assert chosen[2] == "near"  # after any two of s, a, b
    assert sorted(chosen[:2] + chosen[3:]) == ["a", "b", "s"]
    assert trace.evaluations[2].statistic > 1e-6
    assert trace.evaluations[3].statistic == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("intercept", [True, False])
def test_degenerate_when_k_exceeds_n(intercept):
    rng = np.random.default_rng(0)
    n, k = 8, 12
    ds = Dataset("wide", rng.standard_normal(n),
                 {f"x{j}": rng.standard_normal(n) for j in range(1, k + 1)})
    trace = run_stepwise(ds, GateConfig(exhaustive=True, intercept=intercept))
    assert trace.termination_reason == DEGENERATE
    chosen = [e.chosen_covariate for e in trace.evaluations]
    assert len(chosen) == n - intercept  # the model interpolates y after that
    assert len(set(chosen)) == len(chosen)
    assert trace.evaluations[-1].ss_after < 1e-20 * float(ds.y @ ds.y)


@pytest.mark.parametrize("config", [
    GateConfig(), GateConfig(standardize=True), GateConfig(method="m"),
    GateConfig(method="m", sigma_override=1.0, exhaustive=True),
], ids=["l2", "l2-standardize", "m", "m-sigma-override"])
def test_non_finite_covariate_is_rejected(config):
    # Dataset itself does not check for finite values; run_stepwise must.
    # With a fixed sigma no L1 start sees the column, and the M scan used to
    # skip its failing fit while still counting it in k0.
    rng = np.random.default_rng(1)
    cols = {f"x{j}": rng.standard_normal(20) for j in range(1, 4)}
    cols["x2"][7] = np.nan
    ds = Dataset("nan", rng.standard_normal(20), cols)
    with pytest.raises(InvalidInputError, match="non-finite"):
        run_stepwise(ds, config)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("c", [3.0, 1.0 + 1e-14, 0.1, 7.3])
def test_columns_equal_up_to_scale_tie_to_the_earlier_one(seed, c):
    # x and c*x give the same model; rounding noise must not split them
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(40)
    ds = Dataset("scaled", 2.0 * x + rng.standard_normal(40),
                 {"x1": x, "x2": c * x, "x3": rng.standard_normal(40)})
    trace = run_stepwise(ds, GateConfig(max_steps=1))
    assert trace.evaluations[0].chosen_covariate == "x1"


@pytest.mark.parametrize("config", [GateConfig(), GateConfig(exhaustive=True),
                                    GateConfig(exhaustive=True, intercept=False, standardize=True)])
def test_l2_fits_only_the_start_model_and_each_winner(monkeypatch, config):
    # the scan scores candidates by projection; a least-squares refit per
    # candidate would show here as k0 extra calls per step
    calls = []

    def counting(design, response):
        calls.append(design.shape)
        return fit_least_squares(design, response)

    monkeypatch.setattr(stepgate.stepper, "fit_least_squares", counting)
    trace = run_stepwise(make_dataset(seed=9), config)
    assert len(trace.evaluations) > 1
    assert len(calls) == 1 + len(trace.evaluations)


def test_tie_break_prefers_earlier_column():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(40)
    y = 2.0 * x + rng.standard_normal(40)
    ds = Dataset("tie", y, {"x1": x, "x2": rng.standard_normal(40), "x3": x.copy()})
    trace = run_stepwise(ds, GateConfig(exhaustive=True))
    assert trace.evaluations[0].chosen_covariate == "x1"  # x3 is an exact tie


def test_selected_stops_at_first_failure_but_ranking_continues():
    # x2/x3 are a suppressor pair: nearly useless alone, decisive together,
    # so the gate fails at step 2 and would pass again at step 3
    rng = np.random.default_rng(0)
    n = 80
    z = rng.standard_normal(n)
    x1 = rng.standard_normal(n)
    x2 = z + 0.05 * rng.standard_normal(n)
    x3 = z + 0.05 * rng.standard_normal(n)
    y = 3.0 * x1 + 4.0 * (x2 - x3) + 0.3 * rng.standard_normal(n)
    ds = Dataset("suppressor", y, {"x1": x1, "x2": x2, "x3": x3})

    exhaustive = run_stepwise(ds, GateConfig(alpha=0.05, exhaustive=True))
    assert [e.included for e in exhaustive.evaluations] == [True, False, True]
    assert exhaustive.selected == ("x1",)
    assert exhaustive.termination_reason == EXHAUSTED

    stopped = run_stepwise(ds, GateConfig(alpha=0.05))
    assert stopped.termination_reason == GATE_FAILED
    assert len(stopped.evaluations) == 2
    assert stopped.selected == ("x1",)


def test_selected_is_always_the_included_prefix():
    ds = make_dataset(seed=12, signal=False)
    trace = run_stepwise(ds, GateConfig(alpha=0.2, exhaustive=True))
    chosen = [e.chosen_covariate for e in trace.evaluations]
    flags = [e.included for e in trace.evaluations]
    cut = flags.index(False) if False in flags else len(flags)
    assert trace.selected == tuple(chosen[:cut])


def test_max_steps():
    ds = make_dataset()
    trace = run_stepwise(ds, GateConfig(max_steps=1, exhaustive=True))
    assert trace.termination_reason == MAX_STEPS
    assert len(trace.evaluations) == 1
    empty = run_stepwise(ds, GateConfig(max_steps=0))
    assert empty.termination_reason == MAX_STEPS
    assert empty.evaluations == ()


def test_no_covariates_is_exhausted():
    ds = Dataset("none", np.arange(4.0), {})
    trace = run_stepwise(ds, GateConfig())
    assert trace.termination_reason == EXHAUSTED
    assert trace.evaluations == ()
    assert trace.selected == ()


def test_degenerate_when_fit_becomes_exact():
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal(30)
    ds = Dataset("exact", 1.5 + 2.0 * x1, {"x1": x1, "x2": rng.standard_normal(30)})
    trace = run_stepwise(ds, GateConfig(exhaustive=True))
    assert trace.termination_reason == DEGENERATE
    assert trace.selected == ("x1",)
    assert len(trace.evaluations) == 1  # nothing left to explain for step 2


def test_degenerate_constant_response_l2():
    ds = Dataset("flat", np.full(10, 3.0), {"x": np.arange(10.0)})
    trace = run_stepwise(ds, GateConfig())
    assert trace.termination_reason == DEGENERATE
    assert trace.evaluations == ()


def test_degenerate_scale_attaches_partial_trace():
    ds = Dataset("flat", np.full(6, 3.0), {"x": np.arange(6.0)})
    with pytest.raises(DegenerateScaleError) as exc:
        run_stepwise(ds, GateConfig(method="m"))
    partial = exc.value.partial_trace
    assert isinstance(partial, StepTrace)
    assert partial.termination_reason == DEGENERATE
    assert partial.evaluations == ()


def test_degenerate_scale_after_a_step_keeps_its_evaluations():
    # x1 explains every row but the last five exactly, so once it is in,
    # the MAD of the residuals is zero and the scale update fails
    rng = np.random.default_rng(0)
    n = 30
    x1 = np.r_[np.zeros(20), np.ones(10)]
    y = x1.copy()
    y[-5:] += rng.standard_normal(5)
    ds = Dataset("step-then-flat", y, {"x1": x1, "x2": rng.standard_normal(n)})
    with pytest.raises(DegenerateScaleError) as exc:
        run_stepwise(ds, GateConfig(method="m", sigma_override=1.0))
    partial = exc.value.partial_trace
    assert partial.termination_reason == DEGENERATE
    assert len(partial.evaluations) == 1
    assert partial.evaluations[0].chosen_covariate == "x1"
    assert partial.selected == ("x1",)


# -------------------------------------------------------------- the M method

def test_m_run_records_sigma_and_l2_does_not():
    ds = make_dataset(seed=5)
    l2 = run_stepwise(ds, GateConfig(exhaustive=True))
    assert all(e.sigma is None for e in l2.evaluations)
    m = run_stepwise(ds, GateConfig(method="m", exhaustive=True))
    assert all(e.sigma is not None and e.sigma > 0 for e in m.evaluations)
    assert m.termination_reason == EXHAUSTED
    assert len(m.evaluations) == 5


def test_m_sigma_refresh_protocol():
    # sigma for step j+1 is the MAD of the step-j winner's residuals, where
    # the winner was fit at the step-j sigma
    ds = make_dataset(seed=5)
    cfg = GateConfig(method="m", exhaustive=True)
    trace = run_stepwise(ds, cfg)
    ev1, ev2 = trace.evaluations[0], trace.evaluations[1]
    X = np.column_stack([np.ones(ds.n), ds.columns[ev1.chosen_covariate]])
    winner = m_fit_fixed_scale(X, ds.y, cfg.rho, ev1.sigma)
    # rel 1e-5: this cold refit and the in-loop warm-started one stop at
    # slightly different stationary points (score tolerance 1e-6 * n)
    assert ev2.sigma == pytest.approx(mad_scale(winner.residuals), rel=1e-5)


def test_m_sigma_override():
    ds = make_dataset(seed=5)
    trace = run_stepwise(ds, GateConfig(method="m", sigma_override=2.5, max_steps=1))
    assert trace.evaluations[0].sigma == 2.5


def test_m_objective_decreases_along_the_path():
    ds = make_dataset(seed=5)
    trace = run_stepwise(ds, GateConfig(method="m", exhaustive=True))
    for ev in trace.evaluations:
        assert ev.ss_after <= ev.ss_before + 1e-12


# --------------------------------------------------------------- invariances

def test_l2_trace_invariant_under_response_scaling():
    ds = make_dataset(seed=13)
    base = run_stepwise(ds, GateConfig(exhaustive=True))
    scaled = Dataset(ds.name, ds.y * 37.5, ds.columns)
    other = run_stepwise(scaled, GateConfig(exhaustive=True))
    assert [e.chosen_covariate for e in base.evaluations] == [
        e.chosen_covariate for e in other.evaluations
    ]
    assert_allclose(
        [e.p_value for e in base.evaluations],
        [e.p_value for e in other.evaluations],
        atol=1e-9,
    )


def test_m_trace_invariant_under_response_scaling():
    ds = make_dataset(seed=13)
    base = run_stepwise(ds, GateConfig(method="m", exhaustive=True))
    scaled = Dataset(ds.name, ds.y * -4.0, ds.columns)
    other = run_stepwise(scaled, GateConfig(method="m", exhaustive=True))
    assert [e.chosen_covariate for e in base.evaluations] == [
        e.chosen_covariate for e in other.evaluations
    ]
    assert_allclose(
        [e.p_value for e in base.evaluations],
        [e.p_value for e in other.evaluations],
        atol=1e-9,
    )
    # sigma is equivariant up to the L1 solver's absolute stopping slop
    assert other.evaluations[0].sigma == pytest.approx(
        4.0 * base.evaluations[0].sigma, rel=1e-6
    )


def test_l2_trace_invariant_under_column_scaling_and_standardization():
    ds = make_dataset(seed=14)
    base = run_stepwise(ds, GateConfig(exhaustive=True))
    cols = {nm: col * s for (nm, col), s in zip(ds.columns.items(), (2.0, 0.01, 300.0, 1.0, -5.0))}
    other = run_stepwise(Dataset(ds.name, ds.y, cols), GateConfig(exhaustive=True))
    std = run_stepwise(ds, GateConfig(exhaustive=True, standardize=True))
    for variant in (other, std):
        assert [e.chosen_covariate for e in base.evaluations] == [
            e.chosen_covariate for e in variant.evaluations
        ]
        assert_allclose(
            [e.p_value for e in base.evaluations],
            [e.p_value for e in variant.evaluations],
            atol=1e-9,
        )


# ------------------------------------------------------------- serialization

def test_config_roundtrip():
    cfg = GateConfig(alpha=0.1, method="m", rho=RhoFunction("huber", 2.0),
                     intercept=False, standardize=True, max_steps=3,
                     exhaustive=True, sigma_override=1.5)
    assert GateConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_trace_roundtrip_through_json():
    ds = make_dataset(seed=1)
    trace = run_stepwise(ds, GateConfig(exhaustive=True))
    back = StepTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert back == trace  # float repr round-trips exactly


def test_m_huber_trace_roundtrip_through_json():
    ds = make_dataset(seed=2)
    trace = run_stepwise(ds, GateConfig(method="m", rho=RhoFunction("huber", 1.345),
                                        exhaustive=True))
    back = StepTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert back == trace
    assert back.config.rho == RhoFunction("huber", 1.345)
    assert all(isinstance(e, StepEvaluation) for e in back.evaluations)


def test_to_dict_keys_are_the_fields_in_order():
    trace = run_stepwise(make_dataset(seed=1), GateConfig(method="m", max_steps=1))
    for record in (trace, trace.config, trace.evaluations[0]):
        names = [f.name for f in dataclasses.fields(record)]
        assert list(record.to_dict()) == names


def test_from_dict_rejects_unknown_keys():
    trace = run_stepwise(make_dataset(seed=1), GateConfig(max_steps=1))
    for cls, d in ((StepTrace, trace.to_dict()), (GateConfig, trace.config.to_dict()),
                   (StepEvaluation, trace.evaluations[0].to_dict())):
        with pytest.raises(TypeError):
            cls.from_dict({**d, "surplus": 1})


def test_config_validation():
    for bad in (0.0, 1.0, -0.2, "x"):
        with pytest.raises(InvalidInputError):
            GateConfig(alpha=bad)
    with pytest.raises(InvalidInputError):
        GateConfig(method="ridge")
    with pytest.raises(InvalidInputError):
        GateConfig(max_steps=-1)
    with pytest.raises(InvalidInputError):
        GateConfig(max_steps=True)
    with pytest.raises(InvalidInputError):
        GateConfig(sigma_override=0.0)
