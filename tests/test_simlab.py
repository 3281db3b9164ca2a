"""Monte Carlo harness tests. Heavy calibration checks live in the
acceptance suite; here the focus is determinism and report consistency."""

import dataclasses
import json

import numpy as np
import pytest

from stepgate import (
    InvalidInputError,
    SimConfig,
    SimReport,
    noise_reduction_distribution,
    null_calibration,
)
from stepgate.simlab import _rep_rng


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SimConfig(n=10, k=8, replications=5)  # needs n > k + 2
    with pytest.raises(InvalidInputError):
        SimConfig(n=20, k=2, replications=0)
    with pytest.raises(InvalidInputError):
        SimConfig(n=20.0, k=2, replications=5)
    with pytest.raises(InvalidInputError):
        SimConfig(n=True, k=0, replications=5)
    with pytest.raises(InvalidInputError):
        SimConfig(n=20, k=2, replications=5, alpha=1.0)
    with pytest.raises(InvalidInputError):
        SimConfig(n=20, k=2, replications=5, seed=-1)
    with pytest.raises(InvalidInputError):
        SimConfig(n=20, k=2, replications=5, method="bayes")


def test_config_and_report_roundtrip():
    cfg = SimConfig(n=30, k=3, replications=7, alpha=0.1, seed=9, method="m")
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    rep = SimReport(inclusion_rate=0.25, p_value_histogram=(1,) * 20,
                    ks_distance_chisq=0.05, replication_count=20)
    assert SimReport.from_dict(rep.to_dict()) == rep


def test_config_and_report_roundtrip_through_json():
    cfg = SimConfig(n=30, k=3, replications=12, alpha=0.1, seed=9)
    rep = null_calibration(cfg)
    for record in (cfg, rep):
        back = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
        assert back == record
        assert list(record.to_dict()) == [f.name for f in dataclasses.fields(record)]
        with pytest.raises(TypeError):
            type(record).from_dict({**record.to_dict(), "surplus": 1})


def test_replication_streams_are_keyed_not_sequential():
    a = _rep_rng(7, 3).standard_normal(4)
    b = _rep_rng(7, 3).standard_normal(4)
    c = _rep_rng(7, 4).standard_normal(4)
    d = _rep_rng(8, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_null_calibration_is_deterministic():
    cfg = SimConfig(n=30, k=3, replications=40, seed=123)
    assert null_calibration(cfg) == null_calibration(cfg)
    other = null_calibration(SimConfig(n=30, k=3, replications=40, seed=124))
    assert other != null_calibration(cfg)


def test_null_calibration_report_consistency():
    cfg = SimConfig(n=30, k=3, replications=60, alpha=0.05, seed=1)
    rep = null_calibration(cfg)
    assert rep.replication_count == 60
    assert sum(rep.p_value_histogram) == 60
    assert len(rep.p_value_histogram) == 20
    # bin 0 is [0, 0.05): with alpha = 0.05 it holds exactly the inclusions
    assert rep.inclusion_rate == pytest.approx(rep.p_value_histogram[0] / 60.0)
    assert 0.0 <= rep.ks_distance_chisq <= 1.0


def test_null_calibration_m_method_runs():
    rep = null_calibration(SimConfig(n=25, k=2, replications=6, seed=2, method="m"))
    assert rep.replication_count == 6


def test_noise_reduction_intercept_design():
    cfg = SimConfig(n=50, k=1, replications=400, seed=0)
    rep = noise_reduction_distribution(cfg, np.ones((50, 1)))
    assert rep.replication_count == 400
    assert sum(rep.p_value_histogram) == 400
    assert rep.ks_distance_chisq < 0.15  # loose; the tight bound is acceptance-level
    assert 0.01 < rep.inclusion_rate < 0.12


def test_noise_reduction_zero_column_design():
    cfg = SimConfig(n=40, k=1, replications=30, seed=5)
    rep = noise_reduction_distribution(cfg, np.empty((40, 0)))
    assert rep.replication_count == 30


def test_noise_reduction_design_validation():
    cfg = SimConfig(n=40, k=1, replications=5)
    with pytest.raises(InvalidInputError):
        noise_reduction_distribution(cfg, np.ones((39, 1)))
    with pytest.raises(InvalidInputError):
        noise_reduction_distribution(cfg, np.ones(40))
    bad = np.ones((40, 2))
    with pytest.raises(InvalidInputError):
        noise_reduction_distribution(cfg, bad)  # duplicate columns: rank 1
    nan = np.ones((40, 1))
    nan[3, 0] = np.nan
    with pytest.raises(InvalidInputError):
        noise_reduction_distribution(cfg, nan)


def test_noise_reduction_rejects_the_m_method():
    cfg = SimConfig(n=40, k=1, replications=5, method="m")
    with pytest.raises(InvalidInputError, match="l2"):
        noise_reduction_distribution(cfg, np.ones((40, 1)))


def test_noise_reduction_deterministic():
    cfg = SimConfig(n=30, k=1, replications=25, seed=11)
    X = np.column_stack([np.ones(30), np.arange(30.0)])
    assert noise_reduction_distribution(cfg, X) == noise_reduction_distribution(cfg, X)
