"""Library constructors reject NaN and infinite inputs, and non-integer
counts, instead of running on with them."""

import math

import numpy as np
import pytest

from rydcomb import (ArrayGeometry, ChannelParams, ConfigError, EvalUnit,
                     ExperimentSpec, OptimizerConfig, ReuseArchitecture,
                     direct_solve_proportional, upa_response)

NAN, INF = math.nan, math.inf


def _direct(bits, phase):
    arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=2,
                             resolution_bits=bits)
    w_opt = np.eye(8, 2, dtype=complex)
    return direct_solve_proportional(arch, w_opt, phases=[phase] * 4)


CASES = {
    "geometry-block-nan": lambda: ArrayGeometry(36, 1, NAN),
    "geometry-block-inf": lambda: ArrayGeometry(36, 1, INF),
    "geometry-intra-nan": lambda: ArrayGeometry(36, 2, 0.5, NAN),
    "geometry-intra-inf": lambda: ArrayGeometry(36, 2, 0.5, INF),
    "upa-spacing-nan": lambda: upa_response(0.1, 0.2, 16, spacing=NAN),
    "upa-spacing-inf": lambda: upa_response(0.1, 0.2, 16, spacing=INF),
    "spread-nan": lambda: ChannelParams(n_tx=16, angular_spread=NAN),
    "spread-inf": lambda: ChannelParams(n_tx=16, angular_spread=INF),
    "cluster-power-nan": lambda: ChannelParams(
        n_tx=16, n_clusters=1, cluster_powers=(NAN,)),
    "cluster-power-inf": lambda: ChannelParams(
        n_tx=16, n_clusters=1, cluster_powers=(INF,)),
    "epsilon-nan": lambda: OptimizerConfig(epsilon=NAN),
    "epsilon-inf": lambda: OptimizerConfig(epsilon=INF),
    "intra-spacing-nan": lambda: ReuseArchitecture(4, 2, intra_spacing=NAN),
    "intra-spacing-inf": lambda: ReuseArchitecture(4, 2, intra_spacing=INF),
    "phases-nan": lambda: _direct(None, NAN),
    "phases-nan-on-grid": lambda: _direct(2, NAN),
    "phases-inf": lambda: _direct(None, INF),
}


@pytest.mark.parametrize("case", list(CASES))
def test_non_finite_input_rejected(case):
    with pytest.raises(ValueError, match="finite"):
        CASES[case]()


def _spec(**fields):
    spec = dict(channel=ChannelParams(n_tx=16, n_clusters=3, n_rays=4),
                units=(EvalUnit(label="digital", kind="ideal_digital",
                                geometry=ArrayGeometry(4, 2)),),
                n_streams=2, snr_db=(0.0,), trials=4, seed=1)
    return ExperimentSpec(**{**spec, **fields})


# counts that could not size an array, or that a bool stands in for
NON_INTEGER = {
    "trials": lambda: _spec(trials=2.5),
    "n-streams": lambda: _spec(n_streams=2.0),
    "seed": lambda: _spec(seed=True),
    "n-tx": lambda: ChannelParams(n_tx=144.0),
    "n-clusters": lambda: ChannelParams(n_tx=144, n_clusters=2.5),
    "n-rays": lambda: ChannelParams(n_tx=144, n_rays=True),
}


@pytest.mark.parametrize("case", list(NON_INTEGER))
def test_non_integer_count_rejected(case):
    error = ConfigError if case in ("trials", "n-streams", "seed") \
        else ValueError
    with pytest.raises(error, match="must be integers"):
        NON_INTEGER[case]()


def test_integer_counts_accepted():
    assert _spec(trials=np.int64(4), seed=np.uint64(1)).trials == 4
    assert ChannelParams(n_tx=np.int64(16), n_rays=np.int64(2)).n_paths == 10
