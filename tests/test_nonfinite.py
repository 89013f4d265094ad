"""Library constructors reject NaN and infinite inputs instead of running
on with them."""

import math

import numpy as np
import pytest

from rydcomb import (ArrayGeometry, ChannelParams, OptimizerConfig,
                     ReuseArchitecture, direct_solve_proportional,
                     upa_response)

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
