"""Dense single-sample forms of the model, the oracles of the tests and
of ``validate``: the channel H = A_rx diag(g) A_tx^H, its SVD reference
W_opt/F_opt, and the hybrid combiner W_RF = W_LO W_LC.  No run calls
them; the run path uses the block forms of ``channel`` and ``optimizer``.
The module imports only those below it (``architecture``, ``arrays``,
``channel``, ``errors``).  Some single-sample forms stay beside their
kernels: ``alternating_minimize`` and ``direct_solve_proportional`` in
``optimizer`` are batches of one through the kernel, and the per-layer
benchmark trace looks them up there; ``spectral_efficiency``,
``combined_gain_eigenvalues`` and ``fully_digital_se`` in ``evaluation``
share the helpers of the stacked rate, and here they would make the two
modules import each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .architecture import (TWO_PI, ReuseArchitecture, _is_int, check_bits,
                           diagonal_phases)
from .arrays import ArrayGeometry, array_response, upa_response
from .channel import ChannelParams, Paths, _fix_column_phases, draw_paths
from .errors import ArchitectureError, NumericError


def phase_grid(bits: int) -> np.ndarray:
    """Feasible phases under B-bit resolution: {2*pi*b/2^B, b=0..2^B-1}."""
    check_bits(bits)
    return TWO_PI * np.arange(2 ** bits) / (2 ** bits)


def build_wlc(n_r: int, apd_depth: int) -> np.ndarray:
    """0/1 fiber-combiner adjacency: N_r x N_chains block stack of all-ones
    columns; the identity when apd_depth=1."""
    if n_r <= 0 or apd_depth <= 0 or n_r % apd_depth != 0:
        raise ArchitectureError(
            f"apd_depth={apd_depth} does not divide n_r={n_r}")
    return np.kron(np.eye(n_r // apd_depth), np.ones((apd_depth, 1)))


def compose_wrf(arch: ReuseArchitecture, phases: np.ndarray) -> np.ndarray:
    """Analog combiner W_LO @ W_LC: N_r x N_chains, exactly apd_depth
    unit-modulus nonzeros per column, so W^H W = apd_depth * I."""
    u = np.exp(1j * diagonal_phases(arch, phases))
    return u[:, None] * build_wlc(arch.n_r, arch.apd_depth)


def channel_matrix(paths: Paths, n_tx: int,
                   rx_geometry: ArrayGeometry) -> np.ndarray:
    """The dense N_r x N_t channel matrix of one draw of paths.  The
    transmitter is a half-wavelength UPA.

    Keeping this separate from the path draw lets several receive
    geometries share one set of paths for paired comparisons.
    """
    if np.ndim(paths.gains) != 1:
        raise ValueError("channel_matrix takes one draw; a block of draws "
                         "goes through block_references")
    a_tx = upa_response(paths.aod_azimuth, paths.aod_elevation, n_tx, 0.5)
    n_r = rx_geometry.n_elements
    a_rx = array_response(rx_geometry, paths.aoa_azimuth, paths.aoa_elevation)
    scale = math.sqrt(n_tx * n_r / paths.n_paths)
    return (a_rx * (scale * paths.gains)) @ a_tx.conj().T


def generate_channel(params: ChannelParams, rx_geometry: ArrayGeometry,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw one dense channel matrix, deterministic given the generator."""
    paths = draw_paths(params, rng)
    return channel_matrix(paths, params.n_tx, rx_geometry)


@dataclass(frozen=True, eq=False)
class DigitalReference:
    """Fully digital optimum from a dense channel SVD: combining target
    w_opt (left singular vectors), ideal precoder f_opt (right singular
    vectors), each column phase-fixed as in ``block_references``, and all
    min(N_r, N_t) singular values in descending order."""

    w_opt: np.ndarray = field(repr=False)
    f_opt: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)


def optimal_digital_combiner(h: np.ndarray,
                             n_streams: int) -> DigitalReference:
    """SVD-based fully digital reference for a dense channel matrix, the
    oracle that ``block_references`` is checked against.  A channel of rank
    below n_streams (by matrix_rank's tolerance) raises NumericError, and
    an n_streams that is not an integer in [1, min(N_r, N_t)] ValueError."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    if not (_is_int(n_streams) and 1 <= n_streams <= min(h.shape)):
        raise ValueError(f"n_streams={n_streams!r} must be an integer "
                         f"in [1, min{h.shape}]")
    if not np.all(np.isfinite(h)):
        raise NumericError("channel matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(h, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    if s[n_streams - 1] <= max(h.shape) * np.finfo(float).eps * s[0]:
        raise NumericError(f"channel rank below n_streams={n_streams}: "
                           f"singular values {s[:n_streams]}")
    return DigitalReference(w_opt=_fix_column_phases(u[:, :n_streams]),
                            f_opt=_fix_column_phases(vh[:n_streams].conj().T),
                            singular_values=s)

