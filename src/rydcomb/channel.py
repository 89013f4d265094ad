"""Clustered narrowband mmWave channel generation.

The channel is a sum of N_cl clusters with N_ray rays each.  Ray gains are
complex Gaussian with per-cluster variance, mean angles are uniform, and
per-ray angle offsets follow a Laplacian with configurable spread.  With
unit cluster powers the normalization gives E[||H||_F^2] = N_t * N_r.
H = A_rx diag(g) A_tx^H has rank at most L = n_clusters * n_rays.  A run
builds the SVD reference of a trial block from its path factors alone
(``block_references``); one draw's dense H and SVD, the oracles of the
checks, are in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .architecture import _is_int
from .arrays import ArrayGeometry, array_response, upa_response
from .errors import GeometryError, NumericError

# Cluster powers are relative; the rate scales the squared gains, about
# power * N_t * N_r, by the SNR, and this ceiling leaves those float range.
MAX_CLUSTER_POWER = 1e100


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of the clustered channel between a UPA transmitter and
    any receive array."""

    n_tx: int
    n_clusters: int = 5
    n_rays: int = 10
    cluster_powers: tuple[float, ...] = ()
    angular_spread: float = math.radians(10.0)

    def __post_init__(self) -> None:
        if not all(map(_is_int, (self.n_tx, self.n_clusters, self.n_rays))):
            raise ValueError("n_tx, n_clusters and n_rays must be integers")
        m = math.isqrt(self.n_tx)
        if m * m != self.n_tx:
            raise GeometryError(f"n_tx={self.n_tx} is not a perfect square")
        if self.n_clusters <= 0 or self.n_rays <= 0:
            raise ValueError("n_clusters and n_rays must be positive")
        if not self.cluster_powers:
            object.__setattr__(self, "cluster_powers",
                               (1.0,) * self.n_clusters)
        if len(self.cluster_powers) != self.n_clusters:
            raise ValueError("cluster_powers must have length n_clusters")
        if not all(0 < p <= MAX_CLUSTER_POWER for p in self.cluster_powers):
            raise ValueError(f"cluster_powers must be finite, > 0 and at "
                             f"most {MAX_CLUSTER_POWER:g}")
        if not 0 <= self.angular_spread < math.inf:
            raise ValueError("angular_spread must be finite and >= 0")

    @property
    def n_paths(self) -> int:
        return self.n_clusters * self.n_rays


@dataclass(frozen=True, eq=False)
class Paths:
    """Gains and angles of all propagation paths, one length-L array each;
    a block of B draws (``Paths.stack``) holds (B, L) arrays."""

    gains: np.ndarray
    aoa_azimuth: np.ndarray
    aoa_elevation: np.ndarray
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray

    def __post_init__(self) -> None:
        if (np.ndim(self.gains) not in (1, 2)
                or len({np.shape(a) for a in vars(self).values()}) != 1):
            raise ValueError("path gains and angles must be arrays of equal "
                             "shape, (L,) for one draw or (B, L) for a block")

    @property
    def n_paths(self) -> int:
        return np.shape(self.gains)[-1]

    @classmethod
    def stack(cls, draws: Sequence["Paths"]) -> "Paths":
        return cls(**{k: np.stack([vars(p)[k] for p in draws])
                      for k in vars(draws[0])})


def draw_paths(params: ChannelParams, rng: np.random.Generator) -> Paths:
    """Draw per-path gains and angles.

    The draw order is fixed and part of the reproducibility contract:
    AoA azimuth means, AoA elevation means, AoD azimuth means, AoD elevation
    means (uniform on [0,2pi) / [0,pi)), then Laplacian per-ray offsets for
    the four angle families, then ray gains (real, then imaginary parts).
    The Laplacian scale is spread/sqrt(2) so its standard deviation equals
    the configured angular spread.
    """
    ncl, nray = params.n_clusters, params.n_rays
    n_paths = params.n_paths
    scale = params.angular_spread / math.sqrt(2.0)

    aoa_az_mean = rng.uniform(0.0, 2.0 * np.pi, ncl)
    aoa_el_mean = rng.uniform(0.0, np.pi, ncl)
    aod_az_mean = rng.uniform(0.0, 2.0 * np.pi, ncl)
    aod_el_mean = rng.uniform(0.0, np.pi, ncl)
    offsets = rng.laplace(0.0, scale, size=(4, n_paths)) if scale > 0 else np.zeros((4, n_paths))

    sigma = np.repeat(np.sqrt(np.asarray(params.cluster_powers) / 2.0), nray)
    re = rng.normal(0.0, 1.0, n_paths)
    im = rng.normal(0.0, 1.0, n_paths)
    return Paths(gains=sigma * (re + 1j * im),
                 aoa_azimuth=np.repeat(aoa_az_mean, nray) + offsets[0],
                 aoa_elevation=np.repeat(aoa_el_mean, nray) + offsets[1],
                 aod_azimuth=np.repeat(aod_az_mean, nray) + offsets[2],
                 aod_elevation=np.repeat(aod_el_mean, nray) + offsets[3])


def _fix_column_phases(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive.
    Makes the SVD basis reproducible across runs and platforms.  Leading
    axes are batch axes."""
    pivot = np.take_along_axis(m, np.argmax(np.abs(m), axis=-2)[..., None, :],
                               axis=-2)
    keep = pivot != 0  # a zero column stays as it is
    rotation = np.divide(np.conj(pivot), np.abs(pivot), where=keep,
                         out=np.ones_like(pivot))
    return np.multiply(m, rotation, where=keep, out=m.copy())


def block_references(paths: Paths, n_tx: int, n_streams: int,
                     geometries: Iterable[ArrayGeometry],
                     vectors: Optional[Collection[ArrayGeometry]] = None
                     ) -> dict[ArrayGeometry, tuple]:
    """The SVD reference of a block of draws (B, L) on each receive
    geometry: the phase-fixed W_opt (B, N_r, N_s), None off ``vectors`` if
    given (a run asks for W_opt where a solve reads it; ``validate`` and
    the tests pass None, for all), and the leading singular values (B,
    N_s), each sample bit for bit that of its draw's block alone, so no
    value depends on the block size.

    H = A_rx G A_tx^H, G = diag(g), has the singular values of the core
    C = R_rx G R_tx^H = U S V^H, with A = Q R per draw, and w_i = A_rx (G
    R_tx^H v_i) / s_i.  The transmit steering is one ``upa_response`` call,
    factored by one QR per draw (R only; a stacked QR is slower) and
    dropped, and geometries with equal n_blocks and block_spacing share one
    block-UPA factor.  Then, geometry by geometry in the given order, one
    receive QR per sample, one core product and SVD for the stack, whatever
    ``vectors`` holds (so Sigma has the same bits whichever curves share a
    geometry), and the vector mapping; each steering is freed before the
    next.
    Raises NumericError in the words of ``optimal_digital_combiner`` for a
    non-finite gain or angle, before any steering; when a receive QR or
    the SVD fails; and, before any division, for the first sample of rank
    below n_streams, so a channel of zero gain divides nothing.
    """
    if not all(np.isfinite(a).all() for a in vars(paths).values()):
        raise NumericError("channel matrix contains non-finite entries")
    a_tx = upa_response(paths.aod_azimuth, paths.aod_elevation, n_tx, 0.5)
    r_tx_h = np.conj(np.stack([np.linalg.qr(a_tx[:, b], mode="r")
                               for b in range(a_tx.shape[1])])
                     ).swapaxes(-1, -2)
    del a_tx
    az, el = paths.aoa_azimuth, paths.aoa_elevation
    blocks: dict[tuple, np.ndarray] = {}
    stacks = {}
    for geometry in dict.fromkeys(geometries):
        n_r = geometry.n_elements
        key = (geometry.n_blocks, geometry.block_spacing)
        if key not in blocks:
            blocks[key] = upa_response(az, el, *key)
        a_rx = np.moveaxis(array_response(geometry, az, el, block=blocks[key]),
                           0, 1)
        gains = math.sqrt(n_tx * n_r / paths.n_paths) * paths.gains
        try:
            r_rx = np.stack([np.linalg.qr(a, mode="r") for a in a_rx])
            _, s, vh = np.linalg.svd((r_rx * gains[:, None]) @ r_tx_h,
                                     full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed: {exc}") from exc
        low = (s[:, n_streams - 1]
               <= max(n_r, n_tx) * np.finfo(float).eps * s[:, 0])
        s = s[:, :n_streams]
        if low.any():
            raise NumericError(f"channel rank below n_streams={n_streams}: "
                               f"singular values {s[np.argmax(low)]}")
        stacks[geometry] = None, s
        if vectors is None or geometry in vectors:
            f = np.conj(vh[:, :n_streams]).swapaxes(-1, -2)
            w = a_rx @ (gains[..., None] * (r_tx_h @ f))
            w /= s[:, None]
            stacks[geometry] = _fix_column_phases(w), s
        del a_rx, r_rx, vh
    return stacks
