"""Clustered narrowband mmWave channel generation.

The channel is a sum of N_cl clusters with N_ray rays each.  Ray gains are
complex Gaussian with per-cluster variance, mean angles are uniform, and
per-ray angle offsets follow a Laplacian with configurable spread.  With
unit cluster powers the normalization gives E[||H||_F^2] = N_t * N_r.
H = A_rx diag(g) A_tx^H has rank at most L = n_clusters * n_rays.  A run's
trial block keeps only the factors (``block_channels``) that its SVD
reference (``block_reference``) reads; one draw's dense H and SVD, the
oracles of the checks, are in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True, eq=False)
class ChannelBlock:
    """The channels of a block of B draws on one receive geometry, stacked
    on a leading draw axis and kept only as far as the reference reads
    them: the receive steering a_rx (B, N_r, L), the normalized gains
    (B, L) and the R factors r_tx (B, min(N_t, L), L) of A_tx = Q_tx R_tx:
    draw b's H H^H is (A_rx G R_tx^H)(A_rx G R_tx^H)^H, G = diag(g)."""

    a_rx: np.ndarray
    gains: np.ndarray
    r_tx: np.ndarray
    n_tx: int

    @property
    def shape(self) -> tuple[int, int]:
        """(N_r, N_t) of every sample."""
        return self.a_rx.shape[1], self.n_tx


def block_channels(paths: Paths, n_tx: int,
                   geometries: Iterable[ArrayGeometry]
                   ) -> Iterator[tuple[ArrayGeometry, ChannelBlock]]:
    """The channels of a block of draws (B, L), one receive geometry at a
    time, each sample bit for bit that of a block of its draw alone.

    The transmit steering of the block is one ``upa_response`` call over
    the (B, L) angles; it is factored by one QR per draw (a stacked QR is
    slower) and dropped.  Geometries with equal n_blocks and block_spacing
    share one block-UPA factor, and each geometry's steering is built only
    when the caller asks for it, so that one that drops it before asking
    for the next holds one receive stack at a time.  A block with a
    non-finite gain or angle raises NumericError before any steering.
    """
    if not all(np.isfinite(a).all() for a in vars(paths).values()):
        raise NumericError("channel matrix contains non-finite entries")
    a_tx = upa_response(paths.aod_azimuth, paths.aod_elevation, n_tx, 0.5)
    r_tx = np.stack([np.linalg.qr(a_tx[:, b], mode="r")
                     for b in range(a_tx.shape[1])])
    del a_tx
    az, el = paths.aoa_azimuth, paths.aoa_elevation
    blocks: dict[tuple, np.ndarray] = {}
    for geometry in geometries:
        key = (geometry.n_blocks, geometry.block_spacing)
        if key not in blocks:
            blocks[key] = upa_response(az, el, *key)
        a_rx = array_response(geometry, az, el, block=blocks[key])
        scale = math.sqrt(n_tx * geometry.n_elements / paths.n_paths)
        yield geometry, ChannelBlock(np.moveaxis(a_rx, 0, 1),
                                     scale * paths.gains, r_tx, n_tx)
        del a_rx


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


def block_reference(h: ChannelBlock, n_streams: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The SVD reference of a block of factored channels: the phase-fixed
    W_opt (B, N_r, N_s) and the leading singular values (B, N_s).  H =
    Q_rx C Q_tx^H has the singular values of the core C = R_rx diag(g)
    R_tx^H = U S V^H, and w_i = A_rx (g * R_tx^H v_i) / s_i.  One QR per
    sample, then one core product, SVD and vector mapping for the stack, so
    a sample equals its one-draw block bit for bit.  Raises NumericError in
    the words of ``optimal_digital_combiner`` when a QR or the SVD fails,
    and, before any division, for the first sample of rank below n_streams.
    """
    try:
        r_rx = np.stack([np.linalg.qr(a, mode="r") for a in h.a_rx])
        r_tx_h = np.conj(h.r_tx).swapaxes(-1, -2)
        _, s, vh = np.linalg.svd((r_rx * h.gains[:, None]) @ r_tx_h,
                                 full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    low = s[:, n_streams - 1] <= max(h.shape) * np.finfo(float).eps * s[:, 0]
    s = s[:, :n_streams]
    if low.any():
        raise NumericError(f"channel rank below n_streams={n_streams}: "
                           f"singular values {s[np.argmax(low)]}")
    f = np.conj(vh[:, :n_streams]).swapaxes(-1, -2)
    w = h.a_rx @ (h.gains[..., None] * (r_tx_h @ f))
    w /= s[:, None]
    return _fix_column_phases(w), s
