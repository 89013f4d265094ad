"""Clustered narrowband mmWave channel generation.

The channel is a sum of N_cl clusters with N_ray rays each.  Ray gains are
complex Gaussian with per-cluster variance, mean angles are uniform, and
per-ray angle offsets follow a Laplacian with configurable spread.  With
unit cluster powers the normalization gives E[||H||_F^2] = N_t * N_r.
H = A_rx diag(g) A_tx^H has rank at most L = n_clusters * n_rays.  A run's
trial block keeps only the factors its reference reads (``block_channels``);
one draw's dense H, the oracle of the checks, is in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .architecture import _is_int
from .arrays import ArrayGeometry, array_response, upa_response
from .errors import GeometryError


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
        if not all(0 < p < math.inf for p in self.cluster_powers):
            raise ValueError("cluster powers must be finite and > 0")
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

    def finite(self) -> np.ndarray:
        """Whether every gain and angle is finite, per draw of a block."""
        return np.logical_and.reduce([np.isfinite(a).all(axis=-1)
                                      for a in vars(self).values()])


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
    for the next holds one receive stack at a time.
    """
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
