"""Clustered narrowband mmWave channel generation.

The channel is a sum of N_cl clusters with N_ray rays each.  Ray gains are
complex Gaussian with per-cluster variance, mean angles are uniform, and
per-ray angle offsets follow a Laplacian with configurable spread.  With
unit cluster powers the normalization gives E[||H||_F^2] = N_t * N_r.
The channel is kept as its path factors H = A_rx diag(g) A_tx^H, whose
rank is at most the path count L = n_clusters * n_rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        if any(p <= 0 for p in self.cluster_powers):
            raise ValueError("cluster powers must be > 0")
        if self.angular_spread < 0:
            raise ValueError("angular_spread must be >= 0")

    @property
    def n_paths(self) -> int:
        return self.n_clusters * self.n_rays


@dataclass(frozen=True, eq=False)
class Paths:
    """Gains and angles of all propagation paths, one length-L array each."""

    gains: np.ndarray
    aoa_azimuth: np.ndarray
    aoa_elevation: np.ndarray
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray

    def __post_init__(self) -> None:
        arrays = (self.gains, self.aoa_azimuth, self.aoa_elevation,
                  self.aod_azimuth, self.aod_elevation)
        if np.ndim(self.gains) != 1 or len({np.shape(a) for a in arrays}) != 1:
            raise ValueError("path gains and angles must be 1-D arrays of equal length")

    @property
    def n_paths(self) -> int:
        return len(self.gains)


@dataclass(frozen=True, eq=False)
class TransmitFactor:
    """Transmit steering matrix A_tx (N_t x L) of one path draw and its
    reduced QR factors, shared by every receive geometry of that draw."""

    steering: np.ndarray
    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True, eq=False)
class LowRankChannel:
    """The channel H = A_rx diag(gains) A_tx^H kept as its path factors.

    ``gains`` carry the normalization sqrt(N_t N_r / L), so H has rank at
    most L = n_clusters * n_rays whatever the array sizes.
    """

    a_rx: np.ndarray
    gains: np.ndarray
    transmit: TransmitFactor

    @property
    def shape(self) -> tuple[int, int]:
        return self.a_rx.shape[0], self.transmit.steering.shape[0]

    def dense(self) -> np.ndarray:
        return (self.a_rx * self.gains) @ self.transmit.steering.conj().T

    def apply(self, f: np.ndarray) -> np.ndarray:
        """H @ f through the factors, without forming H."""
        return (self.a_rx * self.gains) @ (self.transmit.steering.conj().T @ f)


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


def channel_matrix(paths: Paths, n_tx: int, rx_geometry: ArrayGeometry,
                   transmit: Optional[TransmitFactor] = None) -> LowRankChannel:
    """Assemble the N_r x N_t channel matrix from the paths, in factored form.
    The transmitter is a half-wavelength UPA.

    Keeping this separate from the path draw lets several receive
    geometries share one set of paths for paired comparisons; they can also
    share one ``transmit`` factor, which depends on the paths only.
    """
    if transmit is None:
        a_tx = upa_response(paths.aod_azimuth, paths.aod_elevation, n_tx, 0.5)
        transmit = TransmitFactor(a_tx, *np.linalg.qr(a_tx))
    elif transmit.steering.shape != (n_tx, paths.n_paths):
        raise ValueError("transmit factor does not match n_tx and the paths")
    n_r = rx_geometry.n_elements
    a_rx = array_response(rx_geometry, paths.aoa_azimuth, paths.aoa_elevation)
    scale = math.sqrt(n_tx * n_r / paths.n_paths)
    return LowRankChannel(a_rx=a_rx, gains=scale * paths.gains, transmit=transmit)


def generate_channel(params: ChannelParams, rx_geometry: ArrayGeometry,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw one dense channel matrix, deterministic given the generator."""
    paths = draw_paths(params, rng)
    return channel_matrix(paths, params.n_tx, rx_geometry).dense()
