"""Array geometries and steering (array response) vectors.

Two receive layouts are supported: a square uniform planar array (UPA) and
the dense non-uniform layout in which each Cell & LO block hosts several
closely spaced axial sub-elements.  All response vectors are unit-norm.

Every response function broadcasts over its angles: scalar angles give one
steering vector, length-L angle arrays give an N x L steering matrix whose
column p is the response to the p-th angle pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


class ArrayKind(enum.Enum):
    UPA = "upa"
    RYDBERG_NON_UPA = "rydberg_non_upa"


def _square_side(n: int) -> int:
    m = math.isqrt(n)
    if m * m != n:
        raise GeometryError(f"element count {n} is not a perfect square")
    return m


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical layout of a planar array.

    For kind=UPA, n_blocks is the total element count (arranged on a
    sqrt(N) x sqrt(N) grid) and n_per_block must be 1.  For the Rydberg
    non-UPA layout, n_blocks square blocks sit at block_spacing and each
    hosts n_per_block axial sub-elements at intra_spacing.  Spacings are
    in wavelengths.
    """

    kind: ArrayKind
    n_blocks: int
    n_per_block: int = 1
    block_spacing: float = 0.5
    intra_spacing: float = 0.05

    def __post_init__(self) -> None:
        if self.n_blocks <= 0 or self.n_per_block <= 0:
            raise GeometryError("n_blocks and n_per_block must be positive")
        _square_side(self.n_blocks)
        if self.kind is ArrayKind.UPA and self.n_per_block != 1:
            raise GeometryError("UPA geometry requires n_per_block = 1")
        if self.block_spacing <= 0:
            raise GeometryError("block_spacing must be > 0")
        if self.intra_spacing < 0:
            raise GeometryError("intra_spacing must be >= 0")

    @property
    def n_elements(self) -> int:
        return self.n_blocks * self.n_per_block


def upa_response(azimuth, elevation, n_elements: int,
                 spacing: float) -> np.ndarray:
    """Unit-norm steering vector of a square uniform planar array.

    Element (q1, q2) on the sqrt(N) x sqrt(N) grid contributes phase
    2*pi*spacing*(q1*sin(az)*sin(el) + q2*cos(el)); the flat index is
    q1*sqrt(N) + q2 (q2 fastest): the outer product of the two per-axis
    responses, 2*sqrt(N) exponentials per angle pair.

    Parameters
    ----------
    azimuth, elevation : float or array of shape (L,)
        Angles in radians.
    n_elements : int
        Total element count, must be a perfect square.
    spacing : float
        Inter-element spacing in wavelengths.
    """
    if spacing <= 0:
        raise GeometryError("spacing must be > 0")
    side = _square_side(n_elements)
    k = 2.0 * np.pi * spacing * np.arange(side)
    x, y = np.broadcast_arrays(np.sin(azimuth) * np.sin(elevation), np.cos(elevation))
    e1 = np.exp(1j * np.multiply.outer(k, x)) / side
    e2 = np.exp(1j * np.multiply.outer(k, y))
    return (e1[:, None] * e2[None]).reshape((n_elements,) + x.shape)


def axial_response(elevation, n_sub: int, spacing: float) -> np.ndarray:
    """Unit-norm response of the axial sub-elements inside one block.

    Sub-element k (k = 0..n_sub-1) sits at a symmetric offset
    (k - (n_sub-1)/2) * spacing along the block axis.
    """
    offsets = np.arange(n_sub) - (n_sub - 1) / 2.0
    phase = np.multiply.outer(2.0 * np.pi * spacing * offsets, np.cos(elevation))
    return np.exp(1j * phase) / np.sqrt(n_sub)


def rydberg_response(azimuth, elevation,
                     geometry: ArrayGeometry) -> np.ndarray:
    """Steering vector of the non-UPA Rydberg layout.

    Kronecker product of the per-block UPA response (outer index) with the
    axial sub-element response (inner index), taken column by column for
    angle arrays.  Unit Euclidean norm.
    """
    if geometry.kind is not ArrayKind.RYDBERG_NON_UPA:
        raise GeometryError(
            f"rydberg_response requires RYDBERG_NON_UPA geometry, got {geometry.kind}")
    block = upa_response(azimuth, elevation, geometry.n_blocks,
                         geometry.block_spacing)
    axial = axial_response(elevation, geometry.n_per_block,
                           geometry.intra_spacing)
    return (block[:, None] * axial[None]).reshape((-1,) + block.shape[1:])


def array_response(geometry: ArrayGeometry, azimuth,
                   elevation) -> np.ndarray:
    """Steering vector for either geometry kind."""
    if geometry.kind is ArrayKind.UPA:
        return upa_response(azimuth, elevation, geometry.n_blocks,
                            geometry.block_spacing)
    return rydberg_response(azimuth, elevation, geometry)
