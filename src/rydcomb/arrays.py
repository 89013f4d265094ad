"""Array geometries and steering (array response) vectors.

A receive array is a square grid of Cell & LO blocks, each hosting
n_per_block closely spaced axial sub-elements; with one sub-element per
block it is the plain uniform planar array (UPA).  All response vectors
are unit-norm.

Every response function broadcasts over its angles: scalar angles give one
steering vector, length-L angle arrays give an N x L steering matrix whose
column p is the response to the p-th angle pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .architecture import _is_int
from .errors import GeometryError


def _square_side(n: int) -> int:
    if not (_is_int(n) and n > 0):
        raise GeometryError(f"element count {n!r} is not a positive integer")
    m = math.isqrt(n)
    if m * m != n:
        raise GeometryError(f"element count {n} is not a perfect square")
    return m


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical layout of a receive array.

    n_blocks square blocks sit on a sqrt(n_blocks) x sqrt(n_blocks) grid at
    block_spacing, and each hosts n_per_block axial sub-elements at
    intra_spacing; n_per_block = 1 is the UPA.  Spacings are in
    wavelengths.
    """

    n_blocks: int
    n_per_block: int = 1
    block_spacing: float = 0.5
    intra_spacing: float = 0.05

    def __post_init__(self) -> None:
        if not all(_is_int(n) and n > 0
                   for n in (self.n_blocks, self.n_per_block)):
            raise GeometryError("n_blocks and n_per_block must be positive "
                                "integers")
        _square_side(self.n_blocks)
        if not 0 < self.block_spacing < np.inf:
            raise GeometryError("block_spacing must be finite and > 0")
        if not 0 <= self.intra_spacing < np.inf:
            raise GeometryError("intra_spacing must be finite and >= 0")

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
    if not 0 < spacing < np.inf:
        raise GeometryError("spacing must be finite and > 0")
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
    if not (_is_int(n_sub) and n_sub > 0):
        raise GeometryError(f"n_sub={n_sub!r} is not a positive integer")
    offsets = np.arange(n_sub) - (n_sub - 1) / 2.0
    phase = np.multiply.outer(2.0 * np.pi * spacing * offsets, np.cos(elevation))
    return np.exp(1j * phase) / np.sqrt(n_sub)


def array_response(geometry: ArrayGeometry, azimuth, elevation,
                   block: Optional[np.ndarray] = None) -> np.ndarray:
    """Steering vector of a receive geometry.

    Kronecker product of the per-block UPA response (outer index) with the
    axial sub-element response (inner index), taken column by column for
    angle arrays.  With one sub-element the axial factor is exactly 1, so
    this is the UPA response over the blocks.  Unit Euclidean norm.
    ``block`` passes in that UPA response to the same angles, so that
    geometries with equal n_blocks and block_spacing can share it.
    """
    if block is None:
        block = upa_response(azimuth, elevation, geometry.n_blocks,
                             geometry.block_spacing)
    axial = axial_response(elevation, geometry.n_per_block,
                           geometry.intra_spacing)
    return (block[:, None] * axial[None]).reshape((-1,) + block.shape[1:])
