"""Structured analog combiner for the four LO/APD reuse architectures.

The analog stage factors as a block-diagonal LO phase matrix times a 0/1
fiber-combiner adjacency: one adjustable phase per Cell & LO block (plus
fixed intra-block offsets), and adders that sum apd_depth probe signals
into each laser chain.  All four dedicated/shared combinations are
instances of the same parameterization (depth 1 = dedicated).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ArchitectureError

TWO_PI = 2.0 * np.pi
# Past 52 bits the 2^B phase grid is finer than the spacing of doubles near 2pi
MAX_RESOLUTION_BITS = 52


def _is_int(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ReuseArchitecture:
    """Reuse configuration of the receive array.

    lo_depth antennas share each local oscillator (1 = LO-Dedicated) and
    apd_depth probe signals share each photodiode (1 = APD-Dedicated).
    The fixed intra-block LO offsets follow from the symmetric sub-element
    positions, 2*pi*intra_spacing*(k - (lo_depth-1)/2), identical per
    block.  resolution_bits=None means continuous LO phases; an integer B
    restricts phases to the 2^B-point grid {2*pi*b/2^B}.
    """

    n_blocks: int
    lo_depth: int = 1
    apd_depth: int = 1
    intra_spacing: float = 0.05
    resolution_bits: Optional[int] = None
    intra_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(_is_int(n) and n > 0
                   for n in (self.n_blocks, self.lo_depth, self.apd_depth)):
            raise ArchitectureError(
                "depths and block count must be positive integers")
        if self.n_r % self.apd_depth != 0:
            raise ArchitectureError(
                f"apd_depth={self.apd_depth} does not divide N_r={self.n_r}")
        bits = self.resolution_bits
        if bits is not None and not _is_int(bits):
            raise ArchitectureError("resolution_bits must be an integer "
                                    "(or None)")
        if bits is not None and not 1 <= bits <= MAX_RESOLUTION_BITS:
            raise ArchitectureError(f"resolution_bits must be in "
                                    f"[1, {MAX_RESOLUTION_BITS}] (or None)")
        if not 0 <= self.intra_spacing < np.inf:
            raise ArchitectureError("intra_spacing must be finite and >= 0")
        k = np.arange(self.lo_depth) - (self.lo_depth - 1) / 2.0
        offs = np.tile(TWO_PI * self.intra_spacing * k, (self.n_blocks, 1))
        offs.flags.writeable = False
        object.__setattr__(self, "intra_offsets", offs)

    @property
    def n_r(self) -> int:
        return self.n_blocks * self.lo_depth

    @property
    def n_chains(self) -> int:
        return self.n_r // self.apd_depth


def is_proportional(arch: ReuseArchitecture) -> bool:
    """True when every fiber-combiner group lies inside one Cell & LO block,
    i.e. apd_depth divides lo_depth.  LO phases are then fully compensable
    in digital baseband."""
    return arch.lo_depth % arch.apd_depth == 0


def check_bits(bits) -> None:
    """Reject a resolution that is not an integer (a bool is not) in
    [1, MAX_RESOLUTION_BITS]."""
    if not (_is_int(bits) and 1 <= bits <= MAX_RESOLUTION_BITS):
        raise ValueError(
            f"bits must be an integer in [1, {MAX_RESOLUTION_BITS}]")


def phase_grid(bits: int) -> np.ndarray:
    """Feasible phases under B-bit resolution: {2*pi*b/2^B, b=0..2^B-1}."""
    check_bits(bits)
    return TWO_PI * np.arange(2 ** bits) / (2 ** bits)


def check_phases(arch: ReuseArchitecture, phases: np.ndarray) -> np.ndarray:
    """One block phase per block, on the resolution grid if there is one.
    Leading axes are batch axes."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1:] != (arch.n_blocks,):
        raise ArchitectureError(
            f"phases shape {phases.shape} != (..., {arch.n_blocks})")
    if not np.all(np.isfinite(phases)):
        raise ArchitectureError("phases must be finite")
    if arch.resolution_bits is not None:
        step = TWO_PI / (2 ** arch.resolution_bits)
        dist = np.abs(phases / step - np.round(phases / step))
        if np.any(dist * step > 1e-9):
            raise ArchitectureError(
                f"phases not on the {2 ** arch.resolution_bits}-point grid")
    return phases


def build_wlc(n_r: int, apd_depth: int) -> np.ndarray:
    """0/1 fiber-combiner adjacency: N_r x N_chains block stack of all-ones
    columns; the identity when apd_depth=1."""
    if n_r <= 0 or apd_depth <= 0 or n_r % apd_depth != 0:
        raise ArchitectureError(
            f"apd_depth={apd_depth} does not divide n_r={n_r}")
    return np.kron(np.eye(n_r // apd_depth), np.ones((apd_depth, 1)))


def diagonal_phases(arch: ReuseArchitecture, phases: np.ndarray) -> np.ndarray:
    """Length-N_r vector of total per-antenna LO phases: block phase plus
    fixed intra-block offset, in block-major order.  Leading axes of the
    block phases (..., n_blocks) are batch axes."""
    phases = check_phases(arch, phases)
    return (np.repeat(phases, arch.lo_depth, axis=-1)
            + arch.intra_offsets.ravel())


def compose_wrf(arch: ReuseArchitecture, phases: np.ndarray) -> np.ndarray:
    """Analog combiner W_LO @ W_LC: N_r x N_chains, exactly apd_depth
    unit-modulus nonzeros per column, so W^H W = apd_depth * I."""
    u = np.exp(1j * diagonal_phases(arch, phases))
    return u[:, None] * build_wlc(arch.n_r, arch.apd_depth)

