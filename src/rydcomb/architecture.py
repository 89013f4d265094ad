"""Structured analog combiner for the four LO/APD reuse architectures.

The analog stage factors as a block-diagonal LO phase matrix times a 0/1
fiber-combiner adjacency: one adjustable phase per Cell & LO block (plus
fixed intra-block offsets), and adders that sum apd_depth probe signals
into each laser chain.  All four dedicated/shared combinations are
instances of the same parameterization (depth 1 = dedicated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArchitectureError

TWO_PI = 2.0 * np.pi


def default_intra_offsets(n_blocks: int, lo_depth: int,
                          intra_spacing: float = 0.05) -> np.ndarray:
    """Fixed intra-block phase offsets from the symmetric sub-element
    positions: 2*pi*intra_spacing*(k - (lo_depth-1)/2), identical per block."""
    k = np.arange(lo_depth) - (lo_depth - 1) / 2.0
    row = TWO_PI * intra_spacing * k
    return np.tile(row, (n_blocks, 1))


@dataclass(frozen=True, eq=False)
class ReuseArchitecture:
    """Reuse configuration of the receive array.

    lo_depth antennas share each local oscillator (1 = LO-Dedicated) and
    apd_depth probe signals share each photodiode (1 = APD-Dedicated).
    resolution_bits=None means continuous LO phases; an integer B restricts
    phases to the 2^B-point grid {2*pi*b/2^B}.
    """

    n_blocks: int
    lo_depth: int = 1
    apd_depth: int = 1
    intra_offsets: Optional[np.ndarray] = None
    resolution_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_blocks <= 0 or self.lo_depth <= 0 or self.apd_depth <= 0:
            raise ArchitectureError("depths and block count must be positive")
        if self.n_r % self.apd_depth != 0:
            raise ArchitectureError(
                f"apd_depth={self.apd_depth} does not divide N_r={self.n_r}")
        if self.resolution_bits is not None and self.resolution_bits < 1:
            raise ArchitectureError("resolution_bits must be >= 1 (or None)")
        if self.intra_offsets is None:
            offs = default_intra_offsets(self.n_blocks, self.lo_depth)
        else:
            offs = np.asarray(self.intra_offsets, dtype=float)
        if offs.shape != (self.n_blocks, self.lo_depth):
            raise ArchitectureError(
                f"intra_offsets shape {offs.shape} != ({self.n_blocks}, {self.lo_depth})")
        if self.lo_depth == 1 and np.any(offs != 0.0):
            raise ArchitectureError("lo_depth=1 requires all intra offsets 0")
        offs = offs.copy()
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


def phase_grid(bits: int) -> np.ndarray:
    """Feasible phases under B-bit resolution: {2*pi*b/2^B, b=0..2^B-1}."""
    return TWO_PI * np.arange(2 ** bits) / (2 ** bits)


def _check_phases(arch: ReuseArchitecture, phases: np.ndarray) -> np.ndarray:
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (arch.n_blocks,):
        raise ArchitectureError(
            f"phases shape {phases.shape} != ({arch.n_blocks},)")
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
    fixed intra-block offset, in block-major order."""
    phases = _check_phases(arch, phases)
    return np.repeat(phases, arch.lo_depth) + arch.intra_offsets.ravel()


def compose_wrf(arch: ReuseArchitecture, phases: np.ndarray) -> np.ndarray:
    """Analog combiner W_LO @ W_LC: N_r x N_chains, exactly apd_depth
    unit-modulus nonzeros per column, so W^H W = apd_depth * I."""
    u = np.exp(1j * diagonal_phases(arch, phases))
    return u[:, None] * build_wlc(arch.n_r, arch.apd_depth)

