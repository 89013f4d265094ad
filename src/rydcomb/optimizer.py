"""Combiner design: alternating minimization and the direct proportional solver.

Both solvers minimize ||W_opt - W_LO W_LC W_BB||_F over the block LO phases
(continuous or B-bit) and the unconstrained digital combiner.  When the APD
group size divides the LO block size the problem decouples per laser chain
and the optimum is reached in closed form with any phase choice; otherwise
the alternating scheme converges monotonically to a fixed point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .architecture import (TWO_PI, ReuseArchitecture, diagonal_phases,
                           is_proportional)
from .channel import LowRankChannel
from .errors import ArchitectureError, NumericError

class SolveMethod(enum.Enum):
    ALT_MIN = "altmin"
    DIRECT_PROPORTIONAL = "direct"


@dataclass(frozen=True)
class OptimizerConfig:
    """Stopping threshold on the difference of consecutive squared residuals,
    plus a safety cap on iterations."""

    epsilon: float = 1e-4
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class DigitalReference:
    """Fully digital optimum derived from the channel SVD: combining target
    w_opt (left singular vectors), ideal precoder f_opt (right singular
    vectors), and all singular values in descending order."""

    w_opt: np.ndarray = field(repr=False)
    f_opt: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class CombinerSolution:
    phases: np.ndarray = field(repr=False)
    w_bb: np.ndarray = field(repr=False)
    residual: float = 0.0
    iterations: int = 0
    method: SolveMethod = SolveMethod.ALT_MIN
    converged: bool = True
    residual_history: np.ndarray = field(default=None, repr=False)


def _fix_column_phases(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive.
    Makes the SVD basis reproducible across runs and platforms."""
    out = m.copy()
    for k in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, k])))
        pivot = out[idx, k]
        if pivot != 0:
            out[:, k] *= np.conj(pivot) / np.abs(pivot)
    return out


def _factored_svd(h: LowRankChannel, n_streams: int):
    """Leading singular triplets of H = A_rx diag(g) A_tx^H from its factors.

    With A_rx = Q_rx R_rx and A_tx = Q_tx R_tx, H = Q_rx C Q_tx^H for the
    small core C = R_rx diag(g) R_tx^H, so the singular vectors of C mapped
    through Q_rx and Q_tx are those of H.
    """
    q_rx, r_rx = np.linalg.qr(h.a_rx)
    core = (r_rx * h.gains) @ h.transmit.r.conj().T
    u, s, vh = np.linalg.svd(core, full_matrices=False)
    return q_rx @ u[:, :n_streams], s, vh[:n_streams] @ h.transmit.q.conj().T


def optimal_digital_combiner(h: Union[np.ndarray, LowRankChannel],
                             n_streams: int) -> DigitalReference:
    """SVD-based fully digital reference for a channel matrix, dense or
    factored.  A factored channel has at most L nonzero singular values;
    the rest are returned as exact zeros."""
    if isinstance(h, LowRankChannel):
        parts = (h.a_rx, h.gains, h.transmit.steering)
    else:
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        parts = (h,)
    if not (1 <= n_streams <= min(h.shape)):
        raise ValueError(
            f"n_streams={n_streams} must be in [1, min{h.shape}]")
    if not all(np.all(np.isfinite(p)) for p in parts):
        raise NumericError("channel matrix contains non-finite entries")
    try:
        if isinstance(h, LowRankChannel):
            u, s, vh = _factored_svd(h, n_streams)
        else:
            u, s, vh = np.linalg.svd(h, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    if n_streams > s.size:
        raise ValueError(
            f"n_streams={n_streams} exceeds the channel rank bound {s.size}")
    return DigitalReference(
        w_opt=_fix_column_phases(u[:, :n_streams]),
        f_opt=_fix_column_phases(vh[:n_streams].conj().T),
        singular_values=np.concatenate([s, np.zeros(min(h.shape) - s.size)]))


def optimal_phase(block_target: np.ndarray, block_product: np.ndarray) -> float:
    """Globally optimal rotation phase for min ||Y - e^{j phi} X||_F.

    Returns arg Tr[X^H Y] in [0, 2pi); 0 when the trace vanishes (the
    objective is then independent of the phase).
    """
    y = np.asarray(block_target)
    x = np.asarray(block_product)
    if y.shape != x.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {x.shape}")
    t = complex(np.sum(np.conj(x) * y))
    if t == 0:
        return 0.0
    phi = float(np.angle(t) % TWO_PI)
    return 0.0 if TWO_PI - phi < 1e-12 else phi


def quantize_phase(phase: Union[float, np.ndarray], bits: int):
    """Nearest B-bit grid phase under wrapped (circular) distance,
    i.e. the feasible phase maximizing cos(grid - phase).  Works
    elementwise on arrays; a scalar phase gives a float."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    n_levels = 2 ** bits
    step = TWO_PI / n_levels
    q = step * (np.round(np.asarray(phase, dtype=float) / step).astype(int)
                % n_levels)
    return float(q) if q.ndim == 0 else q


def update_wbb(u: np.ndarray, w_opt: np.ndarray, apd_depth: int) -> np.ndarray:
    """Least-squares digital combiner for the analog stage with per-antenna
    phase factors u = exp(j*diagonal_phases).

    Its columns are orthogonal with squared norm apd_depth, so the
    pseudoinverse reduces to a scaled adjoint: row n of
    W_BB = W_RF^H W_opt / apd_depth is the mean of conj(u)*W_opt over the
    n-th adder group.
    """
    n_chains = u.size // apd_depth
    prod = np.conj(u)[:, None] * w_opt
    return prod.reshape(n_chains, apd_depth, -1).sum(axis=1) / apd_depth


def _block_traces(arch: ReuseArchitecture, w_bb: np.ndarray,
                  w_opt: np.ndarray) -> np.ndarray:
    """Per-block trace Tr[X_i^H Y_i] with X_i the offset-rotated rows of
    W_LC @ W_BB and Y_i the matching rows of W_opt."""
    rows = np.repeat(w_bb, arch.apd_depth, axis=0)
    x = np.exp(1j * arch.intra_offsets.ravel())[:, None] * rows
    return (np.conj(x) * w_opt).reshape(arch.n_blocks, -1).sum(axis=1)


def _residual(u: np.ndarray, w_bb: np.ndarray, w_opt: np.ndarray,
              apd_depth: int) -> float:
    approx = u[:, None] * np.repeat(w_bb, apd_depth, axis=0)
    return float(np.linalg.norm(w_opt - approx))


def _validate_target(arch: ReuseArchitecture, w_opt: np.ndarray) -> np.ndarray:
    w_opt = np.asarray(w_opt, dtype=complex)
    if w_opt.ndim != 2 or w_opt.shape[0] != arch.n_r:
        raise ValueError(
            f"combining target must be ({arch.n_r}, n_streams), got {w_opt.shape}")
    if w_opt.shape[1] > arch.n_chains:
        raise ArchitectureError(
            f"n_streams={w_opt.shape[1]} exceeds chain count {arch.n_chains}")
    return w_opt


def alternating_minimize(arch: ReuseArchitecture, w_opt: np.ndarray,
                         config: Optional[OptimizerConfig] = None,
                         rng: Optional[np.random.Generator] = None) -> CombinerSolution:
    """Alternate between the closed-form digital combiner and per-block
    optimal (quantized) phases.

    Initial phases are drawn uniformly on [0, 2pi) and deliberately left
    unquantized even under finite resolution: every recorded iterate comes
    after a quantized phase update, so the output is always feasible, and
    the residual sequence is monotone nonincreasing.  Stops when consecutive
    squared residuals differ by less than epsilon, or at the iteration cap
    (flagged as unconverged).  Either way it returns the last iterate.
    """
    config = config or OptimizerConfig()
    rng = rng or np.random.default_rng()
    w_opt = _validate_target(arch, w_opt)

    offsets_flat = arch.intra_offsets.ravel()
    phases = rng.uniform(0.0, TWO_PI, arch.n_blocks)
    history: list[float] = []
    prev_sq: Optional[float] = None
    converged = False
    w_bb = None

    for _ in range(config.max_iterations):
        u = np.exp(1j * (np.repeat(phases, arch.lo_depth) + offsets_flat))
        w_bb = update_wbb(u, w_opt, arch.apd_depth)
        traces = _block_traces(arch, w_bb, w_opt)
        phases = np.where(np.abs(traces) == 0, 0.0,
                          np.angle(traces) % TWO_PI)
        if arch.resolution_bits is not None:
            phases = quantize_phase(phases, arch.resolution_bits)
        u = np.exp(1j * (np.repeat(phases, arch.lo_depth) + offsets_flat))
        res = _residual(u, w_bb, w_opt, arch.apd_depth)
        history.append(res)
        if prev_sq is not None and abs(prev_sq - res * res) < config.epsilon:
            converged = True
            break
        prev_sq = res * res

    return CombinerSolution(phases=phases, w_bb=w_bb, residual=history[-1],
                            iterations=len(history), method=SolveMethod.ALT_MIN,
                            converged=converged,
                            residual_history=np.asarray(history))


def direct_solve_proportional(arch: ReuseArchitecture, w_opt: np.ndarray,
                              phases: Optional[np.ndarray] = None) -> CombinerSolution:
    """Non-iterative solver for proportional reuse (apd_depth | lo_depth).

    Each adder group lies inside one LO block, so the pseudoinverse
    decomposes into per-chain row solves and the block phase is absorbed by
    the digital row: any feasible phase choice attains the same residual,
    which equals the continuous-phase alternating-minimization optimum.
    Defaults to all-zero phases (a grid point for every resolution).
    """
    if not is_proportional(arch):
        raise ArchitectureError(
            f"apd_depth={arch.apd_depth} does not divide lo_depth={arch.lo_depth}")
    w_opt = _validate_target(arch, w_opt)
    if phases is None:
        phases = np.zeros(arch.n_blocks)
    u = np.exp(1j * diagonal_phases(arch, phases))

    w_bb = update_wbb(u, w_opt, arch.apd_depth)
    res = _residual(u, w_bb, w_opt, arch.apd_depth)
    return CombinerSolution(phases=np.asarray(phases, dtype=float), w_bb=w_bb,
                            residual=res, iterations=0,
                            method=SolveMethod.DIRECT_PROPORTIONAL,
                            converged=True,
                            residual_history=np.asarray([res]))


def solve_combiner(arch: ReuseArchitecture, w_opt: np.ndarray,
                   config: Optional[OptimizerConfig] = None,
                   rng: Optional[np.random.Generator] = None,
                   method: str = "auto") -> CombinerSolution:
    """Dispatch to the direct solver when applicable, else alternate."""
    if method not in ("auto", "altmin", "direct"):
        raise ValueError(f"unknown solver method {method!r}")
    if method == "direct" or (method == "auto" and is_proportional(arch)):
        return direct_solve_proportional(arch, w_opt)
    return alternating_minimize(arch, w_opt, config=config, rng=rng)
