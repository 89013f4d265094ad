"""Combiner design: alternating minimization and the direct proportional solver.

Both solvers minimize ||W_opt - W_LO W_LC W_BB||_F over the block LO phases
(continuous or B-bit) and the unconstrained digital combiner.  When the APD
group size divides the LO block size the problem decouples per laser chain
and the optimum is reached in closed form with any phase choice; otherwise
the alternating scheme converges monotonically to a fixed point.  One
kernel runs both over a stack of targets; the single-target solvers are
batches of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from .architecture import (TWO_PI, ReuseArchitecture, check_phases,
                           is_proportional)
from .channel import LowRankChannel
from .errors import ArchitectureError, NumericError

SOLVE_METHODS = ("auto", "altmin", "direct")  # accepted by solve_batch


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
    residual: float
    iterations: int
    method: SolveMethod
    converged: bool
    residual_history: np.ndarray = field(repr=False)


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


def optimal_phase(block_target: np.ndarray,
                  block_product: np.ndarray) -> Union[float, np.ndarray]:
    """Globally optimal rotation phase for min ||Y - e^{j phi} X||_F.

    Returns arg Tr[X^H Y] in [0, 2pi); 0 when the trace vanishes (the
    objective is then independent of the phase) and for a phase within
    1e-12 below 2pi.  Leading axes are batch axes: one phase per trailing
    matrix pair, and a single pair gives a float.  This is the phase
    half-step of alternating minimization.
    """
    y = np.asarray(block_target)
    x = np.asarray(block_product)
    if y.shape != x.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {x.shape}")
    t = np.sum(np.conj(x) * y, axis=(-2, -1))
    phi = np.angle(t) % TWO_PI
    phi = np.where((t == 0) | (TWO_PI - phi < 1e-12), 0.0, phi)
    return float(phi) if phi.ndim == 0 else phi


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
    n-th adder group.  Leading axes of u (..., N_r) and w_opt
    (..., N_r, N_s) are batch axes.
    """
    prod = np.conj(u)[..., None] * w_opt
    groups = prod.reshape(*prod.shape[:-2], -1, apd_depth, prod.shape[-1])
    return groups.sum(axis=-2) / apd_depth


def _residual(target: np.ndarray, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """||target - diag(u) rows||_F per sample of a stack."""
    return np.linalg.norm(target - u[..., None] * rows, axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class SolutionBatch:
    """Solutions for a stack of combining targets on one architecture.

    Row i equals the lone solve of target i.  ``history`` has one column
    per allowed iteration (one for the direct solver), padded after a
    sample stops with its final residual.
    """

    phases: np.ndarray = field(repr=False)
    w_bb: np.ndarray = field(repr=False)
    history: np.ndarray = field(repr=False)
    iterations: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    method: SolveMethod

    def solution(self, i: int) -> CombinerSolution:
        history = self.history[i, :max(int(self.iterations[i]), 1)]
        return CombinerSolution(
            phases=self.phases[i], w_bb=self.w_bb[i],
            residual=float(history[-1]), iterations=int(self.iterations[i]),
            method=self.method, converged=bool(self.converged[i]),
            residual_history=history)


def _validate_target(arch: ReuseArchitecture, w_opt: np.ndarray) -> np.ndarray:
    w_opt = np.asarray(w_opt, dtype=complex)
    if w_opt.ndim != 3 or w_opt.shape[1] != arch.n_r:
        raise ValueError(f"combining target must be ({arch.n_r}, n_streams), "
                         f"got {w_opt.shape[1:]}")
    if w_opt.shape[2] > arch.n_chains:
        raise ArchitectureError(
            f"n_streams={w_opt.shape[2]} exceeds chain count {arch.n_chains}")
    return w_opt


def _solve(arch: ReuseArchitecture, w_opt: np.ndarray, phases: np.ndarray,
           config: Optional[OptimizerConfig] = None) -> SolutionBatch:
    """The one solver kernel, over stacked targets (B, N_r, N_s) from
    block phases (B, n_blocks).

    The fixed intra-block offsets are folded into the target once, so
    W_BB, the block traces and the residual see only the block rotations
    exp(j*phases); the rotation of one residual is the next W_BB's.
    Without a config this is the direct solver: one W_BB half-step at the
    given phases.  Otherwise it alternates; each sample stops on its own
    test and is frozen from then on.
    """
    n_b, _, n_s = w_opt.shape
    target = np.conj(np.exp(1j * arch.intra_offsets.ravel()))[:, None] * w_opt
    u = np.repeat(np.exp(1j * phases), arch.lo_depth, axis=-1)
    if config is None:
        if not is_proportional(arch):
            raise ArchitectureError(f"apd_depth={arch.apd_depth} does not "
                                    f"divide lo_depth={arch.lo_depth}")
        w_bb = update_wbb(u, target, arch.apd_depth)
        res = _residual(target, u, np.repeat(w_bb, arch.apd_depth, axis=-2))
        return SolutionBatch(phases=phases, w_bb=w_bb, history=res[:, None],
                             iterations=np.zeros(n_b, dtype=int),
                             converged=np.ones(n_b, dtype=bool),
                             method=SolveMethod.DIRECT_PROPORTIONAL)

    cap = config.max_iterations
    blocks = (arch.n_blocks, arch.lo_depth, n_s)
    out_phases = np.empty_like(phases)
    out_wbb = np.empty((n_b, arch.n_chains, n_s), dtype=complex)
    history = np.empty((n_b, cap))
    iterations = np.full(n_b, cap)
    converged = np.zeros(n_b, dtype=bool)
    live = np.arange(n_b)
    prev_sq = None
    for k in range(cap):
        w_bb = update_wbb(u, target, arch.apd_depth)
        rows = np.repeat(w_bb, arch.apd_depth, axis=-2)
        phases = optimal_phase(target.reshape(-1, *blocks),
                               rows.reshape(-1, *blocks))
        if arch.resolution_bits is not None:
            phases = quantize_phase(phases, arch.resolution_bits)
        u = np.repeat(np.exp(1j * phases), arch.lo_depth, axis=-1)
        res = _residual(target, u, rows)
        history[live, k] = res
        sq = res * res
        done = (np.zeros(live.size, dtype=bool) if prev_sq is None
                else np.abs(prev_sq - sq) < config.epsilon)
        stop = done | (k == cap - 1)
        if stop.any():
            idx = live[stop]
            out_phases[idx] = phases[stop]
            out_wbb[idx] = w_bb[stop]
            history[idx, k + 1:] = res[stop, None]
            iterations[idx] = k + 1
            converged[idx] = done[stop]
            keep = ~stop
            live, target, u, sq = live[keep], target[keep], u[keep], sq[keep]
            if not live.size:
                break
        prev_sq = sq
    return SolutionBatch(phases=out_phases, w_bb=out_wbb, history=history,
                         iterations=iterations, converged=converged,
                         method=SolveMethod.ALT_MIN)


def solve_batch(arch: ReuseArchitecture, w_opt: np.ndarray,
                config: Optional[OptimizerConfig],
                rngs: Iterable[np.random.Generator],
                method: str) -> SolutionBatch:
    """Solve for a stack of combining targets (B, N_r, N_s): the direct
    solver when ``method`` is 'direct', or 'auto' on proportional reuse;
    else alternating minimization with sample i's initial phases drawn
    from the i-th generator of ``rngs``, which only this branch reads.

    Alternating minimization draws its initial phases uniformly on
    [0, 2pi) and leaves them unquantized even under finite resolution:
    every recorded iterate comes after a quantized phase update, so the
    output is always feasible, and the residual sequence is monotone
    nonincreasing.  A sample stops when consecutive squared residuals
    differ by less than epsilon, or at the iteration cap (flagged as
    unconverged), and keeps its last iterate.
    """
    if method not in SOLVE_METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    w_opt = _validate_target(arch, w_opt)
    if method == "direct" or (method == "auto" and is_proportional(arch)):
        return direct_solve_proportional(arch, w_opt)
    phases = np.array([rng.uniform(0.0, TWO_PI, arch.n_blocks) for rng in rngs])
    if len(phases) != len(w_opt):
        raise ValueError(f"{len(phases)} generators for {len(w_opt)} targets")
    return _solve(arch, w_opt, phases, config or OptimizerConfig())


def alternating_minimize(arch: ReuseArchitecture, w_opt: np.ndarray,
                         config: Optional[OptimizerConfig] = None,
                         rng: Optional[np.random.Generator] = None) -> CombinerSolution:
    """Alternate between the closed-form digital combiner and per-block
    optimal (quantized) phases; see ``solve_batch``.  Returns the last
    iterate."""
    return solve_batch(arch, np.asarray(w_opt)[None], config,
                       [rng or np.random.default_rng()], "altmin").solution(0)


def direct_solve_proportional(arch: ReuseArchitecture, w_opt: np.ndarray,
                              phases: Optional[np.ndarray] = None
                              ) -> Union[CombinerSolution, SolutionBatch]:
    """Non-iterative solver for proportional reuse (apd_depth | lo_depth).

    Each adder group lies inside one LO block, so the pseudoinverse
    decomposes into per-chain row solves and the block phase is absorbed by
    the digital row: any feasible phase choice attains the same residual,
    which equals the continuous-phase alternating-minimization optimum.
    Defaults to all-zero phases (a grid point for every resolution).  A
    stack of targets (B, N_r, N_s) gives a ``SolutionBatch``, every sample
    at the same phases.
    """
    w_opt = np.asarray(w_opt)
    phases = check_phases(arch, np.zeros(arch.n_blocks) if phases is None
                          else phases)
    batch = _validate_target(arch, w_opt if w_opt.ndim == 3 else w_opt[None])
    sol = _solve(arch, batch, np.tile(phases, (len(batch), 1)))
    return sol if w_opt.ndim == 3 else sol.solution(0)

