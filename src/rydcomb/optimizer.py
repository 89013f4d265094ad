"""Combiner design: alternating minimization and the direct proportional solver.

Both solvers minimize ||W_opt - W_LO W_LC W_BB||_F over the block LO phases
(continuous or B-bit) and the unconstrained digital combiner.  When the APD
group size divides the LO block size the problem decouples per laser chain
and the optimum is reached in closed form with any phase choice; otherwise
the alternating scheme converges monotonically to a fixed point.  One
kernel runs both over a stack of targets, which may mix architectures
that share the LO block structure; the single-target solvers are batches
of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .architecture import (MAX_RESOLUTION_BITS, TWO_PI, ReuseArchitecture,
                           check_phases, is_proportional)
from .channel import LowRankChannel
from .errors import ArchitectureError, NumericError

SOLVE_METHODS = ("auto", "altmin", "direct")  # accepted by solve_stack


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
    pivot = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    keep = pivot != 0  # a zero column stays as it is
    out = m.copy()
    out[:, keep] *= np.conj(pivot[keep]) / np.abs(pivot[keep])
    return out


def optimal_digital_combiner(h: Union[np.ndarray, LowRankChannel],
                             n_streams: int) -> DigitalReference:
    """SVD-based fully digital reference for a channel matrix, dense or
    factored.  A factored channel has at most L nonzero singular values;
    the rest are returned as exact zeros.  A channel of rank below
    n_streams (by matrix_rank's tolerance) raises NumericError.

    For H = A_rx diag(g) A_tx^H only the R factors of A_rx = Q_rx R_rx and
    A_tx = Q_tx R_tx are formed: H = Q_rx C Q_tx^H has the singular values
    of the core C = R_rx diag(g) R_tx^H = U S V^H, and H f = s w with
    H^H w = s f give w_i = A_rx (g * R_tx^H v_i) / s_i and
    f_i = A_tx (conj(g) * R_rx^H u_i) / s_i.
    """
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
            r_rx = np.linalg.qr(h.a_rx, mode="r")
            u, s, vh = np.linalg.svd((r_rx * h.gains) @ h.transmit.r.conj().T,
                                     full_matrices=False)
        else:
            u, s, vh = np.linalg.svd(h, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    if n_streams > s.size:
        raise ValueError(
            f"n_streams={n_streams} exceeds the channel rank bound {s.size}")
    if s[n_streams - 1] <= max(h.shape) * np.finfo(float).eps * s[0]:
        raise NumericError(f"channel rank below n_streams={n_streams}: "
                           f"singular values {s[:n_streams]}")
    w, f = u[:, :n_streams], vh[:n_streams].conj().T
    if isinstance(h, LowRankChannel):
        w, f = (h.a_rx @ (h.gains[:, None] * (h.transmit.r.conj().T @ f)),
                h.transmit.steering @ (np.conj(h.gains)[:, None] * (r_rx.conj().T @ w)))
        w, f = w / s[:n_streams], f / s[:n_streams]
    return DigitalReference(
        w_opt=_fix_column_phases(w), f_opt=_fix_column_phases(f),
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
    if not 1 <= bits <= MAX_RESOLUTION_BITS:
        raise ValueError(f"bits must be in [1, {MAX_RESOLUTION_BITS}]")
    n_levels = 2 ** bits
    step = TWO_PI / n_levels
    q = step * (np.round(np.asarray(phase, dtype=float) / step).astype(int)
                % n_levels)
    return float(q) if q.ndim == 0 else q


def update_wbb(u: np.ndarray, w_opt: np.ndarray,
               apd_depth: Union[int, np.ndarray]) -> np.ndarray:
    """Least-squares digital combiner for the analog stage with per-antenna
    phase factors u = exp(j*diagonal_phases).

    Its columns are orthogonal with squared norm apd_depth, so the
    pseudoinverse reduces to a scaled adjoint: row n of
    W_BB = W_RF^H W_opt / apd_depth is the mean of conj(u)*W_opt over the
    n-th adder group.  It returns each W_BB repeated to antenna rows,
    W_LC W_BB (..., N_r, N_s).  Leading axes of u (..., N_r) and w_opt
    (..., N_r, N_s) are batch axes; apd_depth is one per sample or one
    for all, and every group is summed the same way.
    """
    prod = np.conj(u)[..., None] * w_opt
    *batch, n_r, n_s = prod.shape
    sizes = np.broadcast_to(apd_depth, batch).ravel()
    groups = np.repeat(sizes, n_r // sizes)
    w_bb = (np.add.reduceat(prod.reshape(-1, n_s), np.cumsum(groups) - groups)
            / groups[:, None])
    return np.repeat(w_bb, groups, axis=0).reshape(prod.shape)


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

    def take(self, rows: Sequence[int]) -> "SolutionBatch":
        return replace(self, **{f: getattr(self, f)[rows] for f in (
            "phases", "w_bb", "history", "iterations", "converged")})


def _validate_target(arch: ReuseArchitecture, w_opt: np.ndarray) -> np.ndarray:
    w_opt = np.asarray(w_opt, dtype=complex)
    if w_opt.ndim != 3 or w_opt.shape[1] != arch.n_r:
        raise ValueError(f"combining target must be ({arch.n_r}, n_streams), "
                         f"got {w_opt.shape[1:]}")
    if w_opt.shape[2] > arch.n_chains:
        raise ArchitectureError(
            f"n_streams={w_opt.shape[2]} exceeds chain count {arch.n_chains}")
    return w_opt


def _solve(segments: Sequence[tuple],
           config: Optional[OptimizerConfig] = None) -> list[SolutionBatch]:
    """The one solver kernel, over segments (arch, targets (B_s, N_r, N_s),
    block phases (B_s, n_blocks)) that share n_blocks, lo_depth and
    resolution; one batch per segment.

    The fixed intra-block offsets are folded into the target once, so
    W_BB (as antenna rows W_LC W_BB), the block traces and the residual
    see only the block rotations exp(j*phases); the rotation of one
    residual is the next W_BB's.  Without a config this is the direct
    solver: one W_BB half-step at the given phases.  Otherwise it
    alternates; each sample stops on its own test and is frozen then.
    """
    arch = segments[0][0]
    target = np.concatenate([
        np.conj(np.exp(1j * a.intra_offsets.ravel()))[:, None] * w
        for a, w, _ in segments])
    sizes = [len(w) for _, w, _ in segments]
    apd = np.repeat([a.apd_depth for a, _, _ in segments], sizes)
    phases = np.concatenate([p for _, _, p in segments])
    n_b, _, n_s = target.shape
    u = np.repeat(np.exp(1j * phases), arch.lo_depth, axis=-1)

    def split(phases, rows, history, iterations, converged, method):
        ends = np.cumsum(sizes)
        return [SolutionBatch(
            phases=phases[i:j], history=history[i:j],
            w_bb=np.ascontiguousarray(rows[i:j, ::a.apd_depth]),
            iterations=iterations[i:j], converged=converged[i:j],
            method=method)
            for (a, _, _), i, j in zip(segments, ends - sizes, ends)]

    if config is None:
        rows = update_wbb(u, target, apd)
        return split(phases, rows, _residual(target, u, rows)[:, None],
                     np.zeros(n_b, dtype=int), np.ones(n_b, dtype=bool),
                     SolveMethod.DIRECT_PROPORTIONAL)

    cap = config.max_iterations
    blocks = (arch.n_blocks, arch.lo_depth, n_s)
    out_phases = np.empty_like(phases)
    out_rows = np.empty_like(target)
    history = np.empty((n_b, cap))
    iterations = np.full(n_b, cap)
    converged = np.zeros(n_b, dtype=bool)
    live = np.arange(n_b)
    prev_sq = None
    for k in range(cap):
        rows = update_wbb(u, target, apd)
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
            out_rows[idx] = rows[stop]
            history[idx, k + 1:] = res[stop, None]
            iterations[idx] = k + 1
            converged[idx] = done[stop]
            keep = ~stop
            live, target, u, sq = live[keep], target[keep], u[keep], sq[keep]
            apd = apd[keep]
            if not live.size:
                break
        prev_sq = sq
    return split(out_phases, out_rows, history, iterations, converged,
                 SolveMethod.ALT_MIN)


def solve_stack(segments: Sequence[tuple], config: Optional[OptimizerConfig]
                ) -> list[SolutionBatch]:
    """Solve segments (arch, targets (B_s, N_r, N_s), generators, method),
    one batch per segment in input order; every row equals the lone solve
    of its target.

    A segment runs the direct solver when ``method`` is 'direct', or 'auto'
    on proportional reuse; else alternating minimization with sample i's
    initial phases drawn from its i-th generator, which only this branch
    reads.  Alternating segments that share n_blocks, lo_depth and
    resolution_bits run in one kernel loop.

    Alternating minimization draws its initial phases uniformly on
    [0, 2pi) and leaves them unquantized even under finite resolution:
    every recorded iterate comes after a quantized phase update, so the
    output is always feasible, and the residual sequence is monotone
    nonincreasing.  A sample stops when consecutive squared residuals
    differ by less than epsilon, or at the iteration cap (flagged as
    unconverged), and keeps its last iterate.
    """
    out: list[Optional[SolutionBatch]] = [None] * len(segments)
    stacks: dict[tuple, list] = {}
    for i, (arch, w_opt, rngs, method) in enumerate(segments):
        if method not in SOLVE_METHODS:
            raise ValueError(f"unknown solver method {method!r}")
        w_opt = _validate_target(arch, w_opt)
        if method == "direct" or (method == "auto" and is_proportional(arch)):
            out[i] = direct_solve_proportional(arch, w_opt)
            continue
        phases = np.array([rng.uniform(0.0, TWO_PI, arch.n_blocks)
                           for rng in rngs])
        if len(phases) != len(w_opt):
            raise ValueError(f"{len(phases)} generators for {len(w_opt)} "
                             "targets")
        stacks.setdefault((arch.n_blocks, arch.lo_depth, arch.resolution_bits),
                          []).append((i, (arch, w_opt, phases)))
    for stack in stacks.values():
        solved = _solve([s for _, s in stack], config or OptimizerConfig())
        for (i, _), sol in zip(stack, solved):
            out[i] = sol
    return out


def alternating_minimize(arch: ReuseArchitecture, w_opt: np.ndarray,
                         config: Optional[OptimizerConfig] = None,
                         rng: Optional[np.random.Generator] = None) -> CombinerSolution:
    """Alternate between the closed-form digital combiner and per-block
    optimal (quantized) phases; see ``solve_stack``.  Returns the last
    iterate."""
    return solve_stack([(arch, np.asarray(w_opt)[None],
                         [rng or np.random.default_rng()], "altmin")],
                       config)[0].solution(0)


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
    if not is_proportional(arch):
        raise ArchitectureError(f"apd_depth={arch.apd_depth} does not "
                                f"divide lo_depth={arch.lo_depth}")
    w_opt = np.asarray(w_opt)
    phases = check_phases(arch, np.zeros(arch.n_blocks) if phases is None
                          else phases)
    batch = _validate_target(arch, w_opt if w_opt.ndim == 3 else w_opt[None])
    sol = _solve([(arch, batch, np.tile(phases, (len(batch), 1)))])[0]
    return sol if w_opt.ndim == 3 else sol.solution(0)
