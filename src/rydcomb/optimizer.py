"""Combiner design: alternating minimization and the direct proportional solver.

Both solvers minimize ||W_opt - W_LO W_LC W_BB||_F over the block LO phases
(continuous or B-bit) and the unconstrained digital combiner.  When the APD
group size divides the LO block size the problem decouples per laser chain
and the optimum is reached in closed form with any phase choice; otherwise
the alternating scheme converges monotonically to a fixed point.  One
kernel, ``_solve``, holds the only form of each half-step and runs both
solvers over a stack of targets, which may mix architectures that share
the LO block structure; the single-target solvers are batches of one.
``validate`` checks one direct and one alternating pass of it.  The module
imports nothing from ``channel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .architecture import (TWO_PI, ReuseArchitecture, _is_int, check_bits,
                           is_proportional)
from .errors import ArchitectureError

MAX_ITERATIONS = 10_000  # the kernel keeps a history column per iteration


@dataclass(frozen=True)
class OptimizerConfig:
    """Stopping threshold on the difference of consecutive squared residuals,
    plus a safety cap on iterations."""

    epsilon: float = 1e-4
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and > 0")
        if not (_is_int(self.max_iterations)
                and 1 <= self.max_iterations <= MAX_ITERATIONS):
            raise ValueError(f"max_iterations must be an integer in "
                             f"[1, {MAX_ITERATIONS}]")


@dataclass(frozen=True, eq=False)
class CombinerSolution:
    phases: np.ndarray = field(repr=False)
    w_bb: np.ndarray = field(repr=False)
    residual: float
    iterations: int  # 0 for a direct pass
    converged: bool
    residual_history: np.ndarray = field(repr=False)


def _trace_sum(p: np.ndarray) -> np.ndarray:
    """Sum over the last axis, as np.sum adds it.  numpy adds fewer than 4
    complex terms one by one, so slice adds in order give the same bits
    (up to the sign of a zero) and are much faster on a short axis."""
    if not 0 < p.shape[-1] < 4:
        return p.sum(-1)
    t = p[..., 0].copy()
    for i in range(1, p.shape[-1]):
        t += p[..., i]
    return t


def _trace_phase(t: np.ndarray) -> np.ndarray:
    """The phi minimizing ||Y - e^{j phi} X||_F from t = Tr[X^H Y]: arg t in
    [0, 2pi), and 0 where t = 0 or arg t lies within 1e-12 below 2pi."""
    phi = np.angle(t) % TWO_PI
    return np.where((t == 0) | (TWO_PI - phi < 1e-12), 0.0, phi)


def _phase_level(phase: np.ndarray, bits: int) -> np.ndarray:
    """Index k of the nearest B-bit grid phase k * 2pi / 2^B."""
    n_levels = 2 ** bits
    return np.round(np.asarray(phase, dtype=float) / (TWO_PI / n_levels)
                    ).astype(int) % n_levels


def quantize_phase(phase: Union[float, np.ndarray], bits: int):
    """Nearest B-bit grid phase under wrapped (circular) distance,
    i.e. the feasible phase maximizing cos(grid - phase).  Works
    elementwise on arrays; a scalar phase gives a float.  A non-finite
    phase, and bits rejected by ``check_bits``, raise ValueError before any
    grid is formed."""
    check_bits(bits)
    if not np.all(np.isfinite(phase)):
        raise ValueError("phases must be finite")
    q = TWO_PI / 2 ** bits * _phase_level(phase, bits)
    return float(q) if q.ndim == 0 else q


def _group_layout(size: np.ndarray, count):
    """How to take the adder-group means of a stack whose sample i has
    count[i] groups (or count for all) of size[i] rows: None when every
    group holds one row, whose mean is that row; the size when every group
    holds the same 2 to 4 rows; else the reduceat starts, the divisors'
    reciprocals (see ``_solve``) and repeat counts."""
    if np.all(size == size[0]) and size[0] <= 4:
        return None if size[0] == 1 else int(size[0])
    groups = np.repeat(size, count)
    return np.cumsum(groups) - groups, 1 / groups[:, None], groups


def _group_means(prod: np.ndarray, layout) -> tuple[np.ndarray, np.ndarray]:
    """Each adder group's mean of the rows of prod (rows, N_s), and those
    means repeated to the group's rows.  reduceat adds x_0 + pairwise(x_1,
    ...), which neither a reshape-sum nor a sum over the group axis first
    reproduces from 3 rows on.  Below 5 rows the pairwise part adds in
    order, so slice adds give the same bits (up to the sign of a zero)."""
    if layout is None:
        return prod, prod
    if isinstance(layout, int):
        rows = prod.reshape(-1, layout, prod.shape[-1])
        w_bb = rows[:, 1].copy()
        for i in range(2, layout):
            w_bb += rows[:, i]
        np.add(rows[:, 0], w_bb, out=w_bb)
        w_bb *= 1 / layout
        return w_bb, np.repeat(w_bb, layout, axis=0)
    starts, inverse, groups = layout
    w_bb = np.add.reduceat(prod, starts) * inverse
    return w_bb, np.repeat(w_bb, groups, axis=0)


def _square_sums(x: np.ndarray) -> np.ndarray:
    """sum |x|^2 over the last axis, as np.linalg.norm adds it."""
    return np.add.reduce((x.conj() * x).real, axis=-1)


def _cell_classes(counts, n_r: int) -> list[tuple[int, ...]]:
    """(g, first and end sample, first and end cell) of each run of samples
    whose cells hold g rows, from (g, sample count) pairs sorted by g."""
    runs: dict[int, int] = {}
    for g, n in counts:
        runs[g] = runs.get(g, 0) + n
    classes, i, a = [], 0, 0
    for g, n in runs.items():
        if n:
            classes.append((g, i, i + n, a, a + n * (n_r // g)))
            i, a = i + n, a + n * (n_r // g)
    return classes


def _by_class(classes: list, part) -> np.ndarray:
    """part(g, i, j, a, b) of each class, joined in order."""
    parts = [part(*c) for c in classes]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _block_entries(classes: list, block_rows: int, n_blocks: int):
    """The entries of each LO block's cells, block_rows // g; one count
    for the stack when it is one class, else one per block."""
    if len(classes) == 1:
        return block_rows // classes[0][0]
    return np.concatenate([np.full((j - i) * n_blocks, block_rows // g)
                           for g, i, j, _, _ in classes])


def _cell_means(target: np.ndarray, classes: list
                ) -> tuple[np.ndarray, np.ndarray]:
    """The mean row m_c of each cell (cells, N_s), and per sample
    V = sum over its cells c and their rows r of ||t_r - m_c||^2, formed as
    a direct difference.  A cell of one row is that row, with V = 0."""
    n_s = target.shape[-1]
    means, spread = [], []
    for g, i, j, _, _ in classes:
        rows = target[i:j].reshape(j - i, -1, g, n_s)
        m = rows[:, :, 0] if g == 1 else rows.sum(axis=2) / g
        means.append(m.reshape(-1, n_s))
        spread.append(_square_sums((rows - m[:, :, None]).reshape(j - i, -1))
                      if g > 1 else np.zeros(j - i))
    if len(means) == 1:
        return means[0], spread[0]
    return np.concatenate(means), np.concatenate(spread)


@dataclass(frozen=True, eq=False)
class SolutionBatch:
    """Solutions for a stack of combining targets on one architecture.

    Row i equals the lone solve of target i.  ``history`` has one column
    per allowed iteration (one for the direct solver), padded after a
    sample stops with its final residual; ``iterations`` is 0 exactly for
    a direct pass.  No solution names its solver: ``EvalUnit.method``
    alone records how a run computes a curve.
    """

    phases: np.ndarray = field(repr=False)
    w_bb: np.ndarray = field(repr=False)
    history: np.ndarray = field(repr=False)
    iterations: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)

    def solution(self, i: int) -> CombinerSolution:
        history = self.history[i, :max(int(self.iterations[i]), 1)]
        return CombinerSolution(
            phases=self.phases[i], w_bb=self.w_bb[i],
            residual=float(history[-1]), iterations=int(self.iterations[i]),
            converged=bool(self.converged[i]), residual_history=history)


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
    W_BB, the block traces and the residual see only the block rotations
    exp(j*phases).  The W_BB half-step is the least-squares W_BB =
    pinv(W_RF) W_opt: W_RF's columns are orthogonal with squared norm
    apd_depth, so row n of W_BB = W_RF^H W_opt / apd_depth is the mean of
    conj(u) W_opt over the n-th adder group.  Without a config this is the
    direct solver: one W_BB half-step at the given phases.  Otherwise it
    alternates; each sample stops on its own test and is frozen then.

    Alternation runs on cells: runs of g = gcd(lo_depth, apd_depth) rows
    of a sample, each inside one LO block and one adder group, so one
    rotation and one W_BB row serve the whole cell.  With m_c the mean
    target row of cell c, the squared residual is V + g * sum_c
    ||m_c - u_c w_c||^2 with V fixed per sample; W_BB is the mean of
    conj(u) m over a group's cells and a block trace is 1/g of the rows'
    trace, with the same angle.  Samples are sorted by g, so each g is one
    run of the flat cell array, and a row depends on its own sample only.
    The direct solver runs on cells of one row.  Against the tests'
    row-wise loop that forms each block angle, direct solves and B-bit
    solves on cells of one row agree bit for bit; B-bit solves on larger
    cells agree to about 3e-16, and continuous ones to about 1e-13 (the
    tests allow 1e-12).

    The phase half-step forms each block trace t = Tr[X^H Y] of the block's
    target Y and product X, at either resolution.  On continuous phases the
    rotation is t/|t| (1 where t = 0), with no angle, formed as t * (1/|t|):
    numpy divides a complex by a real as that product, so the bits agree.
    On B-bit phases it is looked up among the 2^B grid rotations, at the
    level of ``_trace_phase(t)``.  A stop writes the sample's last traces
    and W_BB rows at its own index in the outputs, and the live samples' u is
    rebuilt from their kept rotations.  After the loop the phases are
    ``_trace_phase`` of the kept traces, through ``quantize_phase`` on
    B-bit stacks.
    """
    arch = segments[0][0]
    lo, bits, n_blocks = arch.lo_depth, arch.resolution_bits, arch.n_blocks
    cell = [1 if config is None else math.gcd(lo, a.apd_depth)
            for a, _, _ in segments]
    order = sorted(range(len(segments)), key=cell.__getitem__)
    segs = [(cell[s], *segments[s]) for s in order]
    sizes = [len(w) for _, _, w, _ in segs]
    # per sample: cells per adder group, and adder groups
    group_cells = np.array([a.apd_depth // g for g, a, _, _ in segs]
                           ).repeat(sizes)
    cell_rows = np.array([g for g, _, _, _ in segs]).repeat(sizes)
    n_groups = np.array([a.n_chains for _, a, _, _ in segs]).repeat(sizes)
    phases = np.concatenate([p for _, _, _, p in segs])
    target = np.concatenate([
        np.conj(np.exp(1j * a.intra_offsets.ravel()))[:, None] * w
        for _, a, w, _ in segs])
    n_b, n_r, n_s = target.shape
    classes = _cell_classes([(g, len(w)) for g, _, w, _ in segs], n_r)
    cells, spread = _cell_means(target, classes)
    layout = _group_layout(group_cells, n_groups)
    buf = np.empty_like(cells)
    per_block = _block_entries(classes, lo * n_s, n_blocks)

    def rotate(rotation):  # block rotations (B, n_blocks) to (cells, N_s)
        return np.repeat(rotation.ravel(), per_block).reshape(-1, n_s)

    def residual(u, rows):  # sqrt(V + g * sum_c ||m_c - u_c w_c||^2)
        np.multiply(u, rows, out=buf)
        np.subtract(cells, buf, out=buf)
        sq = (buf.conj() * buf).real
        return np.sqrt(spread + cell_rows * _by_class(
            classes, lambda gc, i, j, a, b: np.add.reduce(
                sq[a:b].reshape(j - i, -1), axis=-1)))

    def take(x, keep):  # the cells of the kept samples
        return _by_class(classes, lambda gc, i, j, a, b: x[a:b].reshape(
            j - i, -1, n_s)[keep[i:j]].reshape(-1, n_s))

    def split(phases, w_bb, history, iterations, converged):
        out = [None] * len(segs)
        i = c = 0
        for s, (_, a, w, _) in zip(order, segs):
            j, d = i + len(w), c + len(w) * a.n_chains
            out[s] = SolutionBatch(
                phases=phases[i:j], w_bb=w_bb[c:d].reshape(j - i, -1, n_s),
                history=history[i:j], iterations=iterations[i:j],
                converged=converged[i:j])
            i, c = j, d
        return out

    u = rotate(np.exp(1j * phases))
    if config is None:
        w_bb, rows = _group_means(np.conj(u) * cells, layout)
        return split(phases, w_bb, residual(u, rows)[:, None],
                     np.zeros(n_b, dtype=int), np.ones(n_b, dtype=bool))

    if bits is not None:
        grid = np.exp(1j * (TWO_PI / 2 ** bits * np.arange(2 ** bits)))
    cap = config.max_iterations
    history = np.empty((n_b, cap))
    iterations = np.full(n_b, cap)
    converged = np.zeros(n_b, dtype=bool)
    out_t = np.empty((n_b, n_blocks), dtype=complex)
    out_w = np.empty((n_groups.sum(), n_s), dtype=complex)
    live, w_rows = np.arange(n_b), np.arange(len(out_w))  # rows in out_w
    prev_sq = np.full(n_b, np.inf)
    for k in range(cap):
        w_bb, rows = _group_means(np.conj(u) * cells, layout)
        np.conjugate(rows, out=buf)
        np.multiply(buf, cells, out=buf)
        t = _by_class(classes, lambda gc, i, j, a, b: _trace_sum(
            buf[a:b].reshape(-1, lo // gc * n_s))).reshape(-1, n_blocks)
        if bits is None:
            inv = np.abs(t)  # then 1/|t| where t != 0
            nonzero = inv != 0
            np.reciprocal(inv, out=inv, where=nonzero)
            rotation = np.multiply(t, inv, out=np.ones_like(t), where=nonzero)
        else:
            rotation = grid[_phase_level(_trace_phase(t), bits)]
        u = rotate(rotation)
        res = residual(u, rows)
        history[live, k] = res
        sq = res * res
        done = np.abs(prev_sq - sq) < config.epsilon
        stop = done | (k == cap - 1)
        if stop.any():
            idx, sel = live[stop], np.repeat(stop, n_groups)
            out_t[idx] = t[stop]
            out_w[w_rows[sel]] = w_bb[sel]
            history[idx, k + 1:] = res[stop, None]
            iterations[idx] = k + 1
            converged[idx] = done[stop]
            keep = ~stop
            live, sq, w_rows = live[keep], sq[keep], w_rows[~sel]
            if not live.size:
                break
            cells = take(cells, keep)
            group_cells, n_groups = group_cells[keep], n_groups[keep]
            spread, cell_rows = spread[keep], cell_rows[keep]
            classes = _cell_classes([(gc, np.count_nonzero(keep[i:j]))
                                     for gc, i, j, _, _ in classes], n_r)
            layout = _group_layout(group_cells, n_groups)
            buf = buf[:len(cells)]
            per_block = _block_entries(classes, lo * n_s, n_blocks)
            u = rotate(rotation[keep])
        prev_sq = sq
    phi = _trace_phase(out_t)
    out_phases = phi if bits is None else quantize_phase(phi, bits)
    return split(out_phases, out_w, history, iterations, converged)


def solve_stack(segments: Sequence[tuple], config: Optional[OptimizerConfig]
                ) -> list[SolutionBatch]:
    """Solve segments (arch, targets (B_s, N_r, N_s), start phases
    (B_s, n_blocks) or None), one batch per segment in input order; every
    row equals the lone solve of its target.

    It knows no solver names: the run picks each curve's solver
    (``EvalUnit.method``).  A segment without start phases runs the direct
    solver, which needs proportional reuse; one with them runs alternating
    minimization from sample i's start phases.  Alternating segments that
    share n_blocks, lo_depth and resolution_bits run in one kernel loop,
    each sample with its own apd_depth and intra-block offsets.

    The start phases may lie off the resolution grid: every recorded
    iterate comes after a quantized phase update, so the output is always
    feasible, and the residual sequence is monotone nonincreasing.  A
    sample stops when consecutive squared residuals differ by less than
    epsilon, or at the iteration cap (flagged as unconverged), and keeps
    its last iterate.
    """
    out: list[Optional[SolutionBatch]] = [None] * len(segments)
    stacks: dict[tuple, list] = {}
    for i, (arch, w_opt, start) in enumerate(segments):
        w_opt = _validate_target(arch, w_opt)
        if start is None:
            out[i] = direct_solve_proportional(arch, w_opt)
            continue
        if np.shape(start) != (len(w_opt), arch.n_blocks):
            raise ValueError(f"start phases of shape {np.shape(start)} for "
                             f"{len(w_opt)} targets of {arch.n_blocks} blocks")
        stacks.setdefault((arch.n_blocks, arch.lo_depth, arch.resolution_bits),
                          []).append((i, (arch, w_opt, start)))
    for stack in stacks.values():
        solved = _solve([s for _, s in stack], config or OptimizerConfig())
        for (i, _), sol in zip(stack, solved):
            out[i] = sol
    return out


def alternating_minimize(arch: ReuseArchitecture, w_opt: np.ndarray,
                         config: Optional[OptimizerConfig] = None,
                         rng: Optional[np.random.Generator] = None) -> CombinerSolution:
    """Alternate between the closed-form digital combiner and per-block
    optimal (quantized) phases from initial phases drawn uniformly on
    [0, 2pi) from ``rng``, unquantized even under finite resolution; see
    ``solve_stack``.  Returns the last iterate."""
    start = (rng or np.random.default_rng()).uniform(0.0, TWO_PI, arch.n_blocks)
    return solve_stack([(arch, np.asarray(w_opt)[None], start[None])],
                       config)[0].solution(0)


def direct_solve_proportional(arch: ReuseArchitecture, w_opt: np.ndarray
                              ) -> Union[CombinerSolution, SolutionBatch]:
    """Non-iterative solver for proportional reuse (apd_depth | lo_depth).

    Each adder group lies inside one LO block, so the pseudoinverse
    decomposes into per-chain row solves and the block phase is absorbed by
    the digital row: any feasible phase choice attains the same residual,
    which equals the continuous-phase alternating-minimization optimum.
    It solves at zero phases, a grid point for every resolution, and takes
    none; tests that run the direct pass at other phases call ``_solve``.
    A stack of targets (B, N_r, N_s) gives a ``SolutionBatch``.
    """
    if not is_proportional(arch):
        raise ArchitectureError(f"apd_depth={arch.apd_depth} does not "
                                f"divide lo_depth={arch.lo_depth}")
    w_opt = np.asarray(w_opt)
    batch = _validate_target(arch, w_opt if w_opt.ndim == 3 else w_opt[None])
    sol = _solve([(arch, batch, np.zeros((len(batch), arch.n_blocks)))])[0]
    return sol if w_opt.ndim == 3 else sol.solution(0)
