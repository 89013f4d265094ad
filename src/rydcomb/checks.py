"""Fast self-check suite behind the CLI validate command.

Each check exercises one optimizer or channel contract against an
independent oracle (grid search, exhaustive enumeration, generic
pseudoinverse, Monte-Carlo statistic, dense SVD, one-draw block) and
reports PASS/FAIL/SKIP.
A check that raises reports FAIL with the exception, and the suite goes on.
"""

from __future__ import annotations

import functools
import traceback
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import optimizer
from .architecture import ReuseArchitecture, diagonal_phases, is_proportional
from .arrays import ArrayGeometry
from .channel import ChannelParams, Paths, block_channels, draw_paths
from .oracles import (channel_matrix, compose_wrf, generate_channel,
                      optimal_digital_combiner, phase_grid)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str


def _check(name: str):
    """Name a check returning (status, detail).  A check that raises
    reports FAIL with the exception instead of aborting the suite."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> CheckResult:
            try:
                status, detail = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - any raise is a failure
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                status, detail = "FAIL", (
                    f"raised {type(exc).__name__} at {frame.filename}:"
                    f"{frame.lineno}: {exc}")
            return CheckResult(name, status, detail)
        return run
    return wrap


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _rand_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@_check("phase-update-grid")
def check_phase_update_grid():
    """Closed-form rotation phase must beat a dense grid of candidates.
    One call on the stacked instances, the way the solver makes it, must
    return the per-instance phases; the last instance has its optimum just
    below 2pi, which must snap to 0."""
    n_instances, grid_points = 20, 100_000
    rng = np.random.default_rng(11)
    grid = 2.0 * np.pi * np.arange(grid_points) / grid_points
    rot = np.exp(1j * grid)
    ys = _rand_complex(rng, (n_instances, 3, 2))
    xs = _rand_complex(rng, (n_instances, 3, 2))
    ys[-1] = np.exp(-1e-14j) * xs[-1]
    stacked = optimizer.optimal_phase(ys, xs)
    single = np.empty(n_instances)
    worst = 0.0
    for i, (y, x) in enumerate(zip(ys, xs)):
        single[i] = optimizer.optimal_phase(y, x)
        best = np.linalg.norm(y - np.exp(1j * single[i]) * x)
        objective = np.linalg.norm(
            y[None, :, :] - rot[:, None, None] * x[None, :, :], axis=(1, 2))
        worst = max(worst, best - objective.min())
    same = np.array_equal(stacked, single)
    return (_status(worst <= 1e-9 and same and single[-1] == 0.0),
            f"max excess over {grid_points}-point grid: {worst:.2e}, "
            f"stacked call {'equals' if same else 'differs from'} "
            f"per-instance calls, phase below 2pi -> {single[-1]:.1e}")


@_check("quantizer-exhaustive")
def check_quantizer_exhaustive():
    """Quantizer output must maximize cos(grid - phase) over the full set.
    The phases go in as one array, the way the solver quantizes them."""
    n_phases, max_bits = 1000, 6
    rng = np.random.default_rng(12)
    phases = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, n_phases)
    for bits in range(1, max_bits + 1):
        grid = phase_grid(bits)
        q = np.broadcast_to(optimizer.quantize_phase(phases, bits), phases.shape)
        ok = (np.isclose(q[:, None], grid).any(axis=1)
              & (np.cos(q - phases)
                 >= np.max(np.cos(grid - phases[:, None]), axis=1) - 1e-12))
        if not ok.all():
            k = int(np.argmin(ok))
            return ("FAIL", f"phi={phases[k]:.6f}, B={bits}: got {q[k]:.6f}, "
                            f"off the {2 ** bits}-point grid or suboptimal")
    return "PASS", f"{n_phases} phases x B=1..{max_bits}"


@_check("block-pseudoinverse")
def check_block_pseudoinverse():
    """The W_BB row formula both solvers use must match the generic
    pseudoinverse, for proportional and non-proportional reuse, and the
    analog combiner it assumes must satisfy W_RF^H W_RF = apd_depth * I."""
    rng = np.random.default_rng(13)
    worst = gram_dev = 0.0
    for _ in range(20):
        lo = int(rng.choice([2, 4, 6]))
        apd = int(rng.choice([d for d in range(1, 19) if 9 * lo % d == 0]))
        arch = ReuseArchitecture(n_blocks=9, lo_depth=lo, apd_depth=apd)
        w_opt = _rand_complex(rng, (arch.n_r, 3))
        phases = rng.uniform(0, 2 * np.pi, arch.n_blocks)
        w_rf = compose_wrf(arch, phases)
        u = np.exp(1j * diagonal_phases(arch, phases))
        w_bb = [optimizer.update_wbb(u[None], w_opt[None],
                                     np.array([apd]))[0, ::apd]]
        if is_proportional(arch):
            w_bb.append(optimizer.direct_solve_proportional(
                arch, w_opt, phases=phases).w_bb)
        pinv_path = np.linalg.pinv(w_rf) @ w_opt
        worst = max(worst, *(np.max(np.abs(w - pinv_path)) for w in w_bb))
        gram_dev = max(gram_dev, np.max(np.abs(
            w_rf.conj().T @ w_rf / apd - np.eye(arch.n_chains))))
    return (_status(worst <= 1e-10 and gram_dev <= 1e-12),
            f"max |row formula - pinv| = {worst:.2e}, "
            f"max |W^H W / apd_depth - I| = {gram_dev:.2e}")


@_check("proportional-equivalence")
def check_proportional_equivalence(arch: Optional[ReuseArchitecture] = None):
    """Finite and continuous resolution must reach the same residual as the
    direct solver on a proportional architecture (36 blocks, 144 tx)."""
    if arch is None:
        arch = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=3)
    if not is_proportional(arch):
        return ("SKIP", f"not proportional (lo_depth={arch.lo_depth}, "
                        f"apd_depth={arch.apd_depth})")
    geometry = ArrayGeometry(arch.n_blocks, arch.lo_depth)
    h = generate_channel(ChannelParams(n_tx=144), geometry,
                         np.random.default_rng(14))
    ref = optimal_digital_combiner(h, 3)

    arch_b1 = replace(arch, resolution_bits=1)
    r_inf = optimizer.alternating_minimize(
        arch, ref.w_opt, rng=np.random.default_rng(15)).residual
    r_b1 = optimizer.alternating_minimize(
        arch_b1, ref.w_opt, rng=np.random.default_rng(16)).residual
    direct = optimizer.direct_solve_proportional(arch, ref.w_opt)
    spread = max(r_inf, r_b1, direct.residual) - min(r_inf, r_b1, direct.residual)
    return (_status(spread <= 1e-9 and direct.iterations == 0),
            f"residual spread across B=1/continuous/direct: {spread:.2e}")


@_check("channel-energy")
def check_channel_energy():
    """Sample mean of ||H||_F^2 must sit within 5% of N_t * N_r."""
    trials = 200
    geometry = ArrayGeometry(36, 6)
    params = ChannelParams(n_tx=144)
    total = 0.0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(15, spawn_key=(t,)))
        total += np.linalg.norm(generate_channel(params, geometry, rng)) ** 2
    ratio = total / trials / (params.n_tx * geometry.n_elements)
    return (_status(abs(ratio - 1.0) <= 0.05),
            f"mean ||H||_F^2 / (Nt*Nr) = {ratio:.4f} over {trials} trials")


@_check("factored-reference")
def check_factored_reference():
    """The block reference stage a run uses, for 3 streams, against two
    oracles.  W_opt and Sigma of draws stacked in one block must equal
    those of each draw's one-draw block bit for bit (values do not depend
    on the block size), and match the dense SVD of ``channel_matrix``:
    singular values relative to the largest, stream projectors w w^H and
    phase-fixed columns.  Covers N_r below and above the path count, and
    36x2, the worst-conditioned bundled receive factor."""
    n_streams, n_draws = 3, 10
    rng = np.random.default_rng(16)
    geometries = (ArrayGeometry(9, 4), ArrayGeometry(36, 6),
                  ArrayGeometry(36, 2))
    draws = [draw_paths(ChannelParams(n_tx=144), rng) for _ in range(n_draws)]
    worst, unequal = 0.0, 0
    for geometry, block in block_channels(Paths.stack(draws), 144, geometries):
        w_block, s_block, _ = optimizer.block_reference(block, n_streams)
        for row, paths in enumerate(draws):
            (_, alone), = block_channels(Paths.stack([paths]), 144, [geometry])
            w_alone, s_alone, _ = optimizer.block_reference(alone, n_streams)
            unequal += not (np.array_equal(w_block[row], w_alone[0])
                            and np.array_equal(s_block[row], s_alone[0]))
            dense = optimal_digital_combiner(
                channel_matrix(paths, 144, geometry), n_streams)
            w, v = w_block[row], dense.w_opt
            worst = max(worst, np.max(np.abs(w - v)),
                        np.max(np.abs(w @ w.conj().T - v @ v.conj().T)),
                        np.max(np.abs(s_block[row]
                                      - dense.singular_values[:n_streams]))
                        / dense.singular_values[0])
    return (_status(worst <= 1e-12 and not unequal),
            f"max deviation from the dense SVD: {worst:.2e}, stacked samples "
            f"unequal to their one-draw blocks: {unequal} of "
            f"{n_draws * len(geometries)}")


def run_all() -> list[CheckResult]:
    return [
        check_phase_update_grid(),
        check_quantizer_exhaustive(),
        check_block_pseudoinverse(),
        check_proportional_equivalence(),
        check_channel_energy(),
        check_factored_reference(),
    ]
