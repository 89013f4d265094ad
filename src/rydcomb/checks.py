"""Fast self-check suite behind the CLI validate command.

Each check exercises one optimizer or channel contract against an
independent oracle (grid search, exhaustive enumeration, generic
pseudoinverse, Monte-Carlo statistic, dense SVD) and reports PASS/FAIL/SKIP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import optimizer
from .architecture import (ReuseArchitecture, compose_wrf, is_proportional)
from .arrays import ArrayGeometry, ArrayKind
from .channel import ChannelParams, channel_matrix, draw_paths, generate_channel


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str


def _rand_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def check_phase_update_grid(n_instances: int = 20, grid_points: int = 100_000,
                            seed: int = 11) -> CheckResult:
    """Closed-form rotation phase must beat a dense grid of candidates."""
    rng = np.random.default_rng(seed)
    grid = 2.0 * np.pi * np.arange(grid_points) / grid_points
    rot = np.exp(1j * grid)
    worst = 0.0
    for _ in range(n_instances):
        y = _rand_complex(rng, (3, 2))
        x = _rand_complex(rng, (3, 2))
        phi = optimizer.optimal_phase(y, x)
        best = np.linalg.norm(y - np.exp(1j * phi) * x)
        objective = np.linalg.norm(
            y[None, :, :] - rot[:, None, None] * x[None, :, :], axis=(1, 2))
        worst = max(worst, best - objective.min())
    ok = worst <= 1e-9
    return CheckResult("phase-update-grid", "PASS" if ok else "FAIL",
                       f"max excess over {grid_points}-point grid: {worst:.2e}")


def check_quantizer_exhaustive(n_phases: int = 1000, max_bits: int = 6,
                               seed: int = 12) -> CheckResult:
    """Quantizer output must maximize cos(grid - phase) over the full set."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, n_phases)
    for bits in range(1, max_bits + 1):
        grid = 2.0 * np.pi * np.arange(2 ** bits) / (2 ** bits)
        for phi in phases:
            q = optimizer.quantize_phase(float(phi), bits)
            if q not in grid and not np.any(np.isclose(q, grid)):
                return CheckResult("quantizer-exhaustive", "FAIL",
                                   f"output {q} not on the {2 ** bits}-point grid")
            if np.cos(q - phi) < np.max(np.cos(grid - phi)) - 1e-12:
                return CheckResult(
                    "quantizer-exhaustive", "FAIL",
                    f"suboptimal at phi={phi:.6f}, B={bits}: got {q:.6f}")
    return CheckResult("quantizer-exhaustive", "PASS",
                       f"{n_phases} phases x B=1..{max_bits}")


def check_block_pseudoinverse(n_instances: int = 10, seed: int = 13) -> CheckResult:
    """Per-chain row formula must match the generic pseudoinverse path."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        lo = int(rng.choice([2, 4, 6]))
        apd = int(rng.choice([d for d in (1, 2, 3, 6) if lo % d == 0]))
        arch = ReuseArchitecture(n_blocks=9, lo_depth=lo, apd_depth=apd)
        w_opt = _rand_complex(rng, (arch.n_r, 3))
        phases = rng.uniform(0, 2 * np.pi, arch.n_blocks)
        sol = optimizer.direct_solve_proportional(arch, w_opt, phases=phases)
        pinv_path = np.linalg.pinv(compose_wrf(arch, phases)) @ w_opt
        worst = max(worst, float(np.max(np.abs(sol.w_bb - pinv_path))))
    ok = worst <= 1e-10
    return CheckResult("block-pseudoinverse", "PASS" if ok else "FAIL",
                       f"max |row formula - pinv| = {worst:.2e}")


def check_proportional_equivalence(arch: Optional[ReuseArchitecture] = None,
                                   seed: int = 14) -> CheckResult:
    """Finite and continuous resolution must reach the same residual as the
    direct solver on a proportional architecture (36 blocks, 144 tx)."""
    if arch is None:
        arch = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=3)
    if not is_proportional(arch):
        return CheckResult(
            "proportional-equivalence", "SKIP",
            f"not proportional (lo_depth={arch.lo_depth}, apd_depth={arch.apd_depth})")
    geometry = ArrayGeometry(ArrayKind.RYDBERG_NON_UPA, arch.n_blocks,
                             arch.lo_depth)
    params = ChannelParams(n_tx=144, rx_geometry=geometry)
    rng = np.random.default_rng(seed)
    realization = generate_channel(params, rng)
    ref = optimizer.optimal_digital_combiner(realization.matrix, 3)

    arch_b1 = ReuseArchitecture(arch.n_blocks, arch.lo_depth, arch.apd_depth,
                                intra_offsets=arch.intra_offsets,
                                resolution_bits=1)
    r_inf = optimizer.alternating_minimize(
        arch, ref.w_opt, rng=np.random.default_rng(seed + 1)).residual
    r_b1 = optimizer.alternating_minimize(
        arch_b1, ref.w_opt, rng=np.random.default_rng(seed + 2)).residual
    direct = optimizer.direct_solve_proportional(arch, ref.w_opt)
    spread = max(r_inf, r_b1, direct.residual) - min(r_inf, r_b1, direct.residual)
    ok = spread <= 1e-9 and direct.iterations == 0
    return CheckResult("proportional-equivalence", "PASS" if ok else "FAIL",
                       f"residual spread across B=1/continuous/direct: {spread:.2e}")


def check_channel_energy(trials: int = 200, seed: int = 15) -> CheckResult:
    """Sample mean of ||H||_F^2 must sit within 5% of N_t * N_r."""
    geometry = ArrayGeometry(ArrayKind.RYDBERG_NON_UPA, 36, 6)
    params = ChannelParams(n_tx=144, rx_geometry=geometry)
    total = 0.0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        total += np.linalg.norm(generate_channel(params, rng).matrix) ** 2
    ratio = total / trials / (params.n_tx * geometry.n_elements)
    ok = abs(ratio - 1.0) <= 0.05
    return CheckResult("channel-energy", "PASS" if ok else "FAIL",
                       f"mean ||H||_F^2 / (Nt*Nr) = {ratio:.4f} over {trials} trials")


def check_factored_reference(n_instances: int = 10, n_streams: int = 3,
                             seed: int = 16) -> CheckResult:
    """The QR-core reference of a factored channel must match the dense SVD:
    singular values, stream projectors w w^H and f f^H, and the
    phase-fixed columns.  Covers N_r below and above the path count."""
    rng = np.random.default_rng(seed)
    geometries = (ArrayGeometry(ArrayKind.RYDBERG_NON_UPA, 9, 4),
                  ArrayGeometry(ArrayKind.RYDBERG_NON_UPA, 36, 6))
    worst = 0.0
    for _ in range(n_instances):
        params = ChannelParams(n_tx=144, rx_geometry=geometries[0])
        paths = draw_paths(params, rng)
        for geometry in geometries:
            channel = channel_matrix(paths, 144, geometry)
            dense = optimizer.optimal_digital_combiner(channel.dense(), n_streams)
            factored = optimizer.optimal_digital_combiner(channel, n_streams)
            deviations = [np.max(np.abs(factored.singular_values
                                        - dense.singular_values))
                          / dense.singular_values[0]]
            for a, b in ((factored.w_opt, dense.w_opt),
                         (factored.f_opt, dense.f_opt)):
                deviations += [np.max(np.abs(a @ a.conj().T - b @ b.conj().T)),
                               np.max(np.abs(a - b))]
            worst = max(worst, *deviations)
    ok = worst <= 1e-9
    return CheckResult("factored-reference", "PASS" if ok else "FAIL",
                       f"max deviation from the dense SVD: {worst:.2e}")


def run_all(arch: Optional[ReuseArchitecture] = None,
            channel_trials: int = 200) -> list[CheckResult]:
    return [
        check_phase_update_grid(),
        check_quantizer_exhaustive(),
        check_block_pseudoinverse(),
        check_proportional_equivalence(arch=arch),
        check_channel_energy(trials=channel_trials),
        check_factored_reference(),
    ]
