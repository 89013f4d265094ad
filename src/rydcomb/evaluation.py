"""Spectral efficiency and Monte-Carlo experiment orchestration.

The achievable rate uses the pseudoinverse form of the combined receive
filter, which accounts for combiner-colored noise and is invariant to any
invertible right factor of W_RF @ W_BB.  Experiments evaluate every curve
on identical per-trial channels (paired comparison).  Trials run in blocks
of at most TRIAL_BLOCK, cut smaller so that every worker thread gets one:
the channels of a block are drawn trial by trial, then every curve is
solved once over the whole block, in one ``solve_stack`` call per block,
and each curve is rated from its own rows.  Every sample is computed
exactly as it would be alone, and results are aggregated in fixed trial
order, so they depend on neither the block size nor the scheduling.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

import numpy as np

# compose_wrf and alternating_minimize stay importable here: the per-layer
# benchmark trace patches them at these names.
from .architecture import ReuseArchitecture, compose_wrf, is_proportional
from .arrays import ArrayGeometry
from .channel import ChannelParams, LowRankChannel, channel_matrix, draw_paths
from .errors import ArchitectureError, ConfigError, NumericError
from .optimizer import (SOLVE_METHODS, CombinerSolution, DigitalReference,
                        OptimizerConfig, SolutionBatch, alternating_minimize,
                        optimal_digital_combiner, solve_stack)

_EIG_FLOOR = -1e-9
_KIND_CODES = {"rydberg": 0, "pc_upa": 1, "pc_nonupa": 2, "ideal_digital": 3}
TRIAL_BLOCK = 32  # trials whose curves are solved and rated together


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def _gain_eigenvalues(t: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of L^-1 T T^H L^-H, with L the Cholesky factor of the
    combiner Gram matrix, for each sample of a stack.  Raises if any sample
    is rank deficient or has a significantly negative eigenvalue."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "combined combiner W_RF @ W_BB is rank deficient") from exc
    x = np.linalg.solve(chol, t)
    ev = np.linalg.eigvalsh(x @ _adjoint(x))
    if ev.min() < _EIG_FLOOR:
        raise NumericError(
            f"indefinite effective channel (min eigenvalue {ev.min():.3e})")
    return np.maximum(ev, 0.0)


def combined_gain_eigenvalues(h: Union[np.ndarray, LowRankChannel],
                              w_rf: np.ndarray, w_bb: np.ndarray,
                              f_opt: np.ndarray) -> np.ndarray:
    """Eigenvalues of the noise-whitened effective channel Gram matrix.

    With W = W_RF @ W_BB and T = W^H H F_opt, these are the eigenvalues of
    (W^H W)^{-1/2} T T^H (W^H W)^{-1/2}; the rate at a given SNR is
    sum(log2(1 + snr/N_s * ev)).  Computed via a Cholesky factor of W^H W
    for stability; raises on rank deficiency or significantly negative
    eigenvalues.  A ``LowRankChannel`` forms H F_opt through its factors.
    """
    w = w_rf @ w_bb
    hf = h.apply(f_opt) if isinstance(h, LowRankChannel) else h @ f_opt
    return _gain_eigenvalues(_adjoint(w) @ hf, _adjoint(w) @ w)


def _batch_gain_eigenvalues(arch: ReuseArchitecture, sol: SolutionBatch,
                            hf: np.ndarray) -> np.ndarray:
    """``combined_gain_eigenvalues`` for a stack of solutions, with
    H F_opt given per sample (or W_opt Sigma, equal to it up to column
    phases, which cancel in T T^H).  W = diag(u) W_LC W_BB is formed
    row-wise, and its Gram matrix is apd_depth * W_BB^H W_BB."""
    u = np.exp(1j * (np.repeat(sol.phases, arch.lo_depth, axis=-1)
                     + arch.intra_offsets.ravel()))
    w = u[..., None] * np.repeat(sol.w_bb, arch.apd_depth, axis=-2)
    gram = arch.apd_depth * (_adjoint(sol.w_bb) @ sol.w_bb)
    return _gain_eigenvalues(_adjoint(w) @ hf, gram)


def _rates(ev: np.ndarray, n_streams: int, snr_linear_grid) -> np.ndarray:
    """Rate sum(log2(1 + snr * ev / N_s)) over streams at each grid SNR;
    leading axes of ev (..., N_s) are batch axes."""
    snr = np.asarray(snr_linear_grid, dtype=float)
    return np.log2(1.0 + snr[:, None] * ev[..., None, :] / n_streams
                   ).sum(axis=-1)


def spectral_efficiency(h: Union[np.ndarray, LowRankChannel],
                        w_rf: np.ndarray, w_bb: np.ndarray,
                        f_opt: np.ndarray, n_streams: int,
                        snr_linear: float) -> float:
    """Achievable rate in bits/s/Hz for one channel, combiner, and SNR."""
    if w_bb.shape[1] != n_streams or f_opt.shape[1] != n_streams:
        raise ValueError("stream count mismatch between w_bb/f_opt and n_streams")
    if snr_linear < 0:
        raise ValueError("snr_linear must be >= 0")
    ev = combined_gain_eigenvalues(h, w_rf, w_bb, f_opt)
    return float(_rates(ev, n_streams, [snr_linear])[0])


def fully_digital_se(singular_values: np.ndarray, n_streams: int,
                     snr_linear: float) -> float:
    """Rate of the unconstrained digital combiner: the first n_streams
    squared singular values enter the water-free log-det directly."""
    sv = np.asarray(singular_values)[:n_streams]
    return float(_rates(sv ** 2, n_streams, [snr_linear])[0])


def evaluate_architecture(h: Union[np.ndarray, LowRankChannel],
                          arch: ReuseArchitecture,
                          n_streams: int, snr_linear_grid,
                          solver: str = "auto",
                          config: Optional[OptimizerConfig] = None,
                          rng: Optional[np.random.Generator] = None,
                          reference: Optional[DigitalReference] = None,
                          ) -> tuple[np.ndarray, CombinerSolution]:
    """Design the combiner for one channel and evaluate it on an SNR grid.

    Returns the per-SNR rates and the combiner solution.  The SVD reference
    may be passed in to share it across architectures on the same channel.
    A batch of one through the solver and rate of the trial blocks.
    """
    ref = reference if reference is not None else optimal_digital_combiner(h, n_streams)
    sol = solve_stack([(arch, ref.w_opt[None],
                        [rng or np.random.default_rng()], solver)], config)[0]
    hf = ref.w_opt * ref.singular_values[:n_streams]
    ev = _batch_gain_eigenvalues(arch, sol, hf[None])[0]
    return _rates(ev, n_streams, snr_linear_grid), sol.solution(0)


def pc_architecture(n_r: int, n_rf_chains: int) -> ReuseArchitecture:
    """Partially-connected conventional mapping: one free phase shifter per
    antenna feeding adders of depth n_r / n_rf_chains."""
    if n_rf_chains <= 0 or n_r % n_rf_chains != 0:
        raise ArchitectureError(
            f"n_rf_chains={n_rf_chains} does not divide n_r={n_r}")
    return ReuseArchitecture(n_blocks=n_r, lo_depth=1,
                             apd_depth=n_r // n_rf_chains)


@dataclass(frozen=True)
class EvalUnit:
    """One curve to evaluate: a labeled architecture (or pure digital
    reference) on a concrete receive geometry."""

    label: str
    kind: str
    geometry: ArrayGeometry
    arch: Optional[ReuseArchitecture] = None
    solver: str = "auto"
    sweep_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ConfigError(f"kind: unknown unit kind {self.kind!r}")
        if (self.arch is None) != (self.kind == "ideal_digital"):
            raise ConfigError(
                "arch: must be set exactly when kind != 'ideal_digital'")
        if self.arch is not None and self.arch.n_r != self.geometry.n_elements:
            raise ConfigError(
                f"arch: size {self.arch.n_r} != geometry element "
                f"count {self.geometry.n_elements}")
        if self.solver not in SOLVE_METHODS:
            raise ConfigError(f"solver: unknown solver {self.solver!r} "
                              f"(choose from {SOLVE_METHODS})")
        if self.solver == "direct" and self.arch and not is_proportional(
                self.arch):
            raise ConfigError(
                f"solver: 'direct' needs apd_depth={self.arch.apd_depth} "
                f"to divide lo_depth={self.arch.lo_depth}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment: channel statistics, curves, SNR grid,
    trial count, and master seed."""

    channel: ChannelParams
    units: tuple[EvalUnit, ...]
    n_streams: int
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    solver: OptimizerConfig = OptimizerConfig()
    sweep_param: str = "snr_db"
    name: str = "experiment"

    def __post_init__(self) -> None:
        if not self.units:
            raise ConfigError("experiment has no curves to evaluate")
        if not self.snr_db:
            raise ConfigError("snr_db grid is empty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n_streams < 1:
            raise ConfigError("n_streams must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        # at zero angular spread every ray of a cluster shares its angles
        rank = (self.channel.n_paths if self.channel.angular_spread > 0
                else self.channel.n_clusters)
        if self.n_streams > rank:
            raise ConfigError(f"n_streams={self.n_streams} exceeds the channel "
                              f"rank bound {rank} (paths of distinct angles)")
        for unit in self.units:
            if self.n_streams > min(unit.geometry.n_elements, self.channel.n_tx):
                raise ConfigError(
                    f"{unit.label}: n_streams exceeds min(N_r, N_t)")
            if unit.arch is not None and self.n_streams > unit.arch.n_chains:
                raise ConfigError(
                    f"{unit.label}: n_streams={self.n_streams} > chain count "
                    f"{unit.arch.n_chains} (need N_s <= chains <= N_r)")
        if self.sweep_param == "snr_db":
            labels = [u.label for u in self.units]
            if len(set(labels)) != len(labels):
                raise ConfigError("duplicate curve labels")
        else:
            if len(self.snr_db) != 1:
                raise ConfigError(
                    f"sweep over {self.sweep_param} requires a single SNR point")
            keys = [(u.label, u.sweep_value) for u in self.units]
            if any(v is None for _, v in keys):
                raise ConfigError("every unit needs a sweep_value")
            if len(set(keys)) != len(keys):
                raise ConfigError("duplicate (label, sweep_value) pairs")


@dataclass(frozen=True)
class ResultRow:
    label: str
    sweep_param: str
    sweep_value: float
    mean_se: float
    stderr: float
    trials: int

    def __post_init__(self) -> None:
        if self.mean_se < 0:
            raise NumericError(f"negative mean value in row {self.label!r}")


@dataclass
class ResultTable:
    rows: list[ResultRow]
    sweep_param: str
    seed: int
    failures: int = 0
    name: str = "experiment"


def _solver_rngs(seed: int, trials: tuple[int, ...],
                 unit: EvalUnit) -> Iterator[np.random.Generator]:
    """Independent init stream per (trial, structural identity).  Resolution
    variants of one structure share a stream, pairing their initial phases.
    Lazy: the direct solver draws nothing, so it builds no stream."""
    arch = unit.arch
    return (np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(1, t, _KIND_CODES[unit.kind],
                         arch.n_blocks, arch.lo_depth, arch.apd_depth)))
        for t in trials)


def _channel_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, trial)))


def _trial_channels(spec: ExperimentSpec, trial: int
                    ) -> dict[ArrayGeometry, tuple[np.ndarray, ...]]:
    """Draw the trial's paths once and keep, per receive geometry, the
    combining target w_opt, the ideally precoded channel as W_opt Sigma
    (H f_i = sigma_i w_i up to a column phase, which the rate does not
    see) and the singular values.  All geometries share one transmit
    factor."""
    paths = draw_paths(spec.channel, _channel_rng(spec.seed, trial))
    out: dict[ArrayGeometry, tuple[np.ndarray, ...]] = {}
    transmit = None
    for unit in spec.units:
        if unit.geometry not in out:
            channel = channel_matrix(paths, spec.channel.n_tx, unit.geometry,
                                     transmit=transmit)
            transmit = channel.transmit
            ref = optimal_digital_combiner(channel, spec.n_streams)
            out[unit.geometry] = (
                ref.w_opt, ref.w_opt * ref.singular_values[:spec.n_streams],
                ref.singular_values)
    return out


# A curve maps (unit, solution batch or None, W_opt Sigma, singular values)
# on some trials to one (trials, n_points) array.
Curve = Callable[..., np.ndarray]


def _run_block(spec: ExperimentSpec, trials: range, curve: Curve,
               n_points: int) -> tuple[np.ndarray, dict[int, str]]:
    """Evaluate every curve on one block of trials.

    Each trial's references are copied into one stack per geometry, row
    by row, as the trials are drawn.  Every architecture curve is solved
    once, in one ``solve_stack`` call on the trials whose channels
    succeeded, and each is rated from its own rows.  A trial that fails,
    in its channels or in any curve, loses its value for every curve.
    When a curve's rate raises for the block, it is rated on each trial
    alone to find the ones that failed.
    """
    out = np.full((len(trials), len(spec.units), n_points), np.nan)
    errors: dict[int, str] = {}
    stacks: dict[ArrayGeometry, list[np.ndarray]] = {}
    for row, t in enumerate(trials):
        try:
            channels = _trial_channels(spec, t)
        except (NumericError, np.linalg.LinAlgError) as exc:
            errors[t] = f"trial {t}: {exc}"
            continue
        for geometry, parts in channels.items():
            if geometry not in stacks:
                stacks[geometry] = [np.empty((len(trials), *p.shape), p.dtype)
                                    for p in parts]
            for stack, part in zip(stacks[geometry], parts):
                stack[row] = part

    good = [r for r, t in enumerate(trials) if t not in errors]
    if not good:
        return out, errors
    curves = {i: u for i, u in enumerate(spec.units) if u.arch is not None}
    solved = dict(zip(curves, solve_stack([
        (unit.arch, stacks[unit.geometry][0][good],
         _solver_rngs(spec.seed, tuple(trials[r] for r in good), unit),
         unit.solver) for unit in curves.values()], spec.solver)))

    def evaluate(i: int, rows: list[int]) -> np.ndarray:
        unit, sol = spec.units[i], solved.get(i)
        if sol is not None:  # rows are the solved ones, or some of them
            sol = sol.take(np.searchsorted(good, rows))
        return curve(unit, sol, *(stack[rows]
                                  for stack in stacks[unit.geometry][1:]))

    for i in range(len(spec.units)):
        rows = [r for r, t in enumerate(trials) if t not in errors]
        if not rows:
            break
        try:
            out[rows, i] = evaluate(i, rows)
        except (NumericError, np.linalg.LinAlgError):
            for row in rows:
                try:
                    out[row, i] = evaluate(i, [row])[0]
                except (NumericError, np.linalg.LinAlgError) as exc:
                    errors[trials[row]] = f"trial {trials[row]}: {exc}"
    out[[t - trials.start for t in errors]] = np.nan
    return out, errors


def _mean_stderr(values: np.ndarray) -> tuple[float, float, int]:
    ok = values[np.isfinite(values)]
    n = ok.size
    if n == 0:
        raise NumericError("no successful trials")
    mean = float(np.mean(ok))
    stderr = float(np.std(ok, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr, n


def _tabulate(spec: ExperimentSpec, threads: int, curve: Curve, n_points: int,
              sweep_param: str, sweep_value) -> ResultTable:
    """Run ``curve`` for every unit over blocks of trials, stack the
    (units, n_points) values in trial order and reduce each (unit, point)
    column to one row whose sweep value is ``sweep_value(unit, point)``.
    Blocks hold at most TRIAL_BLOCK trials and no more than an even share
    of the trials per thread.

    Failed trials are excluded from the means and reported once at the end.
    """
    size = min(TRIAL_BLOCK, -(-spec.trials // threads))
    blocks = [range(first, min(first + size, spec.trials))
              for first in range(0, spec.trials, size)]

    def run(block: range):
        return _run_block(spec, block, curve, n_points)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, blocks))
    else:
        done = [run(block) for block in blocks]
    stacked = np.concatenate([values for values, _ in done])
    errors = [err for _, errs in done for _, err in sorted(errs.items())]
    if errors:
        warnings.warn(
            f"{len(errors)} of {spec.trials} trials failed and were excluded "
            f"(first: {errors[0]})", RuntimeWarning)

    rows: list[ResultRow] = []
    for i, unit in enumerate(spec.units):
        for k in range(n_points):
            mean, stderr, n = _mean_stderr(stacked[:, i, k])
            rows.append(ResultRow(label=unit.label, sweep_param=sweep_param,
                                  sweep_value=float(sweep_value(unit, k)),
                                  mean_se=mean, stderr=stderr, trials=n))
    return ResultTable(rows=rows, sweep_param=sweep_param, seed=spec.seed,
                       failures=len(errors), name=spec.name)


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Evaluate all curves over the SNR grid, averaged over paired trials.

    Every trial draws one set of propagation paths shared by all curves;
    per-curve channels differ only through the receive geometry.  Each
    curve is solved and rated for a block of trials at once, and ``threads``
    workers take whole blocks, with blocks cut so that each worker gets
    one.  Results are aggregated in fixed trial order, so they are
    independent of the block size and thread count.
    """
    snr_linear = 10.0 ** (np.asarray(spec.snr_db) / 10.0)
    n_s = spec.n_streams

    def curve(unit, sol, hf, singular_values):
        if sol is None:
            return _rates(singular_values[:, :n_s] ** 2, n_s, snr_linear)
        return _rates(_batch_gain_eigenvalues(unit.arch, sol, hf), n_s,
                      snr_linear)

    return _tabulate(
        spec, threads, curve, snr_linear.size, spec.sweep_param,
        lambda unit, k: (spec.snr_db[k] if spec.sweep_param == "snr_db"
                         else unit.sweep_value))


def run_convergence(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Record alternating-minimization residual trajectories instead of
    rates, whatever solver the curves name.

    Rows carry the mean residual (in the value column) per iteration index;
    runs that converge early are padded with their final residual.
    """
    for unit in spec.units:
        if unit.arch is None:
            raise ConfigError(
                f"{unit.label}: convergence traces need an architecture")
    spec = replace(spec, units=tuple(replace(unit, solver="altmin")
                                     for unit in spec.units))
    return _tabulate(spec, threads, lambda unit, sol, *refs: sol.history,
                     spec.solver.max_iterations, "iteration",
                     lambda unit, p: p + 1)
