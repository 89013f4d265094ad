"""Spectral efficiency and Monte-Carlo experiment orchestration.

The achievable rate uses the pseudoinverse form of the combined receive
filter, which accounts for combiner-colored noise and is invariant to any
invertible right factor of W_RF @ W_BB.  Experiments evaluate every curve
on identical per-trial channels (paired comparison) and aggregate with a
fixed trial order so results do not depend on scheduling.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .architecture import ReuseArchitecture, compose_wrf
from .arrays import ArrayGeometry
from .channel import ChannelParams, LowRankChannel, channel_matrix, draw_paths
from .errors import ArchitectureError, ConfigError, NumericError
from .optimizer import (CombinerSolution, DigitalReference, OptimizerConfig,
                        alternating_minimize, optimal_digital_combiner,
                        solve_combiner)

_EIG_FLOOR = -1e-9
_KIND_CODES = {"rydberg": 0, "pc_upa": 1, "pc_nonupa": 2, "ideal_digital": 3}


def combined_gain_eigenvalues(h: Union[np.ndarray, LowRankChannel],
                              w_rf: np.ndarray, w_bb: np.ndarray,
                              f_opt: np.ndarray) -> np.ndarray:
    """Eigenvalues of the noise-whitened effective channel Gram matrix.

    With W = W_RF @ W_BB and T = W^H H F_opt, these are the eigenvalues of
    (W^H W)^{-1/2} T T^H (W^H W)^{-1/2}; the rate at a given SNR is
    sum(log2(1 + snr/N_s * ev)).  Computed via a Cholesky factor of W^H W
    for stability; raises on rank deficiency or significantly negative
    eigenvalues.  A ``LowRankChannel`` forms T through its factors.
    """
    w = w_rf @ w_bb
    if isinstance(h, LowRankChannel):
        t = (((w.conj().T @ h.a_rx) * h.gains)
             @ (h.transmit.steering.conj().T @ f_opt))
    else:
        t = w.conj().T @ h @ f_opt
    gram = w.conj().T @ w
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "combined combiner W_RF @ W_BB is rank deficient") from exc
    x = np.linalg.solve(chol, t)
    ev = np.linalg.eigvalsh(x @ x.conj().T)
    if ev.min() < _EIG_FLOOR:
        raise NumericError(
            f"indefinite effective channel (min eigenvalue {ev.min():.3e})")
    return np.maximum(ev, 0.0)


def _rates(ev: np.ndarray, n_streams: int, snr_linear_grid) -> np.ndarray:
    """Rate sum(log2(1 + snr * ev / N_s)) over streams at each grid SNR."""
    snr = np.asarray(snr_linear_grid, dtype=float)
    return np.log2(1.0 + snr[:, None] * ev[None, :] / n_streams).sum(axis=1)


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
    """
    ref = reference if reference is not None else optimal_digital_combiner(h, n_streams)
    sol = solve_combiner(arch, ref.w_opt, config=config, rng=rng, method=solver)
    w_rf = compose_wrf(arch, sol.phases)
    ev = combined_gain_eigenvalues(h, w_rf, sol.w_bb, ref.f_opt)
    return _rates(ev, n_streams, snr_linear_grid), sol


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
            raise ConfigError(f"unknown unit kind {self.kind!r}")
        if (self.arch is None) != (self.kind == "ideal_digital"):
            raise ConfigError(
                "arch must be set exactly when kind != 'ideal_digital'")
        if self.arch is not None and self.arch.n_r != self.geometry.n_elements:
            raise ConfigError(
                f"architecture size {self.arch.n_r} != geometry element "
                f"count {self.geometry.n_elements}")


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
        for unit in self.units:
            if self.n_streams > min(unit.geometry.n_elements, self.channel.n_tx):
                raise ConfigError(
                    f"{unit.label}: n_streams exceeds min(N_r, N_t)")
            if self.n_streams > self.channel.n_paths:
                raise ConfigError(
                    f"n_streams={self.n_streams} exceeds the channel rank "
                    f"bound n_clusters * n_rays = {self.channel.n_paths}")
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


def _solver_rng(seed: int, trial: int, unit: EvalUnit) -> np.random.Generator:
    """Independent init stream per (trial, structural identity).  Resolution
    variants of one structure share a stream, pairing their initial phases."""
    arch = unit.arch
    key = (1, trial, _KIND_CODES[unit.kind],
           arch.n_blocks, arch.lo_depth, arch.apd_depth)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _channel_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, trial)))


def _trial_channels(spec: ExperimentSpec, trial: int
                    ) -> dict[ArrayGeometry, tuple[LowRankChannel, DigitalReference]]:
    """Draw the trial's paths once and build, per receive geometry, the
    factored channel and its SVD reference.  All geometries share one
    transmit factor."""
    paths = draw_paths(spec.channel, _channel_rng(spec.seed, trial))
    out: dict[ArrayGeometry, tuple[LowRankChannel, DigitalReference]] = {}
    transmit = None
    for unit in spec.units:
        if unit.geometry not in out:
            channel = channel_matrix(paths, spec.channel.n_tx, unit.geometry,
                                     transmit=transmit)
            transmit = channel.transmit
            out[unit.geometry] = (
                channel, optimal_digital_combiner(channel, spec.n_streams))
    return out


def _run_trial(spec: ExperimentSpec, trial: int, snr_linear: np.ndarray) -> np.ndarray:
    channels = _trial_channels(spec, trial)
    out = np.empty((len(spec.units), snr_linear.size))
    for i, unit in enumerate(spec.units):
        h, ref = channels[unit.geometry]
        if unit.arch is None:
            out[i] = _rates(ref.singular_values[:spec.n_streams] ** 2,
                            spec.n_streams, snr_linear)
        else:
            rates, _ = evaluate_architecture(
                h, unit.arch, spec.n_streams, snr_linear, solver=unit.solver,
                config=spec.solver, rng=_solver_rng(spec.seed, trial, unit),
                reference=ref)
            out[i] = rates
    return out


def _mean_stderr(values: np.ndarray) -> tuple[float, float, int]:
    ok = values[np.isfinite(values)]
    n = ok.size
    if n == 0:
        raise NumericError("no successful trials")
    mean = float(np.mean(ok))
    stderr = float(np.std(ok, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr, n


def _tabulate(spec: ExperimentSpec, threads: int, worker, n_points: int,
              sweep_param: str, sweep_value) -> ResultTable:
    """Run ``worker`` on every trial, stack its (units, n_points) arrays in
    trial order and reduce each (unit, point) column to one row whose
    sweep value is ``sweep_value(unit, point)``.

    Failed trials are excluded from the means and reported once at the end.
    """
    def safe(t: int):
        try:
            return worker(t), None
        except (NumericError, np.linalg.LinAlgError) as exc:
            return None, f"trial {t}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(safe, range(spec.trials)))
    else:
        done = [safe(t) for t in range(spec.trials)]
    stacked = np.full((spec.trials, len(spec.units), n_points), np.nan)
    errors = [err for _, err in done if err is not None]
    for t, (value, err) in enumerate(done):
        if err is None:
            stacked[t] = value
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
    per-curve channels differ only through the receive geometry.  Results
    are aggregated in fixed trial order, so they are independent of the
    thread count.
    """
    snr_linear = 10.0 ** (np.asarray(spec.snr_db) / 10.0)
    return _tabulate(
        spec, threads, lambda t: _run_trial(spec, t, snr_linear),
        snr_linear.size, spec.sweep_param,
        lambda unit, k: (spec.snr_db[k] if spec.sweep_param == "snr_db"
                         else unit.sweep_value))


def run_convergence(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Record solver residual trajectories instead of rates.

    Rows carry the mean residual (in the value column) per iteration index;
    runs that converge early are padded with their final residual.
    """
    for unit in spec.units:
        if unit.arch is None:
            raise ConfigError(
                f"{unit.label}: convergence traces need an architecture")
    max_iter = spec.solver.max_iterations

    def worker(t: int) -> np.ndarray:
        channels = _trial_channels(spec, t)
        out = np.empty((len(spec.units), max_iter))
        for i, unit in enumerate(spec.units):
            _, ref = channels[unit.geometry]
            sol = alternating_minimize(unit.arch, ref.w_opt,
                                       config=spec.solver,
                                       rng=_solver_rng(spec.seed, t, unit))
            hist = sol.residual_history
            out[i, :hist.size] = hist
            out[i, hist.size:] = hist[-1]
        return out

    return _tabulate(spec, threads, worker, max_iter, "iteration",
                     lambda unit, p: p + 1)
