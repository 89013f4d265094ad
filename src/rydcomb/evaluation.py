"""Spectral efficiency and Monte-Carlo experiment orchestration.

The achievable rate uses the pseudoinverse form of the combined receive
filter, which accounts for combiner-colored noise and is invariant to any
invertible right factor of W_RF @ W_BB.  Experiments evaluate every curve
on identical per-trial channels (paired comparison).  Trials run in blocks
of at most TRIAL_BLOCK, cut smaller so that every worker thread gets one.
The paths of a block are drawn trial by trial, and its references are
built for the whole block at once: one stacked core SVD per receive
geometry.  Then every curve is solved once, in one ``solve_stack`` call
per block, and each curve is rated from its own rows.  A block whose
stages raise is run again one trial at a time, and a trial that raises
alone fails.  Every sample is computed exactly as it would be alone, and
results are aggregated in fixed trial order, so they depend on neither
the block size nor the scheduling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .architecture import (ReuseArchitecture, _is_int, diagonal_phases,
                           is_proportional)
from .arrays import ArrayGeometry
from .channel import ChannelParams, Paths, block_channels, draw_paths
from .errors import ArchitectureError, ConfigError, NumericError
# alternating_minimize and the three oracles stay importable here: the
# per-layer benchmark trace patches them at these names.
from .optimizer import (SOLVE_METHODS, OptimizerConfig, SolutionBatch,
                        alternating_minimize, block_reference, solve_stack)
from .oracles import channel_matrix, compose_wrf, optimal_digital_combiner

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


def combined_gain_eigenvalues(h: np.ndarray, w_rf: np.ndarray,
                              w_bb: np.ndarray,
                              f_opt: np.ndarray) -> np.ndarray:
    """Eigenvalues of the noise-whitened effective channel Gram matrix.

    With W = W_RF @ W_BB and T = W^H H F_opt, these are the eigenvalues of
    (W^H W)^{-1/2} T T^H (W^H W)^{-1/2}; the rate at a given SNR is
    sum(log2(1 + snr/N_s * ev)).  Computed via a Cholesky factor of W^H W
    for stability; raises on rank deficiency or significantly negative
    eigenvalues."""
    w = w_rf @ w_bb
    return _gain_eigenvalues(_adjoint(w) @ (h @ f_opt), _adjoint(w) @ w)


def _gain_terms(arch: ReuseArchitecture, sol: SolutionBatch,
                w_opt: np.ndarray, sigma: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """T = W^H H F_opt and the Gram matrix W^H W of a stack of solutions,
    with H F_opt taken as W_opt Sigma per sample (H f_i = sigma_i w_i up to
    a column phase, which cancels in T T^H).  W = diag(u) W_LC W_BB is
    formed row-wise, and its Gram matrix is apd_depth * W_BB^H W_BB."""
    u = np.exp(1j * diagonal_phases(arch, sol.phases))
    w = u[..., None] * np.repeat(sol.w_bb, arch.apd_depth, axis=-2)
    gram = arch.apd_depth * (_adjoint(sol.w_bb) @ sol.w_bb)
    return _adjoint(w) @ (w_opt * sigma[..., None, :]), gram


def _stacked_gain_eigenvalues(items: list[tuple]) -> np.ndarray:
    """``combined_gain_eigenvalues`` of (arch, solutions, W_opt, Sigma)
    items of one N_s, stacked in item order: their N_s x N_s T and Gram
    matrices go through one Cholesky, solve and eigvalsh call, which factor
    each sample alone, so every sample equals its lone value bit for bit.
    Raises if any sample fails."""
    t, gram = zip(*(_gain_terms(*item) for item in items))
    return _gain_eigenvalues(np.concatenate(t), np.concatenate(gram))


def _rates(ev: np.ndarray, n_streams: int, snr_linear_grid) -> np.ndarray:
    """Rate sum(log2(1 + snr * ev / N_s)) over streams at each grid SNR;
    leading axes of ev (..., N_s) are batch axes."""
    snr = np.asarray(snr_linear_grid, dtype=float)
    return np.log2(1.0 + snr[:, None] * ev[..., None, :] / n_streams
                   ).sum(axis=-1)


def _check_snr(snr_linear: float) -> None:
    if not 0 <= snr_linear < np.inf:
        raise ValueError("snr_linear must be finite and >= 0")


def spectral_efficiency(h: np.ndarray, w_rf: np.ndarray, w_bb: np.ndarray,
                        f_opt: np.ndarray, n_streams: int,
                        snr_linear: float) -> float:
    """Achievable rate in bits/s/Hz for one channel, combiner, and SNR."""
    if not (_is_int(n_streams) and w_bb.shape[1] == n_streams
            == f_opt.shape[1]):
        raise ValueError(f"n_streams={n_streams!r} must be an integer equal "
                         f"to the column count of w_bb and f_opt")
    _check_snr(snr_linear)
    ev = combined_gain_eigenvalues(h, w_rf, w_bb, f_opt)
    return float(_rates(ev, n_streams, [snr_linear])[0])


def fully_digital_se(singular_values: np.ndarray, n_streams: int,
                     snr_linear: float) -> float:
    """Rate of the unconstrained digital combiner: the first n_streams
    squared singular values enter the water-free log-det directly.
    n_streams must be an integer in [1, len(singular_values)]."""
    sv = np.asarray(singular_values)
    if not (_is_int(n_streams) and 1 <= n_streams <= sv.size):
        raise ValueError(f"n_streams={n_streams!r} must be an integer in "
                         f"[1, {sv.size}] (the singular values given)")
    _check_snr(snr_linear)
    return float(_rates(sv[:n_streams] ** 2, n_streams, [snr_linear])[0])


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
        if not np.all(np.isfinite(self.snr_db)):
            raise ConfigError("snr_db values must be finite")
        if not all(map(_is_int, (self.trials, self.n_streams, self.seed))):
            raise ConfigError("trials, n_streams and seed must be integers")
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


def _stream_key(unit: EvalUnit) -> tuple[int, ...]:
    """Structural identity of a curve.  Resolution variants of one
    structure share it, and with it their initial phases."""
    arch = unit.arch
    return (_KIND_CODES[unit.kind], arch.n_blocks, arch.lo_depth,
            arch.apd_depth)


def _solver_rngs(seed: int, trials: tuple[int, ...],
                 key: tuple[int, ...]) -> Iterator[np.random.Generator]:
    """Independent init stream per (trial, stream key).  Lazy: the direct
    solver draws nothing, so it builds no stream."""
    return (np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(1, t, *key))) for t in trials)


def _channel_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, trial)))


def _block_references(spec: ExperimentSpec, trials: range
                      ) -> dict[ArrayGeometry, tuple[np.ndarray, np.ndarray]]:
    """Draw each trial's paths once and build, per receive geometry, the
    stacks of W_opt (B, N_r, N_s) and Sigma (B, N_s) of the block.

    The stacks come from ``block_channels`` and ``block_reference``, whose
    rows equal those of one-trial blocks bit for bit.  Raises NumericError
    when some trial's paths are not finite, when a stacked SVD raises, or
    on the rank test of the first geometry, in unit order, that some trial
    fails, in the words of ``optimal_digital_combiner``.
    """
    n_s = spec.n_streams
    paths = Paths.stack([draw_paths(spec.channel, _channel_rng(spec.seed, t))
                         for t in trials])
    if not paths.finite().all():
        raise NumericError("channel matrix contains non-finite entries")
    stacks = {}
    for geometry, channels in block_channels(
            paths, spec.channel.n_tx,
            dict.fromkeys(unit.geometry for unit in spec.units)):
        try:
            w_opt, sigma, ok = block_reference(channels, n_s)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed: {exc}") from exc
        del channels  # free its steering before the next geometry's
        if not ok.all():
            raise NumericError(f"channel rank below n_streams={n_s}: "
                               f"singular values {sigma[np.argmin(ok)]}")
        stacks[geometry] = w_opt, sigma
    return stacks


# A curve maps items (unit, solution batch or None, W_opt, Sigma), all on
# the same trials, to one (trials, n_points) array per item.
Curve = Callable[[list[tuple]], list[np.ndarray]]


def _run_block(spec: ExperimentSpec, trials: range, curve: Curve,
               n_points: int) -> tuple[np.ndarray, dict[int, str]]:
    """Evaluate every curve on one block of trials.

    Every architecture curve is solved once, in one ``solve_stack`` call
    on the stacks of ``_block_references``, and ``curve`` evaluates all
    curves in one call.  A block keeps all of its trials or none: when any
    stage raises, a block of several trials is run again as blocks of one
    trial, and a trial that raises alone fails, NaN in every column.  Every
    value is computed as it would be alone, so the other trials keep their
    bytes.
    """
    try:
        stacks = _block_references(spec, trials)
        curves = {i: u for i, u in enumerate(spec.units) if u.arch is not None}
        streams = {key: _solver_rngs(spec.seed, tuple(trials), key)
                   for key in map(_stream_key, curves.values())}
        solved = dict(zip(curves, solve_stack([
            (unit.arch, stacks[unit.geometry][0], streams[_stream_key(unit)],
             unit.solver) for unit in curves.values()], spec.solver)))
        return np.stack(curve([(unit, solved.get(i), *stacks[unit.geometry])
                               for i, unit in enumerate(spec.units)]),
                        axis=1), {}
    except (NumericError, np.linalg.LinAlgError) as exc:
        if len(trials) == 1:
            return (np.full((1, len(spec.units), n_points), np.nan),
                    {trials[0]: f"trial {trials[0]}: {exc}"})
        done = [_run_block(spec, range(t, t + 1), curve, n_points)
                for t in trials]
        return (np.concatenate([values for values, _ in done]),
                {t: e for _, errors in done for t, e in errors.items()})


def _tabulate(spec: ExperimentSpec, threads: int, curve: Curve, n_points: int,
              sweep_param: str, sweep_value) -> ResultTable:
    """Run ``curve`` for every unit over blocks of trials, stack the
    (units, n_points) values in trial order and reduce each (unit, point)
    column to one row whose sweep value is ``sweep_value(unit, point)``.
    Blocks hold at most TRIAL_BLOCK trials and no more than an even share
    of the trials per thread.

    Failed trials are dropped from every column and reported once at the
    end; every column is reduced over the same kept trials.
    """
    if not (_is_int(threads) and threads >= 1):
        raise ValueError("threads must be an integer >= 1")
    size = min(TRIAL_BLOCK, -(-spec.trials // threads))
    blocks = [range(first, min(first + size, spec.trials))
              for first in range(0, spec.trials, size)]

    def run(block: range):
        return _run_block(spec, block, curve, n_points)

    if threads > 1:
        # imported here: concurrent.futures pulls in logging, which a
        # one-thread run never needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, blocks))
    else:
        done = [run(block) for block in blocks]
    stacked = np.concatenate([values for values, _ in done])
    errors = dict(sorted(item for _, errs in done for item in errs.items()))
    if errors:
        warnings.warn(
            f"{len(errors)} of {spec.trials} trials failed and were excluded "
            f"(first: {next(iter(errors.values()))})", RuntimeWarning)
    kept = np.delete(stacked, list(errors), axis=0)
    n = len(kept)
    if n == 0:
        raise NumericError("no successful trials")

    # one (unit, point) column per row: the row-wise mean and std equal the
    # lone ones of each column bit for bit
    columns = np.ascontiguousarray(kept.reshape(n, -1).T)
    means = columns.mean(axis=1).tolist()
    stderrs = ((columns.std(axis=1, ddof=1) / np.sqrt(n)).tolist() if n > 1
               else [0.0] * len(columns))
    rows: list[ResultRow] = []
    for i, unit in enumerate(spec.units):
        for k in range(n_points):
            c = i * n_points + k
            rows.append(ResultRow(label=unit.label, sweep_param=sweep_param,
                                  sweep_value=float(sweep_value(unit, k)),
                                  mean_se=means[c], stderr=stderrs[c],
                                  trials=n))
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

    def curve(items):
        # the architecture curves from one stacked rate evaluation, and the
        # ideal digital ones once per geometry (the items share their rows)
        hybrid = [(unit.arch, sol, w_opt, sigma)
                  for unit, sol, w_opt, sigma in items if sol is not None]
        rates = iter(np.split(_rates(_stacked_gain_eigenvalues(hybrid), n_s,
                                     snr_linear), len(hybrid))
                     if hybrid else ())
        digital: dict[ArrayGeometry, np.ndarray] = {}
        out = []
        for unit, sol, _, sigma in items:
            if sol is None and unit.geometry not in digital:
                digital[unit.geometry] = _rates(sigma ** 2, n_s, snr_linear)
            out.append(next(rates) if sol is not None
                       else digital[unit.geometry])
        return out

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
    return _tabulate(spec, threads,
                     lambda items: [sol.history for _, sol, *_ in items],
                     spec.solver.max_iterations, "iteration",
                     lambda unit, p: p + 1)
