"""Spectral efficiency and Monte-Carlo experiment orchestration.

The achievable rate uses the pseudoinverse form of the combined receive
filter, which accounts for combiner-colored noise and is invariant to any
invertible right factor of W_RF @ W_BB.  Every curve, an architecture on a
receive geometry, sees the same per-trial channels.  Trials run in blocks
of at most TRIAL_BLOCK, cut smaller so that every worker thread gets one.
The paths of a block are drawn trial by trial, and its references are built
for the whole block at once: one stacked core SVD per receive geometry, and
W_opt where a solve reads it.  ``EvalUnit.method`` picks how a curve is
computed: a direct one with continuous phases and an RF chain per antenna
(apd_depth = 1), as every ideal digital one is, has W = W_opt and is rated
from Sigma; every other one is solved, in one ``solve_stack`` call per
block, and rated from its own rows.  A block's work is ``_run_block`` of
picklable data.  A block whose stages raise is run again one trial at a
time, and a trial that raises alone fails.  Every sample is computed as it
would be alone, and results are aggregated in fixed trial order, so they
depend on neither block size nor scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Collection, Optional

import numpy as np

from .architecture import (TWO_PI, ReuseArchitecture, _is_int,
                           diagonal_phases, is_proportional)
from .arrays import ArrayGeometry
from .channel import ChannelParams, Paths, block_references, draw_paths
from .errors import ArchitectureError, ConfigError, NumericError
# alternating_minimize and the three oracles stay importable here: the
# per-layer benchmark trace patches them at these names.
from .optimizer import (OptimizerConfig, SolutionBatch, alternating_minimize,
                        solve_stack)
from .oracles import channel_matrix, compose_wrf, optimal_digital_combiner

_EIG_FLOOR = -1e-9
_KIND_CODES = {"rydberg": 0, "pc_upa": 1, "pc_nonupa": 2, "ideal_digital": 3}
SOLVE_METHODS = ("auto", "altmin", "direct")  # a curve's solver field
TRIAL_BLOCK = 32  # trials whose curves are solved and rated together
# The rate scales the squared gains, at most about MAX_CLUSTER_POWER * N_t *
# N_r, by the linear SNR; this ceiling, a linear SNR of 1e100, leaves that
# product float range.
MAX_SNR_DB = 1000


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
    """One curve to evaluate: a labeled architecture on a concrete receive
    geometry.  An ideal digital curve is the full-chain architecture of its
    geometry (apd_depth = 1, continuous phases), whose W is W_opt."""

    label: str
    kind: str
    geometry: ArrayGeometry
    arch: ReuseArchitecture
    solver: str = "auto"
    sweep_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ConfigError(f"kind: unknown unit kind {self.kind!r}")
        if self.kind in ("rydberg", "ideal_digital"):
            # its LO offsets are the positions of the geometry's sub-elements
            for field, of in (("n_blocks", "n_blocks"),
                              ("lo_depth", "n_per_block"),
                              ("intra_spacing", "intra_spacing")):
                if getattr(self.arch, field) != getattr(self.geometry, of):
                    raise ConfigError(
                        f"arch: {field} {getattr(self.arch, field)} != "
                        f"geometry {of} {getattr(self.geometry, of)}")
        if self.kind == "ideal_digital" and (
                self.arch.apd_depth, self.arch.resolution_bits) != (1, None):
            raise ConfigError("arch: an ideal digital curve needs apd_depth "
                              "1 and continuous phases")
        if self.arch.n_r != self.geometry.n_elements:
            raise ConfigError(
                f"arch: size {self.arch.n_r} != geometry element "
                f"count {self.geometry.n_elements}")
        if self.solver not in SOLVE_METHODS:
            raise ConfigError(f"solver: unknown solver {self.solver!r} "
                              f"(choose from {SOLVE_METHODS})")
        if self.solver == "direct" and not is_proportional(self.arch):
            raise ConfigError(
                f"solver: 'direct' needs apd_depth={self.arch.apd_depth} "
                f"to divide lo_depth={self.arch.lo_depth}")

    @property
    def method(self) -> str:
        """How a run computes the curve: 'altmin' for solver 'altmin' and
        for reuse that is not proportional (only 'auto' reaches it there);
        else 'sigma' with apd_depth = 1 and continuous phases, where the
        direct solve gives W = W_opt and the rate is that of Sigma; else
        'direct'."""
        if self.solver == "altmin" or not is_proportional(self.arch):
            return "altmin"
        if (self.arch.apd_depth, self.arch.resolution_bits) == (1, None):
            return "sigma"
        return "direct"


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
        if not all(-np.inf < v <= MAX_SNR_DB for v in self.snr_db):
            raise ConfigError(f"snr_db values must be finite and at most "
                              f"{MAX_SNR_DB}")
        dup = [v for i, v in enumerate(self.snr_db) if v in self.snr_db[:i]]
        if dup:
            raise ConfigError(f"duplicate snr_db value {dup[0]:g}")
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
            if self.n_streams > unit.arch.n_chains:
                raise ConfigError(
                    f"{unit.label}: n_streams={self.n_streams} > chain count "
                    f"{unit.arch.n_chains} (need N_s <= chains <= N_r)")
        swept = self.sweep_param != "snr_db"
        if swept and len(self.snr_db) != 1:
            raise ConfigError(
                f"sweep over {self.sweep_param} requires a single SNR point")
        if swept and any(u.sweep_value is None for u in self.units):
            raise ConfigError("every unit needs a sweep_value")
        seen = set()  # one curve per label, and per swept value
        for u in self.units:
            key = (u.label, u.sweep_value if swept else None)
            if key in seen:
                at = f" at {self.sweep_param}={u.sweep_value:g}" if swept else ""
                raise ConfigError(f"duplicate curve label {u.label!r}{at}")
            seen.add(key)


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
        if not (math.isfinite(self.mean_se) and math.isfinite(self.stderr)):
            raise NumericError(f"non-finite mean or stderr in row "
                               f"{self.label!r}")


@dataclass
class ResultTable:
    rows: list[ResultRow]
    sweep_param: str
    seed: int
    failures: int = 0
    name: str = "experiment"


def _start_phases(spec: ExperimentSpec, trials: range) -> dict[int, np.ndarray]:
    """Start phases, by unit index, of the curves of method 'altmin'.  Row
    t is drawn on [0, 2pi) from the stream of trial t and structure (kind,
    n_blocks, lo_depth, apd_depth), once."""
    keys = {i: (_KIND_CODES[u.kind], u.arch.n_blocks, u.arch.lo_depth,
                u.arch.apd_depth)
            for i, u in enumerate(spec.units) if u.method == "altmin"}
    drawn = {key: np.array([np.random.default_rng(np.random.SeedSequence(
        spec.seed, spawn_key=(1, t, *key))).uniform(0.0, TWO_PI, key[1])
        for t in trials]) for key in dict.fromkeys(keys.values())}
    return {i: drawn[key] for i, key in keys.items()}


def _channel_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, trial)))


def _block_references(spec: ExperimentSpec, trials: range,
                      vectors: Optional[Collection[ArrayGeometry]] = None
                      ) -> dict[ArrayGeometry, tuple]:
    """Draw each trial's paths once and build the block's (W_opt, Sigma)
    stacks in one ``block_references`` call, on the units' geometries in
    unit order (a failure names the first that fails), with W_opt on the
    geometries of ``vectors``, or on all of them when it is None."""
    paths = Paths.stack([draw_paths(spec.channel, _channel_rng(spec.seed, t))
                         for t in trials])
    return block_references(paths, spec.channel.n_tx, spec.n_streams,
                            [unit.geometry for unit in spec.units], vectors)


def _curve_rates(spec: ExperimentSpec, stacks: dict, solutions: dict,
                 snr_linear: np.ndarray) -> list[np.ndarray]:
    """One (trials, SNR points) rate array per curve: the solved curves,
    ``solutions`` by unit index, from one stacked rate evaluation, and the
    others from Sigma once per geometry (they share their rows)."""
    n_s = spec.n_streams
    rates = iter(np.split(_rates(_stacked_gain_eigenvalues([
        (spec.units[i].arch, sol, *stacks[spec.units[i].geometry])
        for i, sol in solutions.items()]), n_s, snr_linear), len(solutions))
                 if solutions else ())
    digital = {g: _rates(stacks[g][1] ** 2, n_s, snr_linear) for g in
               dict.fromkeys(u.geometry for i, u in enumerate(spec.units)
                             if i not in solutions)}
    return [next(rates) if i in solutions else digital[u.geometry]
            for i, u in enumerate(spec.units)]


def _run_block(spec: ExperimentSpec, trials: range,
               snr_linear: Optional[np.ndarray]
               ) -> tuple[np.ndarray, dict[int, str]]:
    """Evaluate every curve on one block of trials: its rates on the
    ``snr_linear`` grid, or, when that is None, the residual history of
    its solve, every curve being solved.

    Every curve whose method is not 'sigma' is solved once, in one
    ``solve_stack`` call on the stacks of ``_block_references``, from its
    ``_start_phases`` or else directly.  A block keeps all of its trials or
    none: when any stage raises, a block of several trials is run again as
    blocks of one trial, and a trial that raises alone fails, NaN in every
    column.  Every value is computed as it would be alone, so the other
    trials keep their bytes.
    """
    solved = {i: u for i, u in enumerate(spec.units) if u.method != "sigma"}
    try:
        stacks = _block_references(spec, trials,
                                   {u.geometry for u in solved.values()})
        starts = _start_phases(spec, trials)
        solutions = dict(zip(solved, solve_stack([
            (u.arch, stacks[u.geometry][0], starts.get(i))
            for i, u in solved.items()], spec.solver)))
        values = ([sol.history for sol in solutions.values()]
                  if snr_linear is None
                  else _curve_rates(spec, stacks, solutions, snr_linear))
        return np.stack(values, axis=1), {}
    except (NumericError, np.linalg.LinAlgError) as exc:
        if len(trials) == 1:
            n_points = (spec.solver.max_iterations if snr_linear is None
                        else len(snr_linear))
            return (np.full((1, len(spec.units), n_points), np.nan),
                    {trials[0]: f"trial {trials[0]}: {exc}"})
        done = [_run_block(spec, range(t, t + 1), snr_linear) for t in trials]
        return (np.concatenate([values for values, _ in done]),
                {t: e for _, errors in done for t, e in errors.items()})


def _tabulate(spec: ExperimentSpec, threads: int,
              snr_linear: Optional[np.ndarray], sweep_param: str,
              sweep_value) -> ResultTable:
    """Run ``_run_block`` on ``snr_linear`` over blocks of trials, stack the
    (units, points) values in trial order and reduce each (unit, point)
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
    work = (repeat(spec), blocks, repeat(snr_linear))
    if threads > 1:
        # imported here: concurrent.futures pulls in logging, which a
        # one-thread run never needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(_run_block, *work))
    else:
        done = list(map(_run_block, *work))
    stacked = np.concatenate([values for values, _ in done])
    errors = dict(sorted(item for _, errs in done for item in errs.items()))
    if errors:
        warnings.warn(
            f"{len(errors)} of {spec.trials} trials failed and were excluded "
            f"(first: {next(iter(errors.values()))})", RuntimeWarning)
    kept = np.delete(stacked, list(errors), axis=0)
    n, _, n_points = kept.shape
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
    curve is computed by its ``EvalUnit.method`` and rated for a block of
    trials at once, and ``threads`` workers take whole blocks, with blocks
    cut so that each worker gets one.  Results are aggregated in fixed trial
    order, so they are independent of the block size and thread count.
    """
    return _tabulate(
        spec, threads, 10.0 ** (np.asarray(spec.snr_db) / 10.0),
        spec.sweep_param,
        lambda unit, k: (spec.snr_db[k] if spec.sweep_param == "snr_db"
                         else unit.sweep_value))


def run_convergence(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Record alternating-minimization residual trajectories instead of
    rates, whatever solver the curves name.

    Rows carry the mean residual (in the value column) per iteration index;
    runs that converge early are padded with their final residual.  An
    ideal digital curve has W = W_opt and no solver to trace.
    """
    for unit in spec.units:
        if unit.kind == "ideal_digital":
            raise ConfigError(f"{unit.label}: convergence traces do not take "
                              "ideal digital curves")
    spec = replace(spec, units=tuple(replace(unit, solver="altmin")
                                     for unit in spec.units))
    return _tabulate(spec, threads, None, "iteration", lambda unit, p: p + 1)
