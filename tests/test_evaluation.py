import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rydcomb import (ArchitectureError, ArrayGeometry,
                     ChannelParams, ConfigError, EvalUnit,
                     ExperimentSpec, NumericError, OptimizerConfig,
                     ReuseArchitecture, alternating_minimize, channel_matrix,
                     compose_wrf, draw_paths, fully_digital_se,
                     optimal_digital_combiner, pc_architecture,
                     run_convergence, run_experiment, spectral_efficiency)
from rydcomb import evaluation
from rydcomb.architecture import is_proportional
from rydcomb.channel import Paths, block_references
from rydcomb.cli import main, parse_config
from rydcomb.optimizer import solve_stack


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def known_sv_channel(rng, n_rx, n_tx, singular_values):
    """Channel with prescribed singular values (oracle construction)."""
    u = rand_unitary(rng, n_rx)
    v = rand_unitary(rng, n_tx)
    s = np.zeros((n_rx, n_tx))
    for i, sv in enumerate(singular_values):
        s[i, i] = sv
    return u @ s @ v.conj().T


def nonupa(n_blocks, depth):
    return ArrayGeometry(n_blocks, depth)


def ideal_unit(label, geometry, **fields):
    """The ideal digital curve of a geometry: its full-chain architecture,
    an RF chain per antenna and continuous phases."""
    arch = ReuseArchitecture(geometry.n_blocks, geometry.n_per_block,
                             intra_spacing=geometry.intra_spacing)
    return EvalUnit(label=label, kind="ideal_digital", geometry=geometry,
                    arch=arch, **fields)


def start_phases(arch, rngs):
    """The start phases that generators draw for alternating minimization,
    one row per target."""
    return np.array([rng.uniform(0, 2 * np.pi, arch.n_blocks) for rng in rngs])


def small_spec(**overrides):
    geometry = nonupa(4, 2)
    arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=2)
    units = (
        EvalUnit(label="reuse", kind="rydberg", geometry=geometry, arch=arch),
        ideal_unit("digital", geometry),
    )
    base = dict(
        channel=ChannelParams(n_tx=16, n_clusters=3, n_rays=4),
        units=units, n_streams=2, snr_db=(-10.0, 0.0, 10.0), trials=6, seed=11)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpectralEfficiency:
    def test_known_singular_values_closed_form(self):
        # with the combiner equal to the digital optimum the rate is
        # sum_k log2(1 + snr * sigma_k^2 / n_streams)
        rng = np.random.default_rng(0)
        h = known_sv_channel(rng, 4, 5, [2.0, 1.0])
        ref = optimal_digital_combiner(h, 1)
        se = spectral_efficiency(h, np.eye(4), ref.w_opt, ref.f_opt, 1, 1.0)
        assert se == pytest.approx(np.log2(1 + 4.0), abs=1e-10)
        assert se == pytest.approx(2.3219, abs=1e-3)

    def test_zero_snr_gives_zero(self):
        rng = np.random.default_rng(1)
        h = rand_complex(rng, (6, 6))
        ref = optimal_digital_combiner(h, 2)
        se = spectral_efficiency(h, np.eye(6), ref.w_opt, ref.f_opt, 2, 0.0)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_right_factor_invariance(self):
        rng = np.random.default_rng(2)
        h = rand_complex(rng, (8, 8))
        ref = optimal_digital_combiner(h, 3)
        arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=2)
        w_rf = compose_wrf(arch, rng.uniform(0, 2 * np.pi, 4))
        w_bb = rand_complex(rng, (4, 3))
        base = spectral_efficiency(h, w_rf, w_bb, ref.f_opt, 3, 2.0)
        scaled = spectral_efficiency(h, w_rf, w_bb @ np.diag([0.3, -2.0, 5j]),
                                     ref.f_opt, 3, 2.0)
        invertible = rand_complex(rng, (3, 3))
        mixed = spectral_efficiency(h, w_rf, w_bb @ invertible, ref.f_opt, 3,
                                    2.0)
        assert scaled == pytest.approx(base, abs=1e-10)
        assert mixed == pytest.approx(base, abs=1e-10)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(3)
        h = rand_complex(rng, (6, 6))
        ref = optimal_digital_combiner(h, 2)
        values = [spectral_efficiency(h, np.eye(6), ref.w_opt, ref.f_opt, 2, s)
                  for s in (0.0, 0.5, 1.0, 4.0, 10.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)

    def test_rank_deficient_combiner_rejected(self):
        rng = np.random.default_rng(4)
        h = rand_complex(rng, (4, 4))
        ref = optimal_digital_combiner(h, 2)
        w_bb = np.zeros((4, 2), dtype=complex)
        with pytest.raises(NumericError):
            spectral_efficiency(h, np.eye(4), w_bb, ref.f_opt, 2, 1.0)

    def test_fully_digital_closed_form_matches_general_path(self):
        rng = np.random.default_rng(5)
        h = rand_complex(rng, (9, 9))
        ref = optimal_digital_combiner(h, 3)
        for snr in (0.1, 1.0, 10.0):
            direct = fully_digital_se(ref.singular_values, 3, snr)
            general = spectral_efficiency(h, np.eye(9), ref.w_opt, ref.f_opt,
                                          3, snr)
            assert direct == pytest.approx(general, abs=1e-10)


    @pytest.mark.parametrize("least,raises", [(-1e-6, True), (-1e-10, False)])
    def test_eigenvalue_floor(self, monkeypatch, least, raises):
        # an eigenvalue below _EIG_FLOOR = -1e-9 is an indefinite channel;
        # one just below 0, from rounding, is clipped to 0
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: np.array([[least, 2.0]]))
        t = gram = np.eye(2)[None]
        if raises:
            with pytest.raises(NumericError,
                               match="indefinite effective channel"):
                evaluation._gain_eigenvalues(t, gram)
        else:
            np.testing.assert_array_equal(
                evaluation._gain_eigenvalues(t, gram), [[0.0, 2.0]])

    def test_fully_digital_bad_input_rejected(self):
        sv = np.array([2.0, 1.0])
        for n_streams in (0, 3):
            with pytest.raises(ValueError, match="n_streams"):
                fully_digital_se(sv, n_streams, 1.0)
        for snr in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="snr_linear"):
                fully_digital_se(sv, 2, snr)

    @pytest.mark.parametrize("n_streams", [2.0, True])
    def test_non_integer_n_streams_rejected(self, n_streams):
        # a float or a bool is no stream count, even one equal to an
        # integer
        rng = np.random.default_rng(7)
        h = rand_complex(rng, (4, 4))
        ref = optimal_digital_combiner(h, int(n_streams))
        with pytest.raises(ValueError, match="n_streams.*must be an integer"):
            optimal_digital_combiner(h, n_streams)
        with pytest.raises(ValueError, match="n_streams.*must be an integer"):
            fully_digital_se(ref.singular_values, n_streams, 1.0)
        with pytest.raises(ValueError, match="n_streams.*must be an integer"):
            spectral_efficiency(h, np.eye(4), ref.w_opt, ref.f_opt,
                                n_streams, 1.0)

    def test_non_finite_snr_rejected(self):
        rng = np.random.default_rng(6)
        h = rand_complex(rng, (4, 4))
        ref = optimal_digital_combiner(h, 2)
        for snr in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="snr_linear"):
                spectral_efficiency(h, np.eye(4), ref.w_opt, ref.f_opt, 2, snr)


class TestEvaluateArchitecture:
    """The block rate of a solved architecture, as a run forms it, against
    the dense ``spectral_efficiency`` of W_RF W_BB on the same channel."""

    @pytest.mark.parametrize("lo,apd", [(6, 4), (6, 3)])
    def test_rates_match_dense_combiner(self, lo, apd):
        geometry = nonupa(16, lo)
        params = ChannelParams(n_tx=36)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=lo, apd_depth=apd)
        snr = 10.0 ** (np.array([-10.0, 0.0, 10.0]) / 10.0)
        for seed in range(3):
            h = channel_matrix(draw_paths(params, np.random.default_rng(seed)),
                               36, geometry)
            ref = optimal_digital_combiner(h, 3)
            w_opt = ref.w_opt[None]
            # 'auto': direct on proportional reuse, else alternating
            start = None if is_proportional(arch) else start_phases(
                arch, [np.random.default_rng(seed)])
            sol = solve_stack([(arch, w_opt, start)], None)[0]
            ev = evaluation._stacked_gain_eigenvalues(
                [(arch, sol, w_opt, ref.singular_values[None, :3])])[0]
            w_rf = compose_wrf(arch, sol.phases[0])
            dense = [spectral_efficiency(h, w_rf, sol.w_bb[0], ref.f_opt, 3, s)
                     for s in snr]
            np.testing.assert_allclose(evaluation._rates(ev, 3, snr), dense,
                                       rtol=1e-10)


class TestConventionalPc:
    def test_full_chain_count_is_fully_digital(self):
        rng = np.random.default_rng(6)
        geometry = ArrayGeometry(16, 1)
        w_opt = np.linalg.qr(rand_complex(rng, (16, 3)))[0][:, :3]
        arch = pc_architecture(geometry.n_elements, 16)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        assert sol.residual < 1e-8

    def test_row_count_checked(self):
        geometry = ArrayGeometry(16, 1)
        arch = pc_architecture(geometry.n_elements, 4)
        with pytest.raises(ValueError):
            alternating_minimize(arch, np.zeros((9, 2), dtype=complex))

    def test_pc_architecture_shape(self):
        arch = pc_architecture(144, 12)
        assert arch.n_blocks == 144
        assert arch.lo_depth == 1
        assert arch.apd_depth == 12
        with pytest.raises(ArchitectureError):
            pc_architecture(144, 13)


class TestRunExperiment:
    def test_deterministic_rerun(self):
        t1 = run_experiment(small_spec())
        t2 = run_experiment(small_spec())
        assert [(r.label, r.sweep_value, r.mean_se, r.stderr) for r in t1.rows] \
            == [(r.label, r.sweep_value, r.mean_se, r.stderr) for r in t2.rows]

    def test_thread_count_invariant(self):
        t1 = run_experiment(small_spec(), threads=1)
        t4 = run_experiment(small_spec(), threads=4)
        assert [(r.mean_se, r.stderr) for r in t1.rows] \
            == [(r.mean_se, r.stderr) for r in t4.rows]

    def test_row_layout(self):
        table = run_experiment(small_spec())
        assert len(table.rows) == 2 * 3
        assert {r.label for r in table.rows} == {"reuse", "digital"}
        assert all(r.sweep_param == "snr_db" for r in table.rows)
        assert all(r.trials == 6 for r in table.rows)
        assert table.failures == 0

    def test_paired_channels_give_identical_digital_curves(self):
        # two digital units on the same geometry must coincide exactly
        geometry = nonupa(4, 2)
        spec = small_spec(units=(
            ideal_unit("a", geometry),
            ideal_unit("b", geometry),
        ))
        table = run_experiment(spec)
        a = [r.mean_se for r in table.rows if r.label == "a"]
        b = [r.mean_se for r in table.rows if r.label == "b"]
        assert a == b

    def test_digital_dominates_hybrid_rows(self):
        table = run_experiment(small_spec())
        means = {(r.label, r.sweep_value): r.mean_se for r in table.rows}
        for snr in (-10.0, 0.0, 10.0):
            assert means[("digital", snr)] >= means[("reuse", snr)] - 1e-9

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            small_spec(units=())
        with pytest.raises(ConfigError):
            small_spec(trials=0)
        with pytest.raises(ConfigError):
            small_spec(snr_db=())
        with pytest.raises(ConfigError, match="chains"):
            # 8 antennas, 8-deep adders -> single chain < 2 streams
            geometry = nonupa(4, 2)
            arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=8)
            small_spec(units=(EvalUnit(label="x", kind="rydberg",
                                       geometry=geometry, arch=arch),))

    def test_unit_validation(self):
        geometry = nonupa(4, 2)
        with pytest.raises(TypeError, match="arch"):
            EvalUnit(label="x", kind="rydberg", geometry=geometry)
        with pytest.raises(ConfigError, match="unknown unit kind"):
            EvalUnit(label="x", kind="nonsense", geometry=geometry,
                     arch=ReuseArchitecture(n_blocks=4, lo_depth=2))
        with pytest.raises(ConfigError):
            EvalUnit(label="x", kind="rydberg", geometry=geometry,
                     arch=ReuseArchitecture(n_blocks=9, lo_depth=2,
                                            apd_depth=2))

    @pytest.mark.parametrize("arch, message", [
        (ReuseArchitecture(72, 3, 4), "n_blocks 72 != geometry n_blocks 36"),
        (ReuseArchitecture(36, 4, 4), "lo_depth 4 != geometry n_per_block 6"),
        (ReuseArchitecture(36, 6, 4, intra_spacing=0.4),
         "intra_spacing 0.4 != geometry intra_spacing 0.05")])
    def test_rydberg_blocks_are_the_geometry_blocks(self, arch, message):
        # a reuse unit's LO offsets come from its geometry's sub-elements
        geometry = ArrayGeometry(36, 6)
        with pytest.raises(ConfigError, match=f"arch: {message}"):
            EvalUnit(label="x", kind="rydberg", geometry=geometry, arch=arch)
        assert EvalUnit(label="x", kind="rydberg", geometry=geometry,
                        arch=ReuseArchitecture(36, 6, 4)).arch.n_r == 216

    @pytest.mark.parametrize("arch, message", [
        (ReuseArchitecture(36, 6, 2), "an ideal digital curve needs "
         "apd_depth 1 and continuous phases"),
        (ReuseArchitecture(36, 6, resolution_bits=1), "an ideal digital "
         "curve needs apd_depth 1 and continuous phases"),
        (ReuseArchitecture(36, 1), "lo_depth 1 != geometry n_per_block 6"),
        (ReuseArchitecture(36, 6, intra_spacing=0.1),
         "intra_spacing 0.1 != geometry intra_spacing 0.05")])
    def test_ideal_digital_is_the_full_chain_architecture(self, arch,
                                                          message):
        # an ideal digital curve is its geometry's architecture with an RF
        # chain per antenna and continuous phases, whose W is W_opt
        geometry = ArrayGeometry(36, 6)
        with pytest.raises(ConfigError, match=f"arch: {message}"):
            EvalUnit(label="x", kind="ideal_digital", geometry=geometry,
                     arch=arch)
        assert ideal_unit("x", geometry).arch == ReuseArchitecture(36, 6)

    def test_solver_checked_at_construction(self, monkeypatch):
        def no_channels(*args):
            raise AssertionError("a channel was drawn")
        monkeypatch.setattr(evaluation, "draw_paths", no_channels)
        geometry = nonupa(4, 2)
        arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=4)
        with pytest.raises(ConfigError, match="'direct' needs apd_depth=4"):
            EvalUnit(label="x", kind="rydberg", geometry=geometry, arch=arch,
                     solver="direct")
        with pytest.raises(ConfigError, match="unknown solver 'exhaustive'"):
            EvalUnit(label="x", kind="rydberg", geometry=geometry, arch=arch,
                     solver="exhaustive")


class TestRunConvergence:
    def test_mean_residual_nonincreasing(self):
        geometry = nonupa(16, 6)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4)
        spec = ExperimentSpec(
            channel=ChannelParams(n_tx=16, n_clusters=3, n_rays=4),
            units=(EvalUnit(label="trace", kind="rydberg", geometry=geometry,
                            arch=arch),),
            n_streams=2, snr_db=(0.0,), trials=5, seed=3,
            solver=OptimizerConfig(epsilon=1e-12, max_iterations=15))
        table = run_convergence(spec)
        values = [r.mean_se for r in table.rows]
        assert len(values) == 15
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert table.sweep_param == "iteration"

    def test_digital_units_rejected(self):
        spec = small_spec()
        with pytest.raises(ConfigError, match="digital: convergence traces "
                                              "do not take ideal digital"):
            run_convergence(spec)


def trial_values(spec, threads=1):
    """``run_experiment``'s table, each trial's (units, points) values and
    the failed trials' errors, recorded from every ``_run_block`` call.  A
    block run again one trial at a time returns the values of its blocks of
    one, so every call that holds a trial records the same values for it."""
    values, errors = {}, {}
    run_block = evaluation._run_block

    def recording(spec, trials, *args):
        out, errs = run_block(spec, trials, *args)
        values.update(zip(trials, out))
        errors.update(errs)
        return out, errs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_run_block", recording)
        table = run_experiment(spec, threads=threads)
    return table, np.stack([values[t] for t in range(spec.trials)]), errors


class TestFailedTrials:
    """A trial that fails anywhere loses its value for every curve; the
    other trials of its block keep theirs.  Every injection is keyed on the
    trial's own draw, so it holds under any thread count."""

    BAD = 2

    def _watch(self, monkeypatch, replace_paths=None):
        """Record the block stage's draws, as (trial, paths);
        ``replace_paths`` makes trial BAD's paths of its draw.  The trial
        rides from ``_channel_rng`` to ``draw_paths`` with its generator.
        No trial may be run again alone through the single-channel oracle."""
        drawn = []
        channel_rng = evaluation._channel_rng
        paths_of = evaluation.draw_paths

        def recording_draw(params, tagged):
            trial, rng = tagged
            paths = paths_of(params, rng)
            if replace_paths is not None and trial == self.BAD:
                paths = replace_paths(paths)
            drawn.append((trial, paths))
            return paths

        def lone(*args):
            raise AssertionError("a trial was run again alone")

        monkeypatch.setattr(evaluation, "channel_matrix", lone)
        monkeypatch.setattr(evaluation, "optimal_digital_combiner", lone)
        monkeypatch.setattr(evaluation, "_channel_rng",
                            lambda seed, t: (t, channel_rng(seed, t)))
        monkeypatch.setattr(evaluation, "draw_paths", recording_draw)
        return drawn

    def _fail_trials(self, monkeypatch, fails):
        """Fail each trial of ``fails`` in every block stage call that holds
        it.  A text fails its reference: the stage's own SVD, which runs on
        every geometry, raises LinAlgError with it, and the stage words it
        as its own failure; the SVD of other threads is untouched.  A
        function maps the trial's combining target, on every geometry where
        the stage forms one.  The trial's row is the one that holds its own
        draw's gains."""
        drawn = self._watch(monkeypatch)
        armed = threading.local()
        svd = np.linalg.svd

        def failing_svd(*args, **kwargs):
            if getattr(armed, "text", None) is not None:
                raise np.linalg.LinAlgError(armed.text)
            return svd(*args, **kwargs)

        def failing(stage):
            def failed(paths, *args):
                rows = {}
                for trial, draw in drawn:
                    r = np.flatnonzero((paths.gains == draw.gains).all(axis=1))
                    if trial in fails and r.size:
                        rows[trial] = r
                texts = [fails[t] for t in rows if isinstance(fails[t], str)]
                if texts:
                    armed.text = texts[0]
                    try:
                        stage(paths, *args)
                    finally:
                        armed.text = None
                    raise AssertionError("the stage did not raise")
                stacks = stage(paths, *args)
                for w_opt, _ in stacks.values():
                    for trial, r in rows.items():
                        if w_opt is not None:
                            w_opt[r] = fails[trial](w_opt[r])
                return stacks
            return failed

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        monkeypatch.setattr(evaluation, "block_references",
                            failing(evaluation.block_references))

    def _fail_trial(self, monkeypatch, fail):
        self._fail_trials(monkeypatch, {self.BAD: fail})

    def _check_contained(self, spec, clean=None):
        """One failed trial, BAD, named in the one warning; with ``clean``,
        the values of a run without the failure, trial BAD is NaN in every
        column and every other trial keeps its values bit for bit."""
        with pytest.warns(RuntimeWarning) as record:
            table, values, _ = trial_values(spec)
        assert table.failures == 1
        assert all(r.trials == spec.trials - 1 for r in table.rows)
        messages = [str(w.message) for w in record
                    if issubclass(w.category, RuntimeWarning)]
        assert len(messages) == 1
        assert f"trial {self.BAD}:" in messages[0]
        if clean is not None:
            assert np.isnan(values[self.BAD]).all()
            np.testing.assert_array_equal(np.delete(values, self.BAD, 0),
                                          np.delete(clean, self.BAD, 0))
        return messages[0]

    def test_non_finite_paths_drop_one_trial(self, monkeypatch):
        def nan_gain(paths):
            gains = paths.gains.copy()
            gains[3] = np.nan
            return replace(paths, gains=gains)
        spec = small_spec(trials=6)
        clean = trial_values(spec)[1]
        self._watch(monkeypatch, nan_gain)
        message = self._check_contained(spec, clean)
        assert message.endswith(
            "trial 2: channel matrix contains non-finite entries)")

    def test_rank_deficient_paths_drop_one_trial(self, monkeypatch):
        # every path a copy of the first: rank 1, below the 2 streams
        def one_path(paths):
            return Paths(**{k: v[np.zeros(v.size, dtype=int)]
                            for k, v in vars(paths).items()})
        # two geometries, both rank deficient for the trial, with different
        # singular values: the first in unit order names the failure
        spec = small_spec(trials=6, units=small_spec().units + (
            ideal_unit("UPA digital", ArrayGeometry(16, 1)),))
        clean = trial_values(spec)[1]
        self._watch(monkeypatch, one_path)
        message = self._check_contained(spec, clean)
        assert "rank below n_streams=2" in message
        # the text is the one the block stage raises for trial BAD alone
        with pytest.raises(NumericError) as alone:
            evaluation._block_references(spec, range(self.BAD, self.BAD + 1))
        assert message.endswith(f"trial {self.BAD}: {alone.value})")

    def test_zero_gain_paths_drop_one_trial(self, monkeypatch):
        # finite paths of zero gain: the rank test fails the trial, and the
        # zero singular values divide nothing on the way
        def zero_gain(paths):
            return replace(paths, gains=np.zeros_like(paths.gains))
        self._watch(monkeypatch, zero_gain)
        spec = small_spec(trials=6, units=small_spec().units + (
            ideal_unit("UPA digital", ArrayGeometry(16, 1)),))
        message = self._check_contained(spec)
        assert message.endswith(f"trial {self.BAD}: channel rank below "
                                f"n_streams=2: singular values [0. 0.])")

    explode = "synthetic SVD failure"

    def test_reference_failure_drops_one_trial(self, monkeypatch):
        self._fail_trial(monkeypatch, self.explode)
        self._check_contained(small_spec(trials=6))

    @staticmethod
    def zero_target(w_opt):
        # W_BB = 0 for a zero target, so the rate's Cholesky factor fails
        return np.zeros_like(w_opt)

    def rate_failure_spec(self):
        # the digital curve comes first, so the failing trial has a value
        # for it before the hybrid curve's rate fails for that sample
        return small_spec(trials=6, units=tuple(reversed(small_spec().units)))

    def test_rate_failure_drops_one_trial(self, monkeypatch):
        self._fail_trial(monkeypatch, self.zero_target)
        self._check_contained(self.rate_failure_spec())

    def shared_stack_spec(self):
        # fig10's upa_pc and nonupa_pc: one partially-connected
        # architecture on two geometries, solved as one stack
        arch = pc_architecture(16, 4)
        return small_spec(trials=6, units=(
            ideal_unit("digital", nonupa(4, 4)),
            EvalUnit(label="UPA PC", kind="pc_upa", arch=arch,
                     geometry=ArrayGeometry(16, 1),
                     solver="altmin"),
            EvalUnit(label="non-UPA PC", kind="pc_nonupa", arch=arch,
                     geometry=nonupa(4, 4), solver="altmin")))

    def test_rate_failure_in_shared_stack_drops_one_trial(self, monkeypatch):
        spec = self.shared_stack_spec()
        clean = trial_values(spec)[1]
        self._fail_trial(monkeypatch, self.zero_target)
        self._check_contained(spec, clean)

    def test_failures_independent_of_threads(self, monkeypatch):
        # a reference failure in trial 2 and a rate failure in trial 4: at
        # two threads the blocks are trials 0-2 and 3-5
        self._fail_trials(monkeypatch, {self.BAD: self.explode,
                                        4: self.zero_target})
        runs = []
        for threads in (1, 2):
            with pytest.warns(RuntimeWarning) as record:
                table = run_experiment(self.rate_failure_spec(),
                                       threads=threads)
            runs.append(([(r.mean_se, r.stderr, r.trials)
                          for r in table.rows], table.failures,
                         [str(w.message) for w in record]))
        assert runs[0] == runs[1]
        rows, failures, messages = runs[0]
        assert failures == 2 and all(n == 4 for *_, n in rows)
        assert messages == ["2 of 6 trials failed and were excluded (first: "
                            "trial 2: SVD failed: synthetic SVD failure)"]

    def test_rate_failure_independent_of_block_size(self, monkeypatch):
        self._fail_trial(monkeypatch, self.zero_target)
        rows = []
        for block in (1, 4, evaluation.TRIAL_BLOCK):
            monkeypatch.setattr(evaluation, "TRIAL_BLOCK", block)
            with pytest.warns(RuntimeWarning):
                table = run_experiment(self.rate_failure_spec())
            rows.append([(r.mean_se, r.stderr, r.trials) for r in table.rows])
        assert rows[0] == rows[1] == rows[2]

    def test_reference_failure_in_shared_stack_keeps_rows(self, monkeypatch):
        # the stack is solved on the trials whose references succeeded;
        # each curve must still read its own rows, as when solved alone in
        # blocks of one trial, where no row is left to map
        self._fail_trial(monkeypatch, self.explode)
        spec = self.shared_stack_spec()
        self._check_contained(spec)
        with pytest.warns(RuntimeWarning):
            stacked = run_experiment(spec)
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 1)
        alone = []
        for unit in spec.units:
            with pytest.warns(RuntimeWarning):
                alone += run_experiment(replace(spec, units=(unit,))).rows
        assert [(r.mean_se, r.stderr, r.trials) for r in stacked.rows] \
            == [(r.mean_se, r.stderr, r.trials) for r in alone]

    def test_one_stack_solve_per_block(self, monkeypatch):
        # a direct curve, two alternating block structures and a digital
        # curve: one solve_stack call per block covers every arch curve
        calls = []
        solve_stack = evaluation.solve_stack

        def recording(segments, *args):
            calls.append([arch for arch, *_ in segments])
            return solve_stack(segments, *args)

        geometry = nonupa(4, 2)
        units = (
            EvalUnit(label="direct", kind="rydberg", geometry=geometry,
                     arch=ReuseArchitecture(n_blocks=4, lo_depth=2,
                                            apd_depth=2)),
            EvalUnit(label="altmin", kind="rydberg", geometry=geometry,
                     arch=ReuseArchitecture(n_blocks=4, lo_depth=2,
                                            apd_depth=4)),
            ideal_unit("digital", geometry),
            EvalUnit(label="UPA PC", kind="pc_upa",
                     arch=pc_architecture(16, 4),
                     geometry=ArrayGeometry(16, 1),
                     solver="altmin"))
        monkeypatch.setattr(evaluation, "solve_stack", recording)
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 3)
        run_experiment(small_spec(trials=6, units=units))
        archs = [u.arch for u in units if u.kind != "ideal_digital"]
        assert calls == [archs, archs]

    @pytest.mark.parametrize("block", [4, evaluation.TRIAL_BLOCK])
    @pytest.mark.parametrize("fail", ["explode", "zero_target"])
    def test_failed_trial_is_nan_in_every_column(self, monkeypatch, fail,
                                                 block):
        # a reference failure and a rate failure alike: the failed trial's
        # row is NaN for every curve and point, and every other row is
        # finite.  In the rate failure, the digital curve (first) has a
        # value for trial BAD before the hybrid curve fails.
        self._fail_trial(monkeypatch, getattr(self, fail))
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", block)
        with pytest.warns(RuntimeWarning):
            _, values, errors = trial_values(self.rate_failure_spec())
        assert list(errors) == [self.BAD]
        assert np.isnan(values[self.BAD]).all()
        assert np.isfinite(np.delete(values, self.BAD, axis=0)).all()

    def test_rank_failures_from_the_data(self, monkeypatch, configs_dir):
        # tests/configs/rank_fail.json: two paths for two streams, one of
        # them 1e-28 weaker, so some trials fail the rank test on their own
        # draw, with no injection; the count is not pinned, since the last
        # bits of a singular value depend on the BLAS build and threads
        spec, _ = parse_config(
            configs_dir.parent / "tests/configs/rank_fail.json", "sweep-snr")
        runs = []
        for block in (1, 4, 32):
            monkeypatch.setattr(evaluation, "TRIAL_BLOCK", block)
            for threads in (1, 2):
                with pytest.warns(RuntimeWarning):
                    table, _, errors = trial_values(spec, threads)
                assert table.failures == len(errors) > 0
                assert all(text.startswith(
                    f"trial {t}: channel rank below n_streams=2: singular "
                    "values ") for t, text in errors.items())
                runs.append(([(r.mean_se, r.stderr, r.trials)
                              for r in table.rows], sorted(errors)))
        assert all(run == runs[0] for run in runs)


def _column_oracle(values: np.ndarray) -> tuple[float, float, int]:
    """Mean and std(ddof=1)/sqrt(n) of one column's finite values."""
    ok = values[np.isfinite(values)]
    n = ok.size
    stderr = float(np.std(ok, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(ok)), stderr, n


class TestTabulate:
    """``_tabulate`` over blocks with failed trials against a per-column
    reduction of each column's finite values."""

    N_POINTS = 3

    def _fake_blocks(self, monkeypatch, failed):
        """``_run_block`` as a stand-in: random values per trial, and NaN
        in every column of a failed trial."""
        def run_block(spec, trials, snr_linear):
            values = np.stack([np.random.default_rng(t).uniform(
                0.5, 20.0, (len(spec.units), len(snr_linear)))
                for t in trials])
            errors = {t: f"trial {t}: synthetic" for t in trials
                      if t in failed}
            values[[t - trials.start for t in errors]] = np.nan
            return values, errors

        monkeypatch.setattr(evaluation, "_run_block", run_block)

    def _tabulate(self, spec, threads):
        return evaluation._tabulate(spec, threads, np.ones(self.N_POINTS),
                                    "snr_db", lambda unit, k: spec.snr_db[k])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("trials,failed", [
        (3, (0, 2)), (7, (1, 4)), (200, (5, 77, 150, 199))])
    def test_equals_per_column_oracle(self, monkeypatch, trials, failed,
                                      threads):
        self._fake_blocks(monkeypatch, failed)
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 3)
        spec = small_spec(trials=trials)
        with pytest.warns(RuntimeWarning) as record:
            table = self._tabulate(spec, threads)
        assert table.failures == len(failed)
        assert [str(w.message) for w in record] == [
            f"{len(failed)} of {trials} trials failed and were excluded "
            f"(first: trial {failed[0]}: synthetic)"]
        values = np.stack([np.random.default_rng(t).uniform(
            0.5, 20.0, (len(spec.units), self.N_POINTS))
            for t in range(trials)])
        values[list(failed)] = np.nan
        columns = values.reshape(trials, -1).T
        assert [(r.mean_se, r.stderr, r.trials) for r in table.rows] == [
            _column_oracle(c) for c in columns]
        assert all(r.trials == trials - len(failed) for r in table.rows)

    def test_no_kept_trial_raises(self, monkeypatch):
        self._fake_blocks(monkeypatch, (0, 1, 2))
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericError, match="no successful trials"):
            self._tabulate(small_spec(trials=3), 1)


class TestBlockReferences:
    """The block reference stage against blocks of one trial and the dense
    SVD."""

    CONFIGS = [("smoke", "sweep-snr"), ("fig5", "sweep-snr"),
               ("fig6a", "sweep-snr"), ("fig6b", "sweep-snr"),
               ("fig7", "sweep-snr"), ("fig8", "sweep-snr"),
               ("fig9", "sweep-snr"), ("fig10", "sweep-chains"),
               ("convergence", "convergence")]

    @pytest.mark.parametrize("block", [1, 4, 32])
    def test_equal_to_lone_references(self, configs_dir, block):
        # every bundled geometry, with W_opt asked for on all of them:
        # N_r = 36 below the 50 paths, the 72- to 216-element reuse arrays,
        # and fig10's 144-element UPA and 36x4 non-UPA partially-connected
        # arrays, and a geometry that only ideal digital curves read
        # (fig10's 36x1).  A run forms the same W_opt and Sigma, and W_opt
        # only where a solve reads it.
        seen, unformed = set(), set()
        trials = range(3, 3 + block)
        groups: dict[tuple, list] = {}
        for name, command in self.CONFIGS:
            spec, _ = parse_config(configs_dir / f"{name}.json", command)
            stacks = evaluation._block_references(
                spec, trials, {u.geometry for u in spec.units})
            run = evaluation._block_references(spec, trials, {
                u.geometry for u in spec.units if u.method != "sigma"})
            assert list(run) == list(stacks)
            for geometry, (w_opt, sigma) in run.items():
                np.testing.assert_array_equal(sigma, stacks[geometry][1])
                if w_opt is None:
                    unformed.add((name, geometry.n_elements,
                                  geometry.n_per_block))
                else:
                    np.testing.assert_array_equal(w_opt, stacks[geometry][0])
            groups.setdefault((spec.channel, spec.seed, spec.n_streams),
                              []).append(stacks)
            seen.update(stacks)
        # configs of one channel, seed and stream count draw the same
        # paths: each trial's lone one-trial reference and dense SVD are
        # built once per geometry of the group, and every config's stacked
        # row on that geometry is compared with them
        assert len(groups) == 2  # smoke, and the other eight
        for (params, seed, n_s), group in groups.items():
            geometries = list(dict.fromkeys(g for s in group for g in s))
            for row, t in enumerate(trials):
                paths = draw_paths(params, evaluation._channel_rng(seed, t))
                alone = block_references(Paths.stack([paths]), params.n_tx,
                                         n_s, geometries)
                for geometry in geometries:
                    dense = optimal_digital_combiner(channel_matrix(
                        paths, params.n_tx, geometry), n_s)
                    scale = dense.singular_values[0]
                    for w_opt, sigma in (s[geometry] for s in group
                                         if geometry in s):
                        np.testing.assert_array_equal(w_opt[row],
                                                      alone[geometry][0][0])
                        np.testing.assert_array_equal(sigma[row],
                                                      alone[geometry][1][0])
                        np.testing.assert_allclose(
                            sigma[row], dense.singular_values[:n_s], rtol=0,
                            atol=1e-12 * scale)
                        np.testing.assert_allclose(w_opt[row], dense.w_opt,
                                                   rtol=0, atol=1e-12)
        assert {ArrayGeometry(36, d) for d in (1, 2, 4, 6)} <= seen
        assert ArrayGeometry(144, 1) in seen
        # fig5's geometries whose curves all have apd_depth = 1 and
        # continuous phases (its 36x6 array also carries the 1-bit curve,
        # which is solved), and the no-reuse geometries (N_r = N_blocks)
        # that only an ideal digital curve reads
        assert unformed == {("fig5", 36 * d, d) for d in (1, 2, 4)} | {
            (name, n, 1) for name, n in (("smoke", 4), ("fig6a", 36),
                                         ("fig6b", 36), ("fig9", 36),
                                         ("fig10", 36))}

    def test_raising_stack_built_again_trial_by_trial(self, monkeypatch):
        # every stack of more than one trial raises, as a stacked SVD may:
        # their blocks are run again one trial at a time, and each trial is
        # kept with the values of the run without the failure
        spec = small_spec(trials=5, units=small_spec().units + (
            ideal_unit("UPA digital", ArrayGeometry(16, 1)),))
        expected, clean, _ = trial_values(spec)

        svd = np.linalg.svd

        def raising(a, *args, **kwargs):
            # the block stage's SVD of a core stack of several trials
            if a.ndim == 3 and len(a) > 1:
                raise np.linalg.LinAlgError("synthetic SVD failure")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", raising)
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 4)
        table, values, errors = trial_values(spec)
        assert table.failures == 0 and not errors
        assert [(r.mean_se, r.stderr, r.trials) for r in table.rows] \
            == [(r.mean_se, r.stderr, r.trials) for r in expected.rows]
        np.testing.assert_array_equal(values, clean)

    def test_one_stream_per_trial_and_structure(self, monkeypatch,
                                                configs_dir):
        # convergence: two structures, each at 1 bit and continuous, in
        # blocks of 3 + 1 trials.  Each block draws one start array per
        # structure, from one stream per trial, and the variants of a
        # structure receive that array itself
        built, calls = [], []
        default_rng, stack = np.random.default_rng, evaluation.solve_stack

        def building(seed=None):
            if isinstance(seed, np.random.SeedSequence) \
                    and seed.spawn_key[0] == 1:
                built.append(seed.spawn_key)
            return default_rng(seed)

        def recording(segments, *args):
            calls.append([(arch, start) for arch, _, start in segments])
            return stack(segments, *args)

        monkeypatch.setattr(np.random, "default_rng", building)
        monkeypatch.setattr(evaluation, "solve_stack", recording)
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 3)
        spec, _ = parse_config(configs_dir / "convergence.json",
                               "convergence", trials_override=4)
        run_convergence(spec)
        assert len(built) == len(set(built)) == 4 * 2
        assert {key[1] for key in built} == set(range(4))
        for segments, size in zip(calls, (3, 1)):
            (a1, s1), (a2, s2), (a3, s3), (a4, s4) = segments
            assert (a1.apd_depth, a2.apd_depth, a3.apd_depth,
                    a4.apd_depth) == (4, 4, 12, 12)
            assert s1 is s2 and s3 is s4 and s1 is not s3
            assert s1.shape == s3.shape == (size, 36)


class TestStackedRate:
    def test_equal_to_per_curve_rates(self, configs_dir):
        # fig10's 27 architecture curves: the reuse array and the two PC
        # baselines at 9 chain counts, on two geometries
        spec, _ = parse_config(configs_dir / "fig10.json", "sweep-chains")
        trials = range(4)
        stacks = evaluation._block_references(spec, trials)
        units = [u for u in spec.units if u.kind != "ideal_digital"]
        solved = solve_stack([
            (u.arch, stacks[u.geometry][0],
             None if u.solver == "auto" and is_proportional(u.arch) else
             start_phases(u.arch, [np.random.default_rng(t) for t in trials]))
            for u in units], spec.solver)
        items = [(u.arch, sol, *stacks[u.geometry])
                 for u, sol in zip(units, solved)]
        assert len(items) == 27
        np.testing.assert_array_equal(
            evaluation._stacked_gain_eigenvalues(items),
            np.concatenate([evaluation._stacked_gain_eigenvalues([item])
                            for item in items]))


class TestRateInvariant:
    """Per trial and SNR point, no architecture curve beats the ideal
    digital rate on its own receive geometry, and one with an RF chain per
    antenna (apd_depth = 1) reaches it: W_RF is then invertible."""

    @pytest.mark.parametrize("config,command", [
        *((f"configs/{name}.json", "sweep-snr") for name in (
            "smoke", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9")),
        ("configs/fig10.json", "sweep-chains"),
        ("tests/configs/depth.json", "sweep-depth")])
    def test_architectures_at_most_ideal_digital(self, monkeypatch,
                                                 configs_dir, config, command):
        spec, _ = parse_config(configs_dir.parent / config, command,
                               trials_override=4)
        # one ideal digital curve per receive geometry, after the others
        geometries = list(dict.fromkeys(u.geometry for u in spec.units))
        sweep_value = None if spec.sweep_param == "snr_db" else 0.0
        spec = replace(spec, units=spec.units + tuple(
            ideal_unit(f"ceiling {i}", g, sweep_value=sweep_value)
            for i, g in enumerate(geometries)))
        blocks = []
        run_block = evaluation._run_block

        def recording(*args):
            values, errors = run_block(*args)
            blocks.append(values)
            return values, errors

        monkeypatch.setattr(evaluation, "_run_block", recording)
        run_experiment(spec)
        values = np.concatenate(blocks)  # (trials, units, SNR points)
        assert values.shape[0] == 4 and np.isfinite(values).all()
        ceiling = dict(zip(geometries, np.moveaxis(
            values[:, -len(geometries):], 1, 0)))
        for i, unit in enumerate(spec.units):
            top = ceiling[unit.geometry]
            assert np.all(values[:, i] <= top * (1 + 1e-12)), unit.label
            if unit.arch.apd_depth == 1:
                np.testing.assert_allclose(values[:, i], top, rtol=1e-12,
                                           atol=0, err_msg=unit.label)


class TestFullChainCurves:
    """A continuous-phase curve with an RF chain per antenna (apd_depth = 1)
    under the direct solver, or 'auto', which picks it, is rated from Sigma
    alone: the solve it skips makes W_RF W_BB = W_opt.  A quantized one,
    where the direct solve gives the same W, and an alternating one are
    still solved."""

    @pytest.fixture(scope="class")
    def fig5_block(self, configs_dir):
        spec, _ = parse_config(configs_dir / "fig5.json", "sweep-snr")
        return spec, evaluation._block_references(
            spec, range(evaluation.TRIAL_BLOCK))

    @pytest.mark.parametrize("solver", ["auto", "direct"])
    @pytest.mark.parametrize("bits", [None, 1])
    @pytest.mark.parametrize("lo", [1, 2, 4, 6])
    def test_direct_gains_are_sigma_squared(self, fig5_block, lo, bits,
                                            solver):
        spec, stacks = fig5_block
        unit = next(u for u in spec.units if u.arch.lo_depth == lo)
        unit = replace(unit, solver=solver,
                       arch=replace(unit.arch, resolution_bits=bits))
        assert unit.arch.n_blocks == 36 and unit.arch.apd_depth == 1
        w_opt, sigma = stacks[unit.geometry]
        alone = replace(spec, units=(unit,))
        assert (unit.method != "sigma") == (bits is not None)
        assert evaluation._start_phases(alone, range(len(sigma))) == {}
        sol = solve_stack([(unit.arch, w_opt, None)], spec.solver)[0]
        ev = evaluation._stacked_gain_eigenvalues(
            [(unit.arch, sol, w_opt, sigma)])
        np.testing.assert_allclose(np.sort(ev)[:, ::-1], sigma ** 2,
                                   rtol=1e-13, atol=0)

    def test_only_quantized_and_alternating_curves_solved(self, monkeypatch,
                                                         configs_dir):
        # fig5's curves, one of them also under an explicit direct solver,
        # and a 1-bit alternating one stopped after one iteration, which is
        # not at W_opt: only it and fig5's 1-bit direct curve reach
        # solve_stack, and its rate is below the ideal digital one, which
        # the unsolved curves equal bit for bit, and the 1-bit direct one
        # to rounding
        spec, _ = parse_config(configs_dir / "fig5.json", "sweep-snr",
                               trials_override=4)
        lo6 = spec.units[3]
        units = spec.units + (
            replace(lo6, label="direct", solver="direct"),
            replace(lo6, label="altmin", solver="altmin",
                    arch=replace(lo6.arch, resolution_bits=1)),
            ideal_unit("digital", lo6.geometry))
        spec = replace(spec, units=units,
                       solver=OptimizerConfig(max_iterations=1))
        segments = []
        stack = evaluation.solve_stack

        def recording(items, *args):
            segments.extend((arch, start is None) for arch, _, start in items)
            return stack(items, *args)

        monkeypatch.setattr(evaluation, "solve_stack", recording)
        _, values, _ = trial_values(spec)
        # the 1-bit direct curve without start phases, the alternating one
        # with them
        assert segments == [(units[4].arch, True), (units[-2].arch, False)]
        digital = values[:, -1]
        for i, unit in enumerate(units[:-2]):
            if unit.geometry == lo6.geometry and i != 4:
                np.testing.assert_array_equal(values[:, i], digital)
        np.testing.assert_allclose(values[:, 4], digital, rtol=1e-13, atol=0)
        assert (values[:, -2] < digital).all()


class TestSolverChoice:
    """A run decides each solved curve's solver where it builds the
    ``solve_stack`` segments: the direct solver, without start phases, for
    'direct' and for 'auto' on proportional reuse; else alternating
    minimization from start phases drawn on the stream of each trial and
    the curve's structure."""

    @staticmethod
    def solve(monkeypatch, units, trials=3):
        """A run's segments, as (arch, start phases), and solver methods:
        a direct pass runs 0 iterations, alternation at least 1."""
        segments, methods = [], []
        stack = evaluation.solve_stack

        def recording(items, *args):
            segments.extend((arch, start) for arch, _, start in items)
            batches = stack(items, *args)
            methods.extend("altmin" if batch.iterations.all() else "direct"
                           for batch in batches)
            return batches

        monkeypatch.setattr(evaluation, "solve_stack", recording)
        spec = small_spec(trials=trials, units=units)
        run_experiment(spec)
        return spec, segments, methods

    @staticmethod
    def streams(spec, key):
        return [np.random.default_rng(np.random.SeedSequence(
            spec.seed, spawn_key=(1, t, *key))) for t in range(spec.trials)]

    def test_auto_routes_proportional_to_direct(self, monkeypatch):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=2)
        _, segments, methods = self.solve(monkeypatch, (EvalUnit(
            label="auto", kind="rydberg", geometry=nonupa(4, 2), arch=arch),))
        assert segments == [(arch, None)] and methods == ["direct"]

    def test_auto_routes_general_to_altmin(self, monkeypatch):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=4)
        spec, segments, methods = self.solve(monkeypatch, (EvalUnit(
            label="auto", kind="rydberg", geometry=nonupa(4, 2), arch=arch),))
        [(got, start)] = segments
        assert got == arch and methods == ["altmin"]
        np.testing.assert_array_equal(
            start, start_phases(arch, self.streams(spec, (0, 4, 2, 4))))

    def test_direct_curve_sharing_a_key_draws_nothing(self, monkeypatch):
        # one structure under 'direct' and 'altmin', continuous and 1-bit:
        # only the alternating curves get start phases, one shared array
        arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=2)
        units = tuple(
            EvalUnit(label=f"{solver} {bits}", kind="rydberg",
                     geometry=nonupa(4, 2), solver=solver,
                     arch=replace(arch, resolution_bits=bits))
            for solver in ("direct", "altmin") for bits in (None, 1))
        spec, segments, methods = self.solve(monkeypatch, units)
        assert methods == ["direct", "direct", "altmin", "altmin"]
        assert [start is None for _, start in segments] == [True, True,
                                                            False, False]
        assert segments[2][1] is segments[3][1]
        np.testing.assert_array_equal(
            segments[2][1], start_phases(arch, self.streams(spec,
                                                            (0, 4, 2, 2))))


class TestMethod:
    """Each curve's ``EvalUnit.method`` on the bundled configs, and a
    block's work run from a pickled copy of its data."""

    COMMANDS = {"fig10": "sweep-chains", "convergence": "convergence",
                "depth": "sweep-depth"}
    # one letter per curve in unit order: s(igma), d(irect) or a(ltmin);
    # fig7's curves name 'altmin' on proportional reuse
    METHODS = {"smoke": "daaass", "fig5": "ssssd", "fig6a": "sdddas",
               "fig6b": "sdas", "fig7": "aaaaaa", "fig8": "aaaaaaaa",
               "fig9": "aaass", "convergence": "aaaa",
               # five curves per chain count
               "fig10": "aaass" "aaass" "aaass" "aaass" "aaass" "aaass"
                        "daass" "aaass" "daass",
               "depth": "sassassds", "rank_fail": "daaass"}
    BUNDLED = ["smoke", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9",
               "fig10", "convergence"]

    def parse(self, configs_dir, name):
        path = configs_dir / f"{name}.json"
        if not path.exists():
            path = configs_dir.parent / "tests" / "configs" / f"{name}.json"
        return parse_config(path, self.COMMANDS.get(name, "sweep-snr"))[0]

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_bundled_methods(self, configs_dir, name):
        spec = self.parse(configs_dir, name)
        assert "".join(u.method[0] for u in spec.units) == self.METHODS[name]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_block_work_pickles(self, configs_dir, name):
        # the data of a block, as the two run functions pass it
        spec = self.parse(configs_dir, name)
        snr_linear = 10.0 ** (np.asarray(spec.snr_db) / 10.0)
        if name == "convergence":
            spec = replace(spec, units=tuple(replace(u, solver="altmin")
                                             for u in spec.units))
            snr_linear = None
        copy = pickle.loads(pickle.dumps((spec, snr_linear)))
        assert copy[0] == spec
        values, errors = evaluation._run_block(spec, range(2), snr_linear)
        got, got_errors = evaluation._run_block(copy[0], range(2), copy[1])
        assert got.tobytes() == values.tobytes() and got_errors == errors
        assert values.shape[:2] == (2, len(spec.units))


class TestTrialBlocks:
    @pytest.mark.parametrize("name,command", [("fig10", "sweep-chains"),
                                              ("convergence", "convergence")])
    def test_results_independent_of_block_size_and_threads(
            self, tmp_path, monkeypatch, configs_dir, name, command):
        outputs = set()
        for block in (1, 7, evaluation.TRIAL_BLOCK):
            monkeypatch.setattr(evaluation, "TRIAL_BLOCK", block)
            for threads in (1, 2):
                out = tmp_path / f"{block}-{threads}"
                assert main([command, "--config",
                             str(configs_dir / f"{name}.json"),
                             "--out", str(out), "--trials", "10",
                             "--threads", str(threads)]) == 0
                outputs.add((out / "results.csv").read_bytes())
        assert len(outputs) == 1

    @pytest.mark.parametrize("trials,threads,sizes", [
        (8, 1, [8]), (8, 2, [4, 4]), (50, 2, [25, 25]), (9, 2, [5, 4]),
        (70, 1, [32, 32, 6]), (70, 2, [32, 32, 6])])
    def test_threads_cut_blocks(self, monkeypatch, trials, threads, sizes):
        seen = []
        run_block = evaluation._run_block

        def recording(spec, block, *args):
            seen.append(len(block))
            return run_block(spec, block, *args)

        monkeypatch.setattr(evaluation, "_run_block", recording)
        run_experiment(small_spec(trials=trials), threads=threads)
        assert sorted(seen, reverse=True) == sizes

    @pytest.mark.parametrize("threads", [0, -1, 1.5, True])
    @pytest.mark.parametrize("run", [run_experiment, run_convergence])
    def test_bad_thread_count_rejected(self, monkeypatch, run, threads):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(evaluation, "_run_block", no_block)
        spec = small_spec(units=small_spec().units[:1])
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            run(spec, threads=threads)

    def test_thread_pool_imported_only_for_threads(self):
        # concurrent.futures pulls in logging, which importing the package
        # and the CLI does not need
        src = Path(evaluation.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", "import sys, rydcomb.cli; "
             "print('concurrent.futures' in sys.modules)"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"
