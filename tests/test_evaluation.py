import os
import subprocess
import sys
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
from rydcomb.channel import Paths
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


def small_spec(**overrides):
    geometry = nonupa(4, 2)
    arch = ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=2)
    units = (
        EvalUnit(label="reuse", kind="rydberg", geometry=geometry, arch=arch),
        EvalUnit(label="digital", kind="ideal_digital", geometry=geometry),
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
            sol = solve_stack([(arch, w_opt, [np.random.default_rng(seed)],
                                "auto")], None)[0]
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
            EvalUnit(label="a", kind="ideal_digital", geometry=geometry),
            EvalUnit(label="b", kind="ideal_digital", geometry=geometry),
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
        with pytest.raises(ConfigError):
            EvalUnit(label="x", kind="rydberg", geometry=geometry)
        with pytest.raises(ConfigError):
            EvalUnit(label="x", kind="nonsense", geometry=geometry)
        with pytest.raises(ConfigError):
            EvalUnit(label="x", kind="rydberg", geometry=geometry,
                     arch=ReuseArchitecture(n_blocks=9, lo_depth=2,
                                            apd_depth=2))

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
        with pytest.raises(ConfigError):
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
        """Pass the combining target of each trial of ``fails`` through its
        function, in every stack of the block stage that holds the trial.
        When the function raises, that stack raises LinAlgError, as a
        stacked SVD does.  The trial's row is found from its own draw: the
        stack's gains are its path gains times a positive scale."""
        drawn = self._watch(monkeypatch)

        def failing(stage):
            def failed(channels, n_streams):
                parts = stage(channels, n_streams)
                seen = {t: p.gains for t, p in drawn if t in fails}
                for trial, gains in seen.items():
                    ratio = channels.gains / gains
                    for row in np.flatnonzero(
                            np.isclose(ratio, ratio[:, :1]).all(axis=1)):
                        try:
                            parts[0][row] = fails[trial](parts[0][row])
                        except NumericError as exc:
                            raise np.linalg.LinAlgError(str(exc)) from exc
                return parts
            return failed

        monkeypatch.setattr(evaluation, "block_reference",
                            failing(evaluation.block_reference))

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
            EvalUnit(label="UPA digital", kind="ideal_digital",
                     geometry=ArrayGeometry(16, 1)),))
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
            EvalUnit(label="UPA digital", kind="ideal_digital",
                     geometry=ArrayGeometry(16, 1)),))
        message = self._check_contained(spec)
        assert message.endswith(f"trial {self.BAD}: channel rank below "
                                f"n_streams=2: singular values [0. 0.])")

    @staticmethod
    def explode(w_opt):
        raise NumericError("synthetic SVD failure")

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
            EvalUnit(label="digital", kind="ideal_digital",
                     geometry=nonupa(4, 4)),
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
            EvalUnit(label="digital", kind="ideal_digital",
                     geometry=geometry),
            EvalUnit(label="UPA PC", kind="pc_upa",
                     arch=pc_architecture(16, 4),
                     geometry=ArrayGeometry(16, 1),
                     solver="altmin"))
        monkeypatch.setattr(evaluation, "solve_stack", recording)
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 3)
        run_experiment(small_spec(trials=6, units=units))
        archs = [u.arch for u in units if u.arch is not None]
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
        def run_block(spec, trials, curve, n_points):
            values = np.stack([np.random.default_rng(t).uniform(
                0.5, 20.0, (len(spec.units), n_points)) for t in trials])
            errors = {t: f"trial {t}: synthetic" for t in trials
                      if t in failed}
            values[[t - trials.start for t in errors]] = np.nan
            return values, errors

        monkeypatch.setattr(evaluation, "_run_block", run_block)

    def _tabulate(self, spec, threads):
        return evaluation._tabulate(spec, threads, None, self.N_POINTS,
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
        # every bundled geometry: N_r = 36 below the 50 paths, the 72- to
        # 216-element reuse arrays, and fig10's 144-element UPA and
        # 36x4 non-UPA partially-connected arrays, and a geometry that only
        # ideal digital curves read (fig10's 36x1)
        seen = set()
        trials = range(3, 3 + block)
        for name, command in self.CONFIGS:
            spec, _ = parse_config(configs_dir / f"{name}.json", command)
            n_s = spec.n_streams
            stacks = evaluation._block_references(spec, trials)
            for row, t in enumerate(trials):
                alone = evaluation._block_references(spec, range(t, t + 1))
                paths = draw_paths(spec.channel,
                                   evaluation._channel_rng(spec.seed, t))
                for geometry, (w_opt, sigma) in stacks.items():
                    np.testing.assert_array_equal(w_opt[row],
                                                  alone[geometry][0][0])
                    np.testing.assert_array_equal(sigma[row],
                                                  alone[geometry][1][0])
                    dense = optimal_digital_combiner(channel_matrix(
                        paths, spec.channel.n_tx, geometry), n_s)
                    scale = dense.singular_values[0]
                    np.testing.assert_allclose(
                        sigma[row], dense.singular_values[:n_s], rtol=0,
                        atol=1e-12 * scale)
                    np.testing.assert_allclose(w_opt[row], dense.w_opt,
                                               rtol=0, atol=1e-12)
            seen.update(stacks)
        assert {ArrayGeometry(36, d) for d in (1, 2, 4, 6)} <= seen
        assert ArrayGeometry(144, 1) in seen

    def test_raising_stack_built_again_trial_by_trial(self, monkeypatch):
        # every stack of more than one trial raises, as a stacked SVD may:
        # their blocks are run again one trial at a time, and each trial is
        # kept with the values of the run without the failure
        spec = small_spec(trials=5, units=small_spec().units + (
            EvalUnit(label="UPA digital", kind="ideal_digital",
                     geometry=ArrayGeometry(16, 1)),))
        expected, clean, _ = trial_values(spec)

        def raising(stage):
            def raised(channels, n_streams):
                if len(channels.gains) > 1:
                    raise np.linalg.LinAlgError("synthetic SVD failure")
                return stage(channels, n_streams)
            return raised

        monkeypatch.setattr(evaluation, "block_reference",
                            raising(evaluation.block_reference))
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", 4)
        table, values, errors = trial_values(spec)
        assert table.failures == 0 and not errors
        assert [(r.mean_se, r.stderr, r.trials) for r in table.rows] \
            == [(r.mean_se, r.stderr, r.trials) for r in expected.rows]
        np.testing.assert_array_equal(values, clean)

    def test_one_stream_per_trial_and_structure(self, monkeypatch,
                                                configs_dir):
        # convergence: two structures, each at 1 bit and continuous; the
        # variants of one structure share its generator of each trial
        built = []
        solver_rngs = evaluation._solver_rngs

        def recording(seed, trials, key):
            for t, rng in zip(trials, solver_rngs(seed, trials, key)):
                built.append((t, key))
                yield rng

        monkeypatch.setattr(evaluation, "_solver_rngs", recording)
        spec, _ = parse_config(configs_dir / "convergence.json",
                               "convergence", trials_override=4)
        run_convergence(spec)
        assert len(built) == len(set(built)) == 4 * 2


class TestStackedRate:
    def test_equal_to_per_curve_rates(self, configs_dir):
        # fig10's 27 architecture curves: the reuse array and the two PC
        # baselines at 9 chain counts, on two geometries
        spec, _ = parse_config(configs_dir / "fig10.json", "sweep-chains")
        trials = range(4)
        stacks = evaluation._block_references(spec, trials)
        units = [u for u in spec.units if u.arch is not None]
        solved = solve_stack([
            (u.arch, stacks[u.geometry][0],
             [np.random.default_rng(t) for t in trials], u.solver)
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
            EvalUnit(label=f"ceiling {i}", kind="ideal_digital", geometry=g,
                     sweep_value=sweep_value)
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
            if unit.arch is None:
                continue
            top = ceiling[unit.geometry]
            assert np.all(values[:, i] <= top * (1 + 1e-12)), unit.label
            if unit.arch.apd_depth == 1:
                np.testing.assert_allclose(values[:, i], top, rtol=1e-12,
                                           atol=0, err_msg=unit.label)


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
