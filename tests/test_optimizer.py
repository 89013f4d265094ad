import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomb import (ArchitectureError, ArrayGeometry,
                     ChannelParams, NumericError, OptimizerConfig, Paths,
                     ReuseArchitecture, SolveMethod, alternating_minimize,
                     channel_matrix, compose_wrf, diagonal_phases,
                     direct_solve_proportional, draw_paths,
                     optimal_digital_combiner, optimal_phase, phase_grid,
                     quantize_phase, update_wbb)
from rydcomb.evaluation import pc_architecture
from rydcomb.optimizer import _fix_column_phases, solve_stack


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rand_complex(rng, (rows, cols)))
    return q[:, :cols]


def objective(arch, phases, w_bb, w_opt):
    return np.linalg.norm(w_opt - compose_wrf(arch, phases) @ w_bb)


class TestDigitalCombiner:
    def test_identity_channel(self):
        ref = optimal_digital_combiner(np.eye(4), 2)
        np.testing.assert_allclose(ref.w_opt, np.eye(4)[:, :2], atol=1e-12)
        np.testing.assert_allclose(ref.singular_values, np.ones(4), atol=1e-12)

    def test_diagonal_channel(self):
        ref = optimal_digital_combiner(np.diag([3.0, 2.0, 1.0]), 1)
        np.testing.assert_allclose(ref.w_opt, [[1.0], [0.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(ref.singular_values, [3.0, 2.0, 1.0],
                                   atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        h = rand_complex(rng, (8, 8))
        u, s, vh = np.linalg.svd(h)
        assert np.linalg.norm(h - u @ np.diag(s) @ vh) < 1e-10
        ref = optimal_digital_combiner(h, 8)
        np.testing.assert_allclose(ref.w_opt.conj().T @ ref.w_opt, np.eye(8),
                                   atol=1e-10)
        np.testing.assert_allclose(ref.f_opt.conj().T @ ref.f_opt, np.eye(8),
                                   atol=1e-10)
        np.testing.assert_allclose(np.sort(ref.singular_values)[::-1],
                                   ref.singular_values, atol=0)

    def test_phase_normalization_reproducible(self):
        rng = np.random.default_rng(1)
        h = rand_complex(rng, (6, 5))
        a = optimal_digital_combiner(h, 3)
        b = optimal_digital_combiner(h * np.exp(0j), 3)
        np.testing.assert_array_equal(a.w_opt, b.w_opt)
        for k in range(3):
            pivot = a.w_opt[np.argmax(np.abs(a.w_opt[:, k])), k]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_column_phases_equal_column_loop(self):
        # the per-column loop is the reference; zero columns stay as given
        def fix_each_column(m):
            out = m.copy()
            for k in range(out.shape[1]):
                pivot = out[int(np.argmax(np.abs(out[:, k]))), k]
                if pivot != 0:
                    out[:, k] *= np.conj(pivot) / np.abs(pivot)
            return out

        rng = np.random.default_rng(7)
        for rows, cols in ((2, 1), (6, 3), (36, 3), (144, 8)):
            m = rand_complex(rng, (rows, cols))
            m[:, 1:2] = -0.0  # a zero column, where there is a second
            for view in (m, np.asfortranarray(m), m.conj().T.conj().T):
                assert (_fix_column_phases(view).tobytes()
                        == fix_each_column(view).tobytes())

    def test_stream_bounds(self):
        with pytest.raises(ValueError):
            optimal_digital_combiner(np.eye(4), 5)

    def test_non_finite_rejected(self):
        h = np.eye(4, dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(NumericError):
            optimal_digital_combiner(h, 2)


def factored_channel(geometry, seed):
    paths = draw_paths(ChannelParams(n_tx=144), np.random.default_rng(seed))
    return channel_matrix(paths, 144, geometry)


class TestFactoredReference:
    """The reference of a LowRankChannel from its R factors against the
    dense SVD, for N_r below (36 elements) and above (72 to 216 elements)
    the 50 paths; 36x2 has near-duplicate rows at intra_spacing 0.05."""

    GEOMETRIES = [ArrayGeometry(36, 1),
                  ArrayGeometry(9, 4),
                  ArrayGeometry(36, 6),
                  ArrayGeometry(36, 2),
                  ArrayGeometry(36, 4)]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_svd(self, geometry, seed):
        channel = factored_channel(geometry, seed)
        dense = optimal_digital_combiner(channel.dense(), 3)
        factored = optimal_digital_combiner(channel, 3)
        scale = dense.singular_values[0]
        assert factored.singular_values.shape == dense.singular_values.shape
        np.testing.assert_allclose(factored.singular_values,
                                   dense.singular_values, rtol=0,
                                   atol=1e-12 * scale)
        for a, b in ((factored.w_opt, dense.w_opt), (factored.f_opt, dense.f_opt)):
            np.testing.assert_allclose(a @ a.conj().T, b @ b.conj().T,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_singular_pairs_of_dense_channel(self, geometry):
        # W^H H F = diag(s) up to the column phases; W and F orthonormal
        channel = factored_channel(geometry, 4)
        ref = optimal_digital_combiner(channel, 3)
        s = ref.singular_values
        np.testing.assert_allclose(
            np.abs(ref.w_opt.conj().T @ channel.dense() @ ref.f_opt),
            np.diag(s[:3]), rtol=0, atol=1e-12 * s[0])
        for m in (ref.w_opt, ref.f_opt):
            np.testing.assert_allclose(m.conj().T @ m, np.eye(3), rtol=0,
                                       atol=1e-12)

    def test_columns_phase_fixed(self):
        ref = optimal_digital_combiner(factored_channel(self.GEOMETRIES[2], 5), 3)
        for m in (ref.w_opt, ref.f_opt):
            for k in range(3):
                pivot = m[np.argmax(np.abs(m[:, k])), k]
                assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_stream_bounds(self):
        channel = factored_channel(self.GEOMETRIES[0], 0)
        with pytest.raises(ValueError):
            optimal_digital_combiner(channel, 37)
        single = channel_matrix(
            Paths(gains=np.ones(1, dtype=complex), aoa_azimuth=np.zeros(1),
                  aoa_elevation=np.ones(1), aod_azimuth=np.zeros(1),
                  aod_elevation=np.ones(1)), 144, self.GEOMETRIES[0])
        with pytest.raises(ValueError, match="rank bound"):
            optimal_digital_combiner(single, 2)

    def test_rank_below_streams_rejected(self):
        # two copies of one path: rank 1, so a second stream does not exist
        paths = draw_paths(ChannelParams(n_tx=144), np.random.default_rng(0))
        twice = channel_matrix(
            Paths(**{k: v[[0, 0]] for k, v in vars(paths).items()}), 144,
            self.GEOMETRIES[2])
        assert optimal_digital_combiner(twice, 1).singular_values[0] > 0
        with pytest.raises(NumericError, match="rank below n_streams"):
            optimal_digital_combiner(twice, 2)
        with pytest.raises(NumericError, match="rank below n_streams"):
            optimal_digital_combiner(twice.dense(), 2)

    def test_non_finite_rejected(self):
        channel = factored_channel(self.GEOMETRIES[0], 0)
        channel.gains[3] = np.nan
        with pytest.raises(NumericError):
            optimal_digital_combiner(channel, 2)


class TestUpdateWbb:
    def test_identity_analog(self):
        rng = np.random.default_rng(2)
        w_opt = rand_complex(rng, (4, 2))
        np.testing.assert_allclose(update_wbb(np.ones(4), w_opt, 1), w_opt,
                                   atol=1e-14)

    def test_equals_generic_pseudoinverse(self):
        # non-proportional: apd_depth=6 groups straddle the depth-4 blocks
        rng = np.random.default_rng(3)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=4, apd_depth=6)
        phases = rng.uniform(0, 2 * np.pi, 9)
        u = np.exp(1j * diagonal_phases(arch, phases))
        w_opt = rand_complex(rng, (36, 3))
        np.testing.assert_allclose(update_wbb(u, w_opt, 6),
                                   np.repeat(np.linalg.pinv(
                                       compose_wrf(arch, phases)) @ w_opt,
                                       6, axis=0), atol=1e-12)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(4)
        arch = ReuseArchitecture(n_blocks=4, lo_depth=3, apd_depth=2)
        phases = rng.uniform(0, 2 * np.pi, 4)
        u = np.exp(1j * diagonal_phases(arch, phases))
        w_rf = compose_wrf(arch, phases)
        w_opt = rand_complex(rng, (12, 2))
        w_bb = update_wbb(u, w_opt, 2)[::2]
        best = np.linalg.norm(w_opt - w_rf @ w_bb)
        for _ in range(25):
            other = w_bb + 0.1 * rand_complex(rng, (6, 2))
            assert np.linalg.norm(w_opt - w_rf @ other) >= best - 1e-12

    def test_per_sample_group_sizes_equal_lone_calls(self):
        rng = np.random.default_rng(5)
        apd = np.array([2, 8, 48, 1, 144, 8])
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 144)))
        w_opt = rand_complex(rng, (6, 144, 3))
        np.testing.assert_array_equal(
            update_wbb(u, w_opt, apd),
            [update_wbb(u[i], w_opt[i], apd[i]) for i in range(6)])


class TestOptimalPhase:
    def test_identical_matrices(self):
        rng = np.random.default_rng(5)
        x = rand_complex(rng, (3, 2))
        assert optimal_phase(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_pure_rotation(self):
        rng = np.random.default_rng(6)
        x = rand_complex(rng, (3, 2))
        assert optimal_phase(np.exp(1j * 1.2) * x, x) == pytest.approx(
            1.2, abs=1e-12)

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(7)
        grid = np.exp(1j * 2 * np.pi * np.arange(100_000) / 100_000)
        for _ in range(10):
            y, x = rand_complex(rng, (3, 2)), rand_complex(rng, (3, 2))
            phi = optimal_phase(y, x)
            mine = np.linalg.norm(y - np.exp(1j * phi) * x)
            over_grid = np.linalg.norm(
                y[None] - grid[:, None, None] * x[None], axis=(1, 2))
            assert mine <= over_grid.min() + 1e-10

    def test_degenerate_trace_returns_zero(self):
        x = np.array([[1.0 + 0j], [0.0]])
        y = np.array([[0.0 + 0j], [1.0]])
        assert optimal_phase(y, x) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            optimal_phase(np.ones((2, 2)), np.ones((3, 2)))


class TestQuantizePhase:
    def test_exact_grid_point(self):
        assert quantize_phase(np.pi, 1) == pytest.approx(np.pi, abs=1e-15)

    def test_nearest_of_four(self):
        assert quantize_phase(1.0, 2) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_wraparound(self):
        # 6.1 is closer to 0 (distance 2*pi - 6.1) than to pi
        assert quantize_phase(6.1, 1) == 0.0

    def test_bits_bounded_by_double_spacing(self):
        # 52 bits is the finest grid doubles resolve near 2*pi; past it the
        # level count no longer fits the integer rounding
        assert quantize_phase(1.0, 52) == pytest.approx(1.0, abs=1e-15)
        for bits in (0, 53, 64):
            with pytest.raises(ValueError):
                quantize_phase(1.0, bits)

    def test_matches_cosine_maximization_oracle(self):
        rng = np.random.default_rng(8)
        for bits in range(1, 7):
            grid = phase_grid(bits)
            phis = rng.uniform(-7.0, 13.0, 200)
            for phi in phis:
                q = quantize_phase(float(phi), bits)
                assert np.cos(q - phi) >= np.max(np.cos(grid - phi)) - 1e-12
            # array input is quantized elementwise, as the solver calls it
            np.testing.assert_array_equal(
                quantize_phase(phis, bits),
                [quantize_phase(float(phi), bits) for phi in phis])

    @settings(deadline=None, max_examples=200)
    @given(phi=st.floats(-100.0, 100.0), bits=st.integers(1, 8))
    def test_output_on_grid_property(self, phi, bits):
        q = quantize_phase(phi, bits)
        grid = phase_grid(bits)
        assert np.min(np.abs(grid - q)) < 1e-9
        assert np.cos(q - phi) >= np.max(np.cos(grid - phi)) - 1e-9

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            quantize_phase(0.5, 0)


class TestAlternatingMinimize:
    def test_fully_dedicated_reaches_zero(self):
        rng = np.random.default_rng(9)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=1, apd_depth=1)
        w_opt = rand_orthonormal(rng, 16, 3)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        assert sol.residual < 1e-8
        assert sol.method is SolveMethod.ALT_MIN
        assert sol.converged

    @pytest.mark.parametrize("lo,apd,bits", [
        (1, 1, None), (6, 4, None), (6, 4, 1), (6, 12, 2), (2, 12, None),
        (6, 36, 1),
    ])
    def test_monotone_residuals(self, lo, apd, bits):
        rng = np.random.default_rng(10)
        arch = ReuseArchitecture(n_blocks=36, lo_depth=lo, apd_depth=apd,
                                 resolution_bits=bits)
        w_opt = rand_orthonormal(rng, arch.n_r, 3)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        assert np.all(np.diff(sol.residual_history) <= 1e-12)
        assert sol.residual == sol.residual_history[-1]

    def test_solution_consistency(self):
        # reported residual must match the recomputed objective and the
        # phases must be per-block optimal for the returned digital combiner
        rng = np.random.default_rng(11)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4,
                                 resolution_bits=2)
        w_opt = rand_orthonormal(rng, 96, 3)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        assert objective(arch, sol.phases, sol.w_bb, w_opt) == pytest.approx(
            sol.residual, abs=1e-12)
        base = sol.residual
        for i in range(arch.n_blocks):
            for candidate in phase_grid(2):
                phases = sol.phases.copy()
                phases[i] = candidate
                assert objective(arch, phases, sol.w_bb, w_opt) >= base - 1e-10

    def test_continuous_per_block_optimality(self):
        rng = np.random.default_rng(12)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4)
        w_opt = rand_orthonormal(rng, 96, 3)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        base = sol.residual
        grid = np.linspace(0, 2 * np.pi, 361)
        for i in (0, 4, 8):
            for candidate in grid:
                phases = sol.phases.copy()
                phases[i] = candidate
                assert objective(arch, phases, sol.w_bb, w_opt) >= base - 1e-9

    def test_finite_resolution_output_on_grid(self):
        rng = np.random.default_rng(13)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=8,
                                 resolution_bits=3)
        w_opt = rand_orthonormal(rng, 32, 2)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        steps = sol.phases / (2 * np.pi / 8)
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-12)

    def test_iteration_cap_flags_unconverged(self):
        rng = np.random.default_rng(14)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4)
        w_opt = rand_orthonormal(rng, 96, 3)
        sol = alternating_minimize(arch, w_opt,
                                   config=OptimizerConfig(epsilon=1e-30,
                                                          max_iterations=3),
                                   rng=rng)
        assert not sol.converged
        assert sol.iterations == 3
        assert np.isfinite(sol.residual)

    def test_stream_count_validated(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=4)
        with pytest.raises(ArchitectureError):
            alternating_minimize(arch, np.eye(4, dtype=complex)[:, :3],
                                 rng=np.random.default_rng(0))


class TestDirectSolver:
    def test_fully_dedicated_zero_phase(self):
        rng = np.random.default_rng(15)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=1, apd_depth=1)
        w_opt = rand_orthonormal(rng, 9, 2)
        sol = direct_solve_proportional(arch, w_opt)
        np.testing.assert_allclose(sol.w_bb, w_opt, atol=1e-13)
        assert sol.residual < 1e-12
        assert sol.iterations == 0
        assert sol.method is SolveMethod.DIRECT_PROPORTIONAL

    def test_matches_alternating_minimization(self):
        rng = np.random.default_rng(16)
        arch = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=3)
        w_opt = rand_orthonormal(rng, 216, 3)
        direct = direct_solve_proportional(arch, w_opt)
        altmin = alternating_minimize(arch, w_opt, rng=rng)
        assert direct.residual == pytest.approx(altmin.residual, abs=1e-9)

    def test_phase_choice_irrelevant(self):
        rng = np.random.default_rng(17)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=4, apd_depth=2)
        w_opt = rand_orthonormal(rng, 64, 3)
        r0 = direct_solve_proportional(arch, w_opt).residual
        r1 = direct_solve_proportional(
            arch, w_opt, phases=np.full(16, np.pi / 2)).residual
        assert r0 == pytest.approx(r1, abs=1e-12)

    def test_row_formula_matches_pseudoinverse(self):
        rng = np.random.default_rng(18)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=6, apd_depth=2)
        w_opt = rand_complex(rng, (54, 3))
        phases = rng.uniform(0, 2 * np.pi, 9)
        sol = direct_solve_proportional(arch, w_opt, phases=phases)
        expected = np.linalg.pinv(compose_wrf(arch, phases)) @ w_opt
        np.testing.assert_allclose(sol.w_bb, expected, atol=1e-10)

    def test_non_proportional_rejected(self):
        arch = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=4)
        with pytest.raises(ArchitectureError):
            direct_solve_proportional(arch, np.eye(216, dtype=complex)[:, :3])


class TestQuantizationFreeEquivalence:
    @pytest.mark.parametrize("apd", [1, 3, 6])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_finite_resolution_matches_continuous(self, apd, bits):
        rng = np.random.default_rng(19)
        w_opt = rand_orthonormal(rng, 216, 3)
        base = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=apd)
        finite = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=apd,
                                   resolution_bits=bits)
        r_cont = alternating_minimize(base, w_opt,
                                      rng=np.random.default_rng(100)).residual
        r_fin = alternating_minimize(finite, w_opt,
                                     rng=np.random.default_rng(200 + bits)).residual
        r_direct = direct_solve_proportional(base, w_opt).residual
        assert r_fin == pytest.approx(r_cont, abs=1e-9)
        assert r_direct == pytest.approx(r_cont, abs=1e-9)


class TestSolveDispatch:
    def test_auto_routes_proportional_to_direct(self):
        rng = np.random.default_rng(20)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=2)
        w_opt = rand_orthonormal(rng, 32, 2)
        sol = solve_stack([(arch, w_opt[None], [rng], "auto")], None)[0]
        assert sol.method is SolveMethod.DIRECT_PROPORTIONAL

    def test_auto_routes_general_to_altmin(self):
        rng = np.random.default_rng(21)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=4)
        w_opt = rand_orthonormal(rng, 32, 2)
        sol = solve_stack([(arch, w_opt[None], [rng], "auto")], None)[0]
        assert sol.method is SolveMethod.ALT_MIN

    def test_unknown_method_rejected(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1)
        with pytest.raises(ValueError):
            solve_stack([(arch, np.eye(4, dtype=complex)[None, :, :1],
                          [np.random.default_rng()], "exhaustive")], None)


class TestSolveBatch:
    """Every row of a batched solve equals the lone solve of its target,
    whether the sample stops early, late or at the iteration cap."""

    @staticmethod
    def channel_targets(lo, count, seed, geometry=None):
        geometry = geometry or ArrayGeometry(16, lo)
        params = ChannelParams(n_tx=16, n_clusters=3, n_rays=4)
        rng = np.random.default_rng(seed)
        return np.stack([optimal_digital_combiner(
            channel_matrix(draw_paths(params, rng), 16, geometry), 3).w_opt
            for _ in range(count)])

    @staticmethod
    def assert_rows_equal_lone_solves(archs, targets, seeds, config):
        """Solve the segments as one stack; every row must equal the lone
        solve of its target, bit for bit."""
        batches = solve_stack(
            [(arch, w, [np.random.default_rng(s) for s in ss], "altmin")
             for arch, w, ss in zip(archs, targets, seeds)], config)
        iterations = set()
        for arch, w, ss, batch in zip(archs, targets, seeds, batches):
            assert batch.w_bb.shape == (len(w), arch.n_chains, 3)
            for i, s in enumerate(ss):
                lone = alternating_minimize(arch, w[i], config=config,
                                            rng=np.random.default_rng(s))
                row = batch.solution(i)
                np.testing.assert_array_equal(row.phases, lone.phases)
                np.testing.assert_array_equal(row.w_bb, lone.w_bb)
                np.testing.assert_array_equal(row.residual_history,
                                              lone.residual_history)
                assert (row.iterations, row.converged) == (lone.iterations,
                                                           lone.converged)
                iterations.add(row.iterations)
        assert len(iterations) > 1

    def test_mixed_apd_stack_rows_equal_lone_solves(self):
        # fig10's partially-connected curves: one structure (144 blocks,
        # lo_depth 1), adder depths 36, 9 and 3
        geometry = ArrayGeometry(144, 1)
        archs = [pc_architecture(144, c) for c in (4, 16, 48)]
        targets = [self.channel_targets(1, 3, seed=30 + k, geometry=geometry)
                   for k in range(3)]
        seeds = [range(3 * k, 3 * k + 3) for k in range(3)]
        self.assert_rows_equal_lone_solves(
            archs, targets, seeds, OptimizerConfig(epsilon=1e-6,
                                                   max_iterations=30))

    def test_mixed_quantized_stack_rows_equal_lone_solves(self):
        # 4-bit phases, adder depths 4, 12 and 32 on 16 blocks of depth 6;
        # the last segment has its own intra-block offsets
        offsets = np.tile(np.linspace(-0.4, 0.7, 6), (16, 1))
        archs = [ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=apd,
                                   intra_offsets=offs, resolution_bits=4)
                 for apd, offs in ((4, None), (12, None), (32, offsets))]
        targets = [self.channel_targets(6, 4, seed=40 + k) for k in range(3)]
        seeds = [range(10 * k, 10 * k + 4) for k in range(3)]
        self.assert_rows_equal_lone_solves(
            archs, targets, seeds, OptimizerConfig(epsilon=1e-4,
                                                   max_iterations=8))

    def test_mixed_structure_stack_rows_equal_lone_solves(self):
        # one 16x6 architecture with 1-bit and with continuous phases: two
        # block structures, each solved in its own kernel loop, interleaved
        # so that the batches must come back in input order
        archs = [ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4,
                                   resolution_bits=bits)
                 for bits in (1, None, 1)]
        targets = [self.channel_targets(6, 4, seed=24 + k) for k in range(3)]
        seeds = [range(10 * k, 10 * k + 4) for k in range(3)]
        self.assert_rows_equal_lone_solves(
            archs, targets, seeds, OptimizerConfig(epsilon=1e-4,
                                                   max_iterations=20))

    @pytest.mark.parametrize("lo,apd,bits", [(6, 4, None), (6, 12, 3),
                                             (2, 4, None)])
    def test_rows_equal_lone_solves(self, lo, apd, bits):
        arch = ReuseArchitecture(n_blocks=16, lo_depth=lo, apd_depth=apd,
                                 resolution_bits=bits)
        w_opt = self.channel_targets(lo, 6, seed=20)
        config = OptimizerConfig(epsilon=1e-4, max_iterations=20)
        batch = solve_stack([(arch, w_opt,
                              [np.random.default_rng(s) for s in range(6)],
                              "altmin")], config)[0]
        for i in range(6):
            lone = alternating_minimize(arch, w_opt[i], config=config,
                                        rng=np.random.default_rng(i))
            row = batch.solution(i)
            np.testing.assert_array_equal(row.phases, lone.phases)
            np.testing.assert_array_equal(row.w_bb, lone.w_bb)
            np.testing.assert_array_equal(row.residual_history,
                                          lone.residual_history)
            assert (row.iterations, row.converged) == (lone.iterations,
                                                       lone.converged)
            assert np.all(batch.history[i, lone.iterations:] == lone.residual)
        assert len(set(batch.iterations.tolist())) > 1

    def test_direct_rows_equal_lone_solves(self):
        rng = np.random.default_rng(21)
        arch = ReuseArchitecture(n_blocks=12, lo_depth=6, apd_depth=3)
        w_opt = np.stack([rand_orthonormal(rng, arch.n_r, 3)
                          for _ in range(4)])
        batch = solve_stack([(arch, w_opt, [], "direct")], None)[0]
        for i in range(4):
            lone = direct_solve_proportional(arch, w_opt[i])
            np.testing.assert_array_equal(batch.w_bb[i], lone.w_bb)
            assert batch.solution(i).residual == lone.residual
            assert batch.iterations[i] == 0

    def test_direct_stack_equals_lone_solves(self):
        rng = np.random.default_rng(23)
        arch = ReuseArchitecture(n_blocks=12, lo_depth=6, apd_depth=3)
        w_opt = np.stack([rand_orthonormal(rng, arch.n_r, 3)
                          for _ in range(3)])
        phases = rng.uniform(0, 2 * np.pi, arch.n_blocks)
        batch = direct_solve_proportional(arch, w_opt, phases=phases)
        for i in range(3):
            lone = direct_solve_proportional(arch, w_opt[i], phases=phases)
            np.testing.assert_array_equal(batch.phases[i], lone.phases)
            np.testing.assert_array_equal(batch.w_bb[i], lone.w_bb)
            assert batch.solution(i).residual == lone.residual

    def test_one_generator_per_target(self):
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4)
        w_opt = self.channel_targets(6, 3, seed=22)
        with pytest.raises(ValueError, match="generators"):
            solve_stack([(arch, w_opt, [np.random.default_rng(0)],
                          "altmin")], None)
