import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomb import (ArchitectureError, ArrayGeometry,
                     ChannelParams, NumericError, OptimizerConfig, Paths,
                     ReuseArchitecture, alternating_minimize,
                     channel_matrix, compose_wrf,
                     direct_solve_proportional, draw_paths,
                     optimal_digital_combiner, phase_grid, quantize_phase)
from rydcomb.evaluation import (EvalUnit, ExperimentSpec, _start_phases,
                                pc_architecture)
from rydcomb.channel import _fix_column_phases, block_references
from rydcomb.optimizer import (MAX_ITERATIONS, _cell_classes, _cell_means,
                               _solve, _trace_phase, _trace_sum, solve_stack)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rand_complex(rng, (rows, cols)))
    return q[:, :cols]


def start_phases(arch, seeds):
    """The start phases that ``alternating_minimize`` draws from a generator
    of each seed, one row per target."""
    return np.array([np.random.default_rng(s).uniform(0, 2 * np.pi,
                                                      arch.n_blocks)
                     for s in seeds])


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


def one_draw_reference(paths, geometry, n_streams):
    """``block_references`` on the block of one draw: W_opt and Sigma of
    that draw."""
    w_opt, sigma = block_references(Paths.stack([paths]), 144, n_streams,
                                    [geometry])[geometry]
    return w_opt[0], sigma[0]


class TestFactoredReference:
    """The block reference stage on one-draw blocks against the dense SVD
    of ``channel_matrix``, for N_r below (36 elements) and above (72 to
    216 elements) the 50 paths; 36x2 has near-duplicate rows at
    intra_spacing 0.05."""

    GEOMETRIES = [ArrayGeometry(36, 1),
                  ArrayGeometry(9, 4),
                  ArrayGeometry(36, 6),
                  ArrayGeometry(36, 2),
                  ArrayGeometry(36, 4)]

    @staticmethod
    def draw(seed):
        return draw_paths(ChannelParams(n_tx=144), np.random.default_rng(seed))

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_svd(self, geometry, seed):
        paths = self.draw(seed)
        dense = optimal_digital_combiner(channel_matrix(paths, 144, geometry),
                                         3)
        scale = dense.singular_values[0]
        # every value above 1e-12 sigma_1 passes the stage's rank test
        rank = np.count_nonzero(dense.singular_values > 1e-12 * scale)
        _, sigma = one_draw_reference(paths, geometry, rank)
        np.testing.assert_allclose(sigma, dense.singular_values[:rank],
                                   rtol=0, atol=1e-12 * scale)
        w_opt, sigma = one_draw_reference(paths, geometry, 3)
        np.testing.assert_allclose(sigma, dense.singular_values[:3], rtol=0,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(w_opt @ w_opt.conj().T,
                                   dense.w_opt @ dense.w_opt.conj().T,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_opt, dense.w_opt, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_singular_pairs_of_dense_channel(self, geometry):
        # W^H H H^H W = diag(s^2), and W orthonormal
        paths = self.draw(4)
        h = channel_matrix(paths, 144, geometry)
        w_opt, sigma = one_draw_reference(paths, geometry, 3)
        np.testing.assert_allclose(
            w_opt.conj().T @ h @ h.conj().T @ w_opt, np.diag(sigma ** 2),
            rtol=0, atol=1e-12 * sigma[0] ** 2)
        np.testing.assert_allclose(w_opt.conj().T @ w_opt, np.eye(3),
                                   rtol=0, atol=1e-12)

    def test_columns_phase_fixed(self):
        w_opt, _ = one_draw_reference(self.draw(5), self.GEOMETRIES[2], 3)
        for k in range(3):
            pivot = w_opt[np.argmax(np.abs(w_opt[:, k])), k]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_rank_below_streams_rejected(self):
        # two copies of one path: rank 1, so a second stream does not exist
        paths = self.draw(0)
        twice = Paths(**{k: v[[0, 0]] for k, v in vars(paths).items()})
        geometry = self.GEOMETRIES[2]
        _, sigma = one_draw_reference(twice, geometry, 1)
        assert sigma[0] > 0
        with pytest.raises(NumericError, match="rank below n_streams=2"):
            one_draw_reference(twice, geometry, 2)
        with pytest.raises(NumericError, match="rank below n_streams"):
            optimal_digital_combiner(channel_matrix(twice, 144, geometry), 2)


def direct_pass(segments):
    """W_BB and residual of one direct pass of the solver kernel."""
    return [(b.w_bb, b.history) for b in _solve(segments)]


def one_pass(arch, w_opt, start):
    """Phases and W_BB of one alternating pass from the start phases: the
    W_BB half-step at the start phases, then the phase half-step."""
    sol = _solve([(arch, w_opt[None], start[None])],
                 OptimizerConfig(max_iterations=1))[0]
    return sol.phases[0], sol.w_bb[0]


class TestUpdateWbb:
    """The W_BB half-step, as one direct pass of the solver kernel."""

    def test_identity_analog(self):
        rng = np.random.default_rng(2)
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1)
        w_opt = rand_complex(rng, (4, 2))
        (w_bb, _), = direct_pass([(arch, w_opt[None], np.zeros((1, 4)))])
        np.testing.assert_allclose(w_bb[0], w_opt, atol=1e-14)

    def test_equals_generic_pseudoinverse(self):
        # non-proportional: apd_depth=6 groups straddle the depth-4 blocks
        rng = np.random.default_rng(3)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=4, apd_depth=6)
        phases = rng.uniform(0, 2 * np.pi, 9)
        w_opt = rand_complex(rng, (36, 3))
        (w_bb, _), = direct_pass([(arch, w_opt[None], phases[None])])
        np.testing.assert_allclose(
            w_bb[0], np.linalg.pinv(compose_wrf(arch, phases)) @ w_opt,
            atol=1e-12)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(4)
        arch = ReuseArchitecture(n_blocks=4, lo_depth=3, apd_depth=2)
        phases = rng.uniform(0, 2 * np.pi, 4)
        w_rf = compose_wrf(arch, phases)
        w_opt = rand_complex(rng, (12, 2))
        (w_bb, _), = direct_pass([(arch, w_opt[None], phases[None])])
        best = np.linalg.norm(w_opt - w_rf @ w_bb[0])
        for _ in range(25):
            other = w_bb[0] + 0.1 * rand_complex(rng, (6, 2))
            assert np.linalg.norm(w_opt - w_rf @ other) >= best - 1e-12

    def test_per_sample_group_sizes_equal_lone_calls(self):
        # the stack sums its mixed adder depths by reduceat; alone, depth 1
        # takes no sum and depth 2 the equal-group slice adds
        rng = np.random.default_rng(5)
        segments = [(ReuseArchitecture(n_blocks=36, lo_depth=4, apd_depth=apd),
                     rand_complex(rng, (1, 144, 3)),
                     rng.uniform(0, 2 * np.pi, (1, 36)))
                    for apd in (2, 8, 48, 1, 144, 8)]
        for stacked, lone in zip(direct_pass(segments),
                                 [direct_pass([s])[0] for s in segments]):
            np.testing.assert_array_equal(stacked[0], lone[0])
            np.testing.assert_array_equal(stacked[1], lone[1])


class TestOptimalPhase:
    """The phase half-step, as one alternating pass of the solver kernel:
    adder groups of 2 straddle blocks of depth 3, so W_BB couples them."""

    ARCH = ReuseArchitecture(n_blocks=2, lo_depth=3, apd_depth=2)

    def range_target(self, rng, start):
        # W_opt = W_RF(start) B: every block keeps its start phase
        return compose_wrf(self.ARCH, start) @ rand_complex(rng, (3, 2))

    def test_identical_matrices(self):
        rng = np.random.default_rng(5)
        start = np.zeros(2)
        phases, _ = one_pass(self.ARCH, self.range_target(rng, start), start)
        np.testing.assert_allclose(phases, 0.0, rtol=0, atol=1e-12)

    def test_pure_rotation(self):
        rng = np.random.default_rng(6)
        start = np.full(2, 1.2)
        phases, _ = one_pass(self.ARCH, self.range_target(rng, start), start)
        np.testing.assert_allclose(phases, 1.2, rtol=0, atol=1e-12)

    def test_beats_dense_grid(self):
        # each block phase against 1e5 candidates, W_BB held
        rng = np.random.default_rng(7)
        grid = np.exp(1j * 2 * np.pi * np.arange(100_000) / 100_000)
        for _ in range(10):
            w_opt = rand_complex(rng, (6, 2))
            phases, w_bb = one_pass(self.ARCH, w_opt,
                                    rng.uniform(0, 2 * np.pi, 2))
            x = (compose_wrf(self.ARCH, np.zeros(2)) @ w_bb).reshape(2, 3, 2)
            for y, x_b, phi in zip(w_opt.reshape(2, 3, 2), x, phases):
                mine = np.linalg.norm(y - np.exp(1j * phi) * x_b)
                over_grid = np.linalg.norm(
                    y[None] - grid[:, None, None] * x_b[None], axis=(1, 2))
                assert mine <= over_grid.min() + 1e-10

    def test_trace_phase_wraps_within_1e_12_of_2pi(self):
        # arg t 1e-10 below 2pi is kept; 1e-13 below it is 0
        assert _trace_phase(np.exp(-1j * 1e-10)) == pytest.approx(
            2 * np.pi - 1e-10, rel=0, abs=1e-15)
        assert _trace_phase(np.exp(-1j * 1e-13)) == 0.0

    def test_degenerate_trace_returns_zero(self):
        # a zero target block has a zero trace, whatever its start phase;
        # its rotation is 1, alone or stacked beside a sample with nonzero
        # traces, with no warning and no inf or NaN
        rng = np.random.default_rng(8)
        w_opt = rand_complex(rng, (6, 2))
        w_opt[3:] = 0
        start = np.array([[0.5, 1.5], [1.0, 2.0]])
        stack = np.stack([rand_complex(rng, (6, 2)), w_opt])
        config = OptimizerConfig(epsilon=1e-12, max_iterations=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phases, _ = one_pass(self.ARCH, w_opt, start[1])
            both = _solve([(self.ARCH, stack, start)], config)[0]
            lone = _solve([(self.ARCH, w_opt[None], start[1:])], config)[0]
        assert phases[1] == 0.0
        assert both.phases[1, 1] == 0.0
        for sol in (both, lone):
            assert np.isfinite(sol.w_bb).all()
            assert np.isfinite(sol.history).all()
        np.testing.assert_array_equal(both.phases[1], lone.phases[0])
        np.testing.assert_array_equal(both.w_bb[1], lone.w_bb[0])
        np.testing.assert_array_equal(both.history[1], lone.history[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="combining target"):
            alternating_minimize(self.ARCH, np.ones((7, 2)),
                                 rng=np.random.default_rng(0))


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

    @pytest.mark.parametrize("bits", [0, -1, 2.5, 2.0, True, 53])
    def test_bad_bits_rejected(self, bits):
        # a float or a bool is no bit count, even one equal to an integer
        with pytest.raises(ValueError, match="bits must be an integer"):
            quantize_phase(1.0, bits)

    @pytest.mark.parametrize("bits", [0, -1, 2.5, 2.0, True, 53])
    def test_bad_bits_rejected_by_phase_grid(self, bits):
        # checked before the 2^B levels are allocated: 53 bits would ask
        # for 64 PiB
        with pytest.raises(ValueError, match="bits must be an integer"):
            phase_grid(bits)

    @pytest.mark.parametrize("phase", [np.nan, np.inf, [0.5, np.nan]])
    def test_non_finite_rejected(self, phase):
        with pytest.raises(ValueError, match="finite"):
            quantize_phase(phase, 2)


class TestAlternatingMinimize:
    def test_fully_dedicated_reaches_zero(self):
        rng = np.random.default_rng(9)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=1, apd_depth=1)
        w_opt = rand_orthonormal(rng, 16, 3)
        sol = alternating_minimize(arch, w_opt, rng=rng)
        assert sol.residual < 1e-8
        assert sol.iterations > 0
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

    def test_stop_needs_change_below_epsilon(self):
        # a sample stops when consecutive squared residuals differ by less
        # than epsilon: a change equal to epsilon runs on, and epsilon one
        # float above it stops the same solve at iteration 2
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=4)
        w_opt = rand_orthonormal(np.random.default_rng(26), 32, 2)

        def solve(epsilon):
            return alternating_minimize(
                arch, w_opt, config=OptimizerConfig(epsilon=epsilon),
                rng=np.random.default_rng(27))

        h = solve(1e-4).residual_history
        epsilon = abs(h[0] * h[0] - h[1] * h[1])
        assert epsilon > 0
        assert solve(epsilon).iterations > 2
        sol = solve(np.nextafter(epsilon, np.inf))
        assert (sol.iterations, sol.converged) == (2, True)

    def test_stream_count_validated(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=4)
        with pytest.raises(ArchitectureError):
            alternating_minimize(arch, np.eye(4, dtype=complex)[:, :3],
                                 rng=np.random.default_rng(0))

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, "3"])
    def test_iteration_cap_must_be_integer(self, cap):
        # neither 2.5 nor True can size the solver's history buffer
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerConfig(max_iterations=cap)

    def test_iteration_cap_bounded(self):
        # the kernel reserves one history column per allowed iteration
        OptimizerConfig(max_iterations=MAX_ITERATIONS)
        for cap in (MAX_ITERATIONS + 1, 10 ** 13):
            with pytest.raises(ValueError, match="max_iterations"):
                OptimizerConfig(max_iterations=cap)

    def test_numpy_integer_cap(self):
        rng = np.random.default_rng(15)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4)
        sol = alternating_minimize(
            arch, rand_orthonormal(rng, 96, 3), rng=rng,
            config=OptimizerConfig(epsilon=1e-30,
                                   max_iterations=np.int64(3)))
        assert sol.iterations == 3


class TestDirectSolver:
    def test_fully_dedicated_zero_phase(self):
        rng = np.random.default_rng(15)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=1, apd_depth=1)
        w_opt = rand_orthonormal(rng, 9, 2)
        sol = direct_solve_proportional(arch, w_opt)
        np.testing.assert_allclose(sol.w_bb, w_opt, atol=1e-13)
        assert sol.residual < 1e-12
        assert sol.iterations == 0
        np.testing.assert_array_equal(sol.phases, np.zeros(9))

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
        r1 = _solve([(arch, w_opt[None], np.full((1, 16), np.pi / 2))]
                    )[0].solution(0).residual
        assert r0 == pytest.approx(r1, abs=1e-12)

    def test_row_formula_matches_pseudoinverse(self):
        rng = np.random.default_rng(18)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=6, apd_depth=2)
        w_opt = rand_complex(rng, (54, 3))
        phases = rng.uniform(0, 2 * np.pi, 9)
        sol, = _solve([(arch, w_opt[None], phases[None])])
        expected = np.linalg.pinv(compose_wrf(arch, phases)) @ w_opt
        np.testing.assert_allclose(sol.w_bb[0], expected, atol=1e-10)

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
    """A segment without start phases runs the direct solver, one with
    them alternating minimization.  The run resolves a curve's 'auto': it
    draws start phases for reuse that is not proportional only."""

    @staticmethod
    def auto_segment(arch, w_opt):
        """The segment a run builds for an 'auto' curve on one trial."""
        unit = EvalUnit(label="auto", kind="rydberg", arch=arch,
                        geometry=ArrayGeometry(arch.n_blocks, arch.lo_depth))
        spec = ExperimentSpec(
            channel=ChannelParams(n_tx=16, n_clusters=3, n_rays=4),
            units=(unit,), n_streams=2, snr_db=(0.0,), trials=1, seed=5)
        return arch, w_opt[None], _start_phases(spec, range(1)).get(0)

    def test_auto_routes_proportional_to_direct(self):
        rng = np.random.default_rng(20)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=2)
        w_opt = rand_orthonormal(rng, 32, 2)
        segment = self.auto_segment(arch, w_opt)
        assert segment[2] is None
        sol = solve_stack([segment], None)[0]
        assert sol.iterations.tolist() == [0]
        np.testing.assert_array_equal(
            sol.w_bb[0], direct_solve_proportional(arch, w_opt).w_bb)

    def test_auto_routes_general_to_altmin(self):
        rng = np.random.default_rng(21)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=4)
        w_opt = rand_orthonormal(rng, 32, 2)
        segment = self.auto_segment(arch, w_opt)
        assert segment[2].shape == (1, 16)
        sol = solve_stack([segment], None)[0]
        assert sol.iterations[0] > 0

    def test_start_phases_run_altmin(self):
        rng = np.random.default_rng(21)
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=2)
        w_opt = rand_orthonormal(rng, 32, 2)
        sol = solve_stack([(arch, w_opt[None], start_phases(arch, [3]))],
                          None)[0]
        assert sol.iterations[0] > 0
        lone = alternating_minimize(arch, w_opt, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(sol.w_bb[0], lone.w_bb)

    def test_direct_needs_proportional_reuse(self):
        arch = ReuseArchitecture(n_blocks=16, lo_depth=2, apd_depth=4)
        with pytest.raises(ArchitectureError, match="does not divide"):
            solve_stack([(arch, np.eye(32, 2, dtype=complex)[None], None)],
                        None)

    def test_unknown_method_rejected(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1)
        with pytest.raises(ValueError, match="unknown solver 'exhaustive'"):
            EvalUnit(label="x", kind="rydberg", geometry=ArrayGeometry(4, 1),
                     arch=arch, solver="exhaustive")


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
            [(arch, w, start_phases(arch, ss))
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
        return batches

    def test_mixed_apd_stack_rows_equal_lone_solves(self):
        # fig10's partially-connected curves: one structure (144 blocks,
        # lo_depth 1), adder depths 36, 9 and 3
        geometry = ArrayGeometry(144, 1)
        archs = [pc_architecture(144, c) for c in (4, 16, 48)]
        targets = [self.channel_targets(1, 3, seed=30 + k, geometry=geometry)
                   for k in range(3)]
        seeds = [range(3 * k, 3 * k + 3) for k in range(3)]
        batches = self.assert_rows_equal_lone_solves(
            archs, targets, seeds, OptimizerConfig(epsilon=1e-6,
                                                   max_iterations=30))
        # a later segment, with other chain counts, has a sample that stops
        # before one of the segment ahead of it: the stops write W_BB rows
        # out of sample order
        its = [batch.iterations for batch in batches]
        assert its[0].max() > its[1].min() and its[1].max() > its[2].min()

    def test_mixed_quantized_stack_rows_equal_lone_solves(self):
        # 4-bit phases, adder depths 4, 12 and 32 on 16 blocks of depth 6;
        # the last segment has its own intra-block spacing, so its own offsets
        archs = [ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=apd,
                                   intra_spacing=spacing, resolution_bits=4)
                 for apd, spacing in ((4, 0.05), (12, 0.05), (32, 0.17))]
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
        batch = solve_stack([(arch, w_opt, start_phases(arch, range(6)))],
                            config)[0]
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
        batch = solve_stack([(arch, w_opt, None)], None)[0]
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
        batch, = _solve([(arch, w_opt, np.tile(phases, (3, 1)))])
        for i in range(3):
            lone = _solve([(arch, w_opt[i][None], phases[None])]
                          )[0].solution(0)
            np.testing.assert_array_equal(batch.phases[i], lone.phases)
            np.testing.assert_array_equal(batch.w_bb[i], lone.w_bb)
            assert batch.solution(i).residual == lone.residual

    def test_shared_generators_drawn_once(self):
        # resolution variants given one start array, drawn once from one
        # generator per target, as a run gives them: each row equals its
        # lone solve from a fresh generator of the same seed, and the
        # shared array is left as it was drawn
        archs = [ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4,
                                   resolution_bits=bits) for bits in (1, None)]
        w_opt = self.channel_targets(6, 3, seed=25)
        start = start_phases(archs[0], range(3))
        drawn = start.copy()
        config = OptimizerConfig(epsilon=1e-4, max_iterations=20)
        batches = solve_stack([(arch, w_opt, start) for arch in archs],
                              config)
        np.testing.assert_array_equal(start, drawn)
        for arch, batch in zip(archs, batches):
            for i in range(3):
                lone = alternating_minimize(arch, w_opt[i], config=config,
                                            rng=np.random.default_rng(i))
                np.testing.assert_array_equal(batch.solution(i).phases,
                                              lone.phases)
                np.testing.assert_array_equal(batch.solution(i).w_bb,
                                              lone.w_bb)

    def test_one_generator_per_target(self):
        # one start row, drawn from one generator, per target
        arch = ReuseArchitecture(n_blocks=16, lo_depth=6, apd_depth=4)
        w_opt = self.channel_targets(6, 3, seed=22)
        with pytest.raises(ValueError, match=r"start phases of shape \(1, 16\) "
                                             "for 3 targets of 16 blocks"):
            solve_stack([(arch, w_opt, start_phases(arch, [0]))], None)


class TestCells:
    """Alternation on cells of g = gcd(lo_depth, apd_depth) rows: adder
    depths 5, 4, 3 and 12 on 10 blocks of depth 6 give g = 1, 2, 3 and 6."""

    def test_mixed_cell_stack_rows_equal_lone_solves(self):
        # one segment per g, interleaved so that sorting by g moves them,
        # and one target with a block whose trace vanishes
        rng = np.random.default_rng(60)
        archs = [ReuseArchitecture(n_blocks=10, lo_depth=6, apd_depth=apd)
                 for apd in (12, 5, 3, 4)]
        targets = [np.stack([rand_orthonormal(rng, 60, 3) for _ in range(3)])
                   for _ in range(4)]
        targets[2][1, 12:18] = 0
        seeds = [range(10 * k, 10 * k + 3) for k in range(4)]
        TestSolveBatch.assert_rows_equal_lone_solves(
            archs, targets, seeds, OptimizerConfig(epsilon=1e-8,
                                                   max_iterations=25))
        lone = alternating_minimize(archs[2], targets[2][1],
                                    OptimizerConfig(1e-8, 25),
                                    np.random.default_rng(21))
        assert lone.phases[2] == 0

    def test_cell_residual_equals_row_residual(self):
        # V + g * sum_c ||m_c - u_c w_c||^2 is the squared row residual for
        # any block phases and any W_BB
        rng = np.random.default_rng(61)
        for apd in (5, 4, 3, 12):
            arch = ReuseArchitecture(n_blocks=10, lo_depth=6, apd_depth=apd)
            g = math.gcd(6, apd)
            target = rand_complex(rng, (4, arch.n_r, 3))
            cells, spread = _cell_means(target, _cell_classes([(g, 4)],
                                                              arch.n_r))
            rotation = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 10)))
            w_bb = rand_complex(rng, (4, arch.n_chains, 3))
            rows = (np.repeat(rotation, 6, axis=1)[..., None]
                    * np.repeat(w_bb, apd, axis=1))
            cell_rows = (np.repeat(rotation, 6 // g, axis=1)[..., None]
                         * np.repeat(w_bb, apd // g, axis=1))
            got = np.sqrt(spread + g * np.sum(
                np.abs(cells.reshape(4, -1, 3) - cell_rows) ** 2, axis=(1, 2)))
            want = np.linalg.norm(target - rows, axis=(1, 2))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert (spread == 0).all() == (g == 1)


# The solver kernel as it stood before the phase half-step took the block
# rotation from the trace: every pass formed the angle of each block trace
# and its exp, summed the trace over two axes and summed the adder groups
# through the general reduceat path.  Kept verbatim as the reference.

def _oracle_phase(block_target, block_product):
    t = np.sum(np.conj(block_product) * block_target, axis=(-2, -1))
    phi = np.angle(t) % (2 * np.pi)
    return np.where((t == 0) | (2 * np.pi - phi < 1e-12), 0.0, phi)


def _oracle_quantize(phase, bits):
    n_levels = 2 ** bits
    step = 2 * np.pi / n_levels
    return step * (np.round(np.asarray(phase, dtype=float) / step).astype(int)
                   % n_levels)


def _oracle_wbb(u, w_opt, apd_depth):
    prod = np.conj(u)[..., None] * w_opt
    *batch, n_r, n_s = prod.shape
    sizes = np.broadcast_to(apd_depth, batch).ravel()
    groups = np.repeat(sizes, n_r // sizes)
    w_bb = (np.add.reduceat(prod.reshape(-1, n_s), np.cumsum(groups) - groups)
            / groups[:, None])
    return np.repeat(w_bb, groups, axis=0).reshape(prod.shape)


def _oracle_residual(target, u, rows):
    return np.linalg.norm(target - u[..., None] * rows, axis=(-2, -1))


def _oracle_solve(segments, config=None):
    """(phases, w_bb, history, iterations, converged) per segment."""
    arch = segments[0][0]
    target = np.concatenate([
        np.conj(np.exp(1j * a.intra_offsets.ravel()))[:, None] * w
        for a, w, _ in segments])
    sizes = [len(w) for _, w, _ in segments]
    apd = np.repeat([a.apd_depth for a, _, _ in segments], sizes)
    phases = np.concatenate([p for _, _, p in segments])
    n_b, _, n_s = target.shape
    u = np.repeat(np.exp(1j * phases), arch.lo_depth, axis=-1)

    def split(phases, rows, history, iterations, converged):
        ends = np.cumsum(sizes)
        return [(phases[i:j], np.ascontiguousarray(rows[i:j, ::a.apd_depth]),
                 history[i:j], iterations[i:j], converged[i:j])
                for (a, _, _), i, j in zip(segments, ends - sizes, ends)]

    if config is None:
        rows = _oracle_wbb(u, target, apd)
        return split(phases, rows, _oracle_residual(target, u, rows)[:, None],
                     np.zeros(n_b, dtype=int), np.ones(n_b, dtype=bool))

    cap = config.max_iterations
    blocks = (arch.n_blocks, arch.lo_depth, n_s)
    out_phases = np.empty_like(phases)
    out_rows = np.empty_like(target)
    history = np.empty((n_b, cap))
    iterations = np.full(n_b, cap)
    converged = np.zeros(n_b, dtype=bool)
    live = np.arange(n_b)
    prev_sq = None
    for k in range(cap):
        rows = _oracle_wbb(u, target, apd)
        phases = _oracle_phase(target.reshape(-1, *blocks),
                               rows.reshape(-1, *blocks))
        if arch.resolution_bits is not None:
            phases = _oracle_quantize(phases, arch.resolution_bits)
        u = np.repeat(np.exp(1j * phases), arch.lo_depth, axis=-1)
        res = _oracle_residual(target, u, rows)
        history[live, k] = res
        sq = res * res
        done = (np.zeros(live.size, dtype=bool) if prev_sq is None
                else np.abs(prev_sq - sq) < config.epsilon)
        stop = done | (k == cap - 1)
        if stop.any():
            idx = live[stop]
            out_phases[idx] = phases[stop]
            out_rows[idx] = rows[stop]
            history[idx, k + 1:] = res[stop, None]
            iterations[idx] = k + 1
            converged[idx] = done[stop]
            keep = ~stop
            live, target, u, sq = live[keep], target[keep], u[keep], sq[keep]
            apd = apd[keep]
            if not live.size:
                break
        prev_sq = sq
    return split(out_phases, out_rows, history, iterations, converged)


class TestKernelMatchesOracle:
    """The kernel against the verbatim reference on random stacks that mix
    adder depths 1, 3, 4 and 36 on 36 blocks.  Every solve stops at the
    same iteration with the same flag.  Direct solves, and B-bit solves on
    cells of one row (g = gcd(lo_depth, apd_depth) = 1), agree bit for bit;
    B-bit solves on larger cells have the same grid phases; continuous
    iterates, and W_BB and history on larger cells, agree to 1e-12."""

    @staticmethod
    def random_stack(lo, n_s, bits, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 55))
        apds = rng.choice([1, 3, 4, 36], size=count)
        apds[0] = 1
        segments = []
        for apd in (1, 3, 4, 36):
            n = int(np.sum(apds == apd))
            if not n:
                continue
            arch = ReuseArchitecture(n_blocks=36, lo_depth=lo, apd_depth=apd,
                                     resolution_bits=bits)
            w = np.stack([rand_orthonormal(rng, arch.n_r, n_s)
                          for _ in range(n)])
            segments.append((arch, w, rng.uniform(0, 2 * np.pi, (n, 36))))
        # one block whose trace vanishes, and one start just below 2pi: on
        # one antenna per group the trace keeps the phase it is given
        arch, w, phases = segments[0]
        w[0, 5 * lo:6 * lo] = 0
        phases[-1, 7] = 2 * np.pi - 1e-13
        return segments

    @staticmethod
    def kernel(segments, config):
        return [(b.phases, b.w_bb, b.history, b.iterations, b.converged)
                for b in _solve(segments, config)]

    @pytest.mark.parametrize("bits", [None, 1, 2, 3])
    @pytest.mark.parametrize("n_s", [2, 3])
    @pytest.mark.parametrize("lo", [1, 4, 6])
    def test_alternating(self, lo, n_s, bits):
        for seed, config in ((lo * 10 + n_s, OptimizerConfig(1e-4, 100)),
                             (lo * 10 + n_s + 5, OptimizerConfig(1e-10, 40))):
            segments = self.random_stack(lo, n_s, bits, seed)
            oracle = _oracle_solve(segments, config)
            assert oracle[0][0][0, 5] == 0 and oracle[0][0][-1, 7] < 1e-12
            for (arch, _, _), got, want in zip(
                    segments, self.kernel(segments, config), oracle):
                exact = bits is not None and math.gcd(lo, arch.apd_depth) == 1
                np.testing.assert_array_equal(got[3], want[3])
                np.testing.assert_array_equal(got[4], want[4])
                for n, (g, w) in enumerate(zip(got[:3], want[:3])):
                    if exact or (n == 0 and bits is not None):
                        np.testing.assert_array_equal(g, w)
                    else:
                        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (2, 2),
                                       (4, 2), (4, 3), (6, 3)])
    def test_phase_equals_two_axis_sum(self, shape):
        # a flat sum, and slice adds below 4 terms, add in np.sum's order
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        x, y = (rand_complex(rng, (50, 36) + shape) for _ in range(2))
        np.testing.assert_array_equal(
            _trace_phase(_trace_sum((np.conj(x) * y).reshape(50, 36, -1))),
            _oracle_phase(y, x))

    @pytest.mark.parametrize("lo", [1, 4, 6])
    def test_direct(self, lo):
        for apds in ((1, 3, 4, 36), (1,)):
            segments = [s for s in self.random_stack(lo, 3, None, lo)
                        if s[0].apd_depth in apds]
            for got, want in zip(self.kernel(segments, None),
                                 _oracle_solve(segments, None)):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
