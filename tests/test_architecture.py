import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomb import (ArchitectureError, ReuseArchitecture, build_wlc,
                     compose_wrf, default_intra_offsets, diagonal_phases,
                     is_proportional)


def rand_phases(arch, rng):
    return rng.uniform(0, 2 * np.pi, arch.n_blocks)


class TestBuildWlc:
    def test_dedicated_is_identity(self):
        np.testing.assert_array_equal(build_wlc(4, 1), np.eye(4))

    def test_depth_two(self):
        expected = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        np.testing.assert_array_equal(build_wlc(4, 2), expected)

    def test_orthogonality_216_6(self):
        w = build_wlc(216, 6)
        np.testing.assert_allclose(w.T @ w, 6 * np.eye(36), atol=1e-12)

    def test_non_divisible_rejected(self):
        with pytest.raises(ArchitectureError):
            build_wlc(10, 4)


class TestBuildWlo:
    """The LO stage W_LO = diag(exp(j*diagonal_phases)), checked through
    the phase vector and the composed W_RF."""

    def test_dedicated_zero_phase_identity(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1)
        np.testing.assert_allclose(compose_wrf(arch, np.zeros(4)), np.eye(4),
                                   atol=1e-15)

    def test_default_offsets_depth_two(self):
        # symmetric sub-element positions give +-0.05*pi at depth 2
        arch = ReuseArchitecture(n_blocks=1, lo_depth=2, apd_depth=1)
        np.testing.assert_allclose(
            np.exp(1j * diagonal_phases(arch, np.zeros(1))),
            [np.exp(-1j * 0.05 * np.pi), np.exp(1j * 0.05 * np.pi)],
            atol=1e-15)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        arch = ReuseArchitecture(n_blocks=9, lo_depth=4, apd_depth=6)
        w = compose_wrf(arch, rand_phases(arch, rng))
        # one unit-modulus LO factor per antenna, nothing else
        nonzero = w[w != 0]
        assert nonzero.size == arch.n_r
        np.testing.assert_allclose(np.abs(nonzero), 1.0, atol=1e-12)

    def test_finite_resolution_grid_enforced(self):
        arch = ReuseArchitecture(n_blocks=2, lo_depth=2, apd_depth=1,
                                 resolution_bits=2)
        diagonal_phases(arch, np.array([0.0, 3 * np.pi / 2]))  # on the grid
        with pytest.raises(ArchitectureError):
            diagonal_phases(arch, np.array([0.0, 0.3]))
        with pytest.raises(ArchitectureError):
            compose_wrf(arch, np.array([0.0, 0.3]))

    def test_phase_length_checked(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1)
        with pytest.raises(ArchitectureError):
            diagonal_phases(arch, np.zeros(3))
        with pytest.raises(ArchitectureError):
            compose_wrf(arch, np.zeros(3))


class TestComposeWrf:
    def test_fully_dedicated_diagonal_unitary(self):
        arch = ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1)
        rng = np.random.default_rng(1)
        w = compose_wrf(arch, rand_phases(arch, rng))
        np.testing.assert_allclose(w @ w.conj().T, np.eye(4), atol=1e-12)
        assert np.count_nonzero(w - np.diag(np.diag(w))) == 0

    def test_zero_phase_shared_collapses_to_wlc(self):
        offsets = np.zeros((2, 2))
        arch = ReuseArchitecture(n_blocks=2, lo_depth=2, apd_depth=2,
                                 intra_offsets=offsets)
        w = compose_wrf(arch, np.zeros(2))
        np.testing.assert_allclose(
            w, np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex),
            atol=1e-15)

    def test_matches_dense_product_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            lo = int(rng.choice([1, 2, 3, 6]))
            n_r = 9 * lo
            apd = int(rng.choice([d for d in (1, 2, 3, 6, 9) if n_r % d == 0]))
            arch = ReuseArchitecture(n_blocks=9, lo_depth=lo, apd_depth=apd)
            phases = rand_phases(arch, rng)
            w_lo = np.diag(np.exp(1j * (np.repeat(phases, lo)
                                        + arch.intra_offsets.ravel())))
            dense = w_lo @ build_wlc(n_r, apd)
            np.testing.assert_allclose(compose_wrf(arch, phases), dense,
                                       atol=1e-13)

    def test_column_orthogonality_and_sparsity(self):
        rng = np.random.default_rng(3)
        arch = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=4)
        w = compose_wrf(arch, rand_phases(arch, rng))
        np.testing.assert_allclose(w.conj().T @ w, 4 * np.eye(54), atol=1e-12)
        for col in w.T:
            nz = col[np.abs(col) > 0]
            assert nz.size == 4
            np.testing.assert_allclose(np.abs(nz), 1.0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(n_blocks=st.sampled_from([4, 9, 16]), lo=st.integers(1, 6),
           apd_idx=st.integers(0, 5), seed=st.integers(0, 1000))
    def test_orthogonality_property(self, n_blocks, lo, apd_idx, seed):
        n_r = n_blocks * lo
        divisors = [d for d in range(1, n_r + 1) if n_r % d == 0]
        apd = divisors[apd_idx % len(divisors)]
        arch = ReuseArchitecture(n_blocks=n_blocks, lo_depth=lo, apd_depth=apd)
        w = compose_wrf(arch, rand_phases(arch, np.random.default_rng(seed)))
        np.testing.assert_allclose(w.conj().T @ w,
                                   apd * np.eye(arch.n_chains), atol=1e-12)


class TestProportional:
    def test_examples(self):
        assert is_proportional(ReuseArchitecture(36, 6, 3))
        assert not is_proportional(ReuseArchitecture(36, 6, 4))
        assert is_proportional(ReuseArchitecture(36, 4, 1))
        assert is_proportional(ReuseArchitecture(36, 1, 1))

    def test_block_diagonal_form(self):
        # under proportional reuse W_RF is block diagonal with per-chain
        # columns exp(j*phi_block) * exp(j*offsets_slice)
        arch = ReuseArchitecture(n_blocks=4, lo_depth=6, apd_depth=3)
        rng = np.random.default_rng(4)
        phases = rand_phases(arch, rng)
        w = compose_wrf(arch, phases)
        expected = np.zeros((arch.n_r, arch.n_chains), dtype=complex)
        for n in range(arch.n_chains):
            block = (n * 3) // 6
            sub = slice((n * 3) % 6, (n * 3) % 6 + 3)
            rows = slice(n * 3, (n + 1) * 3)
            expected[rows, n] = np.exp(
                1j * (phases[block] + arch.intra_offsets[block, sub]))
        np.testing.assert_allclose(w, expected, atol=1e-14)


class TestArchitectureValidation:
    def test_apd_must_divide(self):
        with pytest.raises(ArchitectureError):
            ReuseArchitecture(n_blocks=4, lo_depth=3, apd_depth=5)

    def test_offsets_shape(self):
        with pytest.raises(ArchitectureError):
            ReuseArchitecture(n_blocks=4, lo_depth=2, apd_depth=1,
                              intra_offsets=np.zeros((4, 3)))

    def test_dedicated_lo_requires_zero_offsets(self):
        with pytest.raises(ArchitectureError):
            ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1,
                              intra_offsets=np.full((4, 1), 0.2))

    def test_default_offsets_match_helper(self):
        arch = ReuseArchitecture(n_blocks=3, lo_depth=4, apd_depth=2)
        np.testing.assert_array_equal(arch.intra_offsets,
                                      default_intra_offsets(3, 4))

    def test_counts(self):
        arch = ReuseArchitecture(n_blocks=36, lo_depth=6, apd_depth=4)
        assert arch.n_r == 216
        assert arch.n_chains == 54

    def test_resolution_bits_positive(self):
        with pytest.raises(ArchitectureError):
            ReuseArchitecture(n_blocks=4, lo_depth=1, apd_depth=1,
                              resolution_bits=0)

    def test_resolution_bits_at_most_52(self):
        ReuseArchitecture(n_blocks=4, resolution_bits=52)
        with pytest.raises(ArchitectureError, match=r"\[1, 52\]"):
            ReuseArchitecture(n_blocks=4, resolution_bits=53)

