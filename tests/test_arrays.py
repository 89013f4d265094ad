import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomb import (ArrayGeometry, GeometryError, array_response,
                     axial_response, upa_response)


def nonupa(n_blocks=36, n_per_block=6, block_spacing=0.5, intra_spacing=0.05):
    return ArrayGeometry(n_blocks, n_per_block, block_spacing, intra_spacing)


class TestUpaResponse:
    def test_broadside_all_ones(self):
        # sin(az)=0 and cos(el)=0 kill every exponent
        v = upa_response(0.0, np.pi / 2, 4, 0.5)
        np.testing.assert_allclose(v, 0.5 * np.ones(4), atol=1e-15)

    def test_endfire_signs(self):
        # exponents are pi*q1 under q2-fastest ordering: [0, 0, pi, pi]
        v = upa_response(np.pi / 2, np.pi / 2, 4, 0.5)
        np.testing.assert_allclose(v, 0.5 * np.array([1, 1, -1, -1]),
                                   atol=1e-12)

    def test_matches_elementwise_oracle(self):
        az, el, n, d = 0.7, 1.9, 9, 0.4
        v = upa_response(az, el, n, d)
        side = 3
        for q1 in range(side):
            for q2 in range(side):
                expected = np.exp(1j * 2 * np.pi * d * (
                    q1 * np.sin(az) * np.sin(el) + q2 * np.cos(el))) / 3.0
                assert v[q1 * side + q2] == pytest.approx(expected, abs=1e-14)

    def test_angle_array_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        az, el = rng.uniform(0, 2 * np.pi, 50), rng.uniform(0, np.pi, 50)
        n, d, side = 144, 0.5, 12
        m = upa_response(az, el, n, d)
        assert m.shape == (n, 50)
        q1, q2 = np.divmod(np.arange(n), side)
        for p in range(50):
            expected = np.exp(1j * 2 * np.pi * d * (
                q1 * np.sin(az[p]) * np.sin(el[p]) + q2 * np.cos(el[p]))) / side
            np.testing.assert_allclose(m[:, p], expected, rtol=0, atol=1e-14)

    def test_unit_norm_144(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            az, el = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            v = upa_response(az, el, 144, 0.5)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(GeometryError):
            upa_response(0.1, 0.2, 6, 0.5)

    def test_non_positive_spacing_rejected(self):
        with pytest.raises(GeometryError):
            upa_response(0.1, 0.2, 4, 0.0)


class TestRydbergResponse:
    def test_single_sub_element_equals_upa(self):
        # one sub-element per block is the UPA, bit for bit
        rng = np.random.default_rng(5)
        angles = [(1.1, 0.7), (rng.uniform(0, 2 * np.pi, 50),
                               rng.uniform(0, np.pi, 50))]
        for n in (16, 36, 144):
            for az, el in angles:
                assert np.array_equal(
                    array_response(nonupa(n, 1, 0.4), az, el),
                    upa_response(az, el, n, 0.4))

    def test_horizontal_axial_uniform(self):
        # cos(el) = 0 kills the axial exponents
        a_z = axial_response(np.pi / 2, 3, 0.05)
        np.testing.assert_allclose(a_z, np.ones(3) / np.sqrt(3), atol=1e-15)

    def test_kron_matches_double_loop_oracle(self):
        az, el = 0.3, 1.1
        g = nonupa(36, 6, 0.5, 0.05)
        v = array_response(g, az, el)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        block = upa_response(az, el, 36, 0.5)
        expected = np.empty(36 * 6, dtype=complex)
        for i in range(36):
            for k in range(6):
                axial = np.exp(1j * 2 * np.pi * 0.05 * (k - 2.5) * np.cos(el))
                expected[i * 6 + k] = block[i] * axial / np.sqrt(6)
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_dispatch(self):
        g_upa = ArrayGeometry(16, 1)
        g_ryd = nonupa(16, 3)
        np.testing.assert_array_equal(array_response(g_upa, 0.4, 0.9),
                                      upa_response(0.4, 0.9, 16, 0.5))
        np.testing.assert_allclose(
            array_response(g_ryd, 0.4, 0.9),
            np.kron(upa_response(0.4, 0.9, 16, 0.5),
                    axial_response(0.9, 3, 0.05)), atol=1e-15)

    @settings(deadline=None, max_examples=50)
    @given(az=st.floats(-10, 10), el=st.floats(-10, 10),
           n_blocks=st.sampled_from([4, 9, 16, 36]),
           n_sub=st.integers(1, 8))
    def test_unit_norm_property(self, az, el, n_blocks, n_sub):
        v = array_response(nonupa(n_blocks, n_sub), az, el)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestSteeringMatrix:
    """Angle arrays give one column per path, equal to the per-path vector."""

    @pytest.mark.parametrize("geometry", [ArrayGeometry(144, 1),
                                          ArrayGeometry(36, 1),
                                          nonupa(36, 6), nonupa(9, 4)])
    def test_columns_match_per_path(self, geometry):
        rng = np.random.default_rng(3)
        az = rng.uniform(0, 2 * np.pi, 50)
        el = rng.uniform(0, np.pi, 50)
        m = array_response(geometry, az, el)
        assert m.shape == (geometry.n_elements, 50)
        for p in range(50):
            np.testing.assert_allclose(m[:, p], array_response(geometry, az[p], el[p]),
                                       rtol=0, atol=1e-15)

    def test_kronecker_columns(self):
        rng = np.random.default_rng(4)
        az = rng.uniform(0, 2 * np.pi, 20)
        el = rng.uniform(0, np.pi, 20)
        m = array_response(nonupa(36, 6), az, el)
        for p in range(20):
            expected = np.kron(upa_response(az[p], el[p], 36, 0.5),
                               axial_response(el[p], 6, 0.05))
            np.testing.assert_allclose(m[:, p], expected, rtol=0, atol=1e-15)


class TestGeometryValidation:
    def test_blocks_must_be_square(self):
        with pytest.raises(GeometryError):
            nonupa(n_blocks=10)

    def test_positive_counts_and_spacings(self):
        with pytest.raises(GeometryError):
            nonupa(n_blocks=0)
        with pytest.raises(GeometryError):
            nonupa(block_spacing=-0.5)
        with pytest.raises(GeometryError):
            nonupa(intra_spacing=-0.01)

    def test_element_count(self):
        assert nonupa(36, 6).n_elements == 216

    # (4, 2.5) would claim 10 elements while its response has 12 rows
    @pytest.mark.parametrize("counts", [(4, 2.5), (4.0, 1), (True, 1),
                                        (4, True)])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(GeometryError, match="integers"):
            ArrayGeometry(*counts)

    def test_numpy_integer_counts(self):
        geometry = ArrayGeometry(np.int64(36), np.int32(6))
        assert geometry.n_elements == 216
        assert array_response(geometry, 0.3, 1.1).shape == (216,)
