import math

import numpy as np
import pytest

from rydcomb import (ArrayGeometry, ChannelParams, GeometryError, Paths,
                     array_response, channel_matrix, draw_paths,
                     generate_channel, upa_response)
from rydcomb import channel
from rydcomb.channel import block_channels


def nonupa(n_blocks=36, n_per_block=6):
    return ArrayGeometry(n_blocks, n_per_block)


def default_params(**kwargs):
    base = dict(n_tx=144, n_clusters=5, n_rays=10)
    base.update(kwargs)
    return ChannelParams(**base)


class TestParamsValidation:
    def test_n_tx_must_be_square(self):
        with pytest.raises(GeometryError):
            default_params(n_tx=100 + 1)

    def test_cluster_power_length(self):
        with pytest.raises(ValueError):
            default_params(cluster_powers=(1.0, 1.0))

    def test_cluster_powers_positive(self):
        with pytest.raises(ValueError):
            default_params(cluster_powers=(1.0, 1.0, 0.0, 1.0, 1.0))

    def test_unit_powers_default(self):
        assert default_params().cluster_powers == (1.0,) * 5

    def test_path_arrays_must_match(self):
        with pytest.raises(ValueError):
            Paths(gains=np.ones(3, dtype=complex), aoa_azimuth=np.zeros(3),
                  aoa_elevation=np.zeros(3), aod_azimuth=np.zeros(2),
                  aod_elevation=np.zeros(3))


class TestSinglePath:
    def test_rank_one_reduction_exact(self):
        geometry = nonupa(16, 3)
        paths = Paths(gains=np.array([1.0 + 0j]), aoa_azimuth=np.array([0.8]),
                      aoa_elevation=np.array([1.2]), aod_azimuth=np.array([2.1]),
                      aod_elevation=np.array([0.4]))
        h = channel_matrix(paths, 36, geometry).dense()
        a_r = array_response(geometry, 0.8, 1.2)
        a_t = upa_response(2.1, 0.4, 36, 0.5)
        expected = math.sqrt(36 * 48) * np.outer(a_r, a_t.conj())
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_matrix_shape(self):
        params = default_params()
        h = generate_channel(params, nonupa(), np.random.default_rng(0))
        assert h.shape == (216, 144)


class TestStatistics:
    def test_energy_normalization(self):
        # sample mean of ||H||_F^2 against the Nt*Nr target
        params = default_params()
        target = params.n_tx * nonupa().n_elements
        total = 0.0
        trials = 500
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(t,)))
            h = generate_channel(params, nonupa(), rng)
            total += np.linalg.norm(h) ** 2
        assert abs(total / trials / target - 1.0) < 0.05

    def test_cluster_powers_scale_gains(self):
        params = default_params(cluster_powers=(4.0, 1.0, 1.0, 1.0, 1.0),
                                n_rays=200)
        paths = draw_paths(params, np.random.default_rng(5))
        gains = paths.gains.reshape(5, 200)
        first = np.mean(np.abs(gains[0]) ** 2)
        rest = np.mean(np.abs(gains[1:]) ** 2)
        assert first / rest == pytest.approx(4.0, rel=0.35)

    def test_path_count_and_finiteness(self):
        paths = draw_paths(default_params(), np.random.default_rng(1))
        assert paths.n_paths == 50
        for angles in (paths.aoa_azimuth, paths.aoa_elevation,
                       paths.aod_azimuth, paths.aod_elevation):
            assert angles.shape == (50,)
            assert np.all(np.isfinite(angles))

    def test_laplacian_spread_scale(self):
        # offsets around the cluster mean should have std close to the spread
        params = default_params(n_clusters=1, n_rays=4000,
                                angular_spread=math.radians(10.0))
        paths = draw_paths(params, np.random.default_rng(9))
        az = paths.aoa_azimuth
        assert np.std(az - np.mean(az)) == pytest.approx(math.radians(10.0),
                                                         rel=0.1)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        params = default_params()
        h1 = generate_channel(params, nonupa(), np.random.default_rng(123))
        h2 = generate_channel(params, nonupa(), np.random.default_rng(123))
        assert np.array_equal(h1, h2)

    def test_different_seed_differs(self):
        params = default_params()
        h1 = generate_channel(params, nonupa(), np.random.default_rng(123))
        h2 = generate_channel(params, nonupa(), np.random.default_rng(124))
        assert not np.array_equal(h1, h2)

    def test_shared_paths_pair_geometries(self):
        # one path draw feeds both geometries for paired comparisons
        params = default_params()
        paths = draw_paths(params, np.random.default_rng(77))
        h_deep = channel_matrix(paths, 144, nonupa(36, 6))
        h_flat = channel_matrix(paths, 144, ArrayGeometry(36, 1))
        assert h_deep.shape == (216, 144)
        assert h_flat.shape == (36, 144)


class TestBlockChannels:
    GEOMETRIES = [ArrayGeometry(36, 1), nonupa(36, 6), nonupa(9, 4)]

    def test_samples_equal_channel_matrix(self):
        rng = np.random.default_rng(3)
        draws = [draw_paths(default_params(), rng) for _ in range(4)]
        for geometry, block in block_channels(Paths.stack(draws), 144,
                                              self.GEOMETRIES):
            assert block.shape == (geometry.n_elements, 144)
            for b, paths in enumerate(draws):
                lone = channel_matrix(paths, 144, geometry)
                np.testing.assert_array_equal(block.a_rx[b], lone.a_rx)
                np.testing.assert_array_equal(block.gains[b], lone.gains)
                np.testing.assert_array_equal(block.r_tx[b], lone.r_tx)

    def test_one_upa_factor_per_block_layout(self, monkeypatch):
        # the transmitter, then one factor for the two 36-block layouts
        # and one for the 9-block layout
        calls = []
        upa = channel.upa_response

        def recording(az, el, n_elements, spacing):
            calls.append(n_elements)
            return upa(az, el, n_elements, spacing)

        monkeypatch.setattr(channel, "upa_response", recording)
        paths = Paths.stack([draw_paths(default_params(),
                                        np.random.default_rng(s))
                             for s in range(3)])
        list(block_channels(paths, 144, self.GEOMETRIES))
        assert calls == [144, 36, 9]

    def test_block_and_single_draw_kept_apart(self):
        paths = draw_paths(default_params(), np.random.default_rng(0))
        block = Paths.stack([paths, paths])
        assert block.gains.shape == (2, 50) and block.n_paths == 50
        np.testing.assert_array_equal(block.finite(), [True, True])
        with pytest.raises(ValueError, match="one draw"):
            channel_matrix(block, 144, self.GEOMETRIES[0])
        with pytest.raises(ValueError):
            Paths(**{k: np.stack([v] * 2)[..., None]
                     for k, v in vars(paths).items()})
