import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rydcomb import (ArrayGeometry, ChannelParams, GeometryError,
                     NumericError, Paths, array_response, channel_matrix,
                     draw_paths, generate_channel, optimal_digital_combiner,
                     upa_response)
from rydcomb import channel
from rydcomb.channel import MAX_CLUSTER_POWER, block_references
from rydcomb.cli import parse_config
from rydcomb.evaluation import _channel_rng

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    def test_cluster_power_ceiling(self):
        assert default_params(cluster_powers=(MAX_CLUSTER_POWER,) * 5)
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            default_params(cluster_powers=(
                1.0, np.nextafter(MAX_CLUSTER_POWER, np.inf), 1.0, 1.0, 1.0))

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
        h = channel_matrix(paths, 36, geometry)
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


class TestBlockReferences:
    GEOMETRIES = [ArrayGeometry(36, 1), nonupa(36, 6), nonupa(9, 4)]

    def test_samples_equal_one_draw_blocks(self):
        # each stacked sample's W_opt and Sigma are its one-draw block's
        # bit for bit, and match the dense SVD of channel_matrix
        rng = np.random.default_rng(3)
        draws = [draw_paths(default_params(), rng) for _ in range(4)]
        stacks = block_references(Paths.stack(draws), 144, 3,
                                  self.GEOMETRIES)
        assert list(stacks) == self.GEOMETRIES
        for geometry, (w_opt, sigma) in stacks.items():
            assert w_opt.shape == (4, geometry.n_elements, 3)
            assert sigma.shape == (4, 3)
            for b, paths in enumerate(draws):
                w_alone, s_alone = block_references(
                    Paths.stack([paths]), 144, 3, [geometry])[geometry]
                np.testing.assert_array_equal(w_opt[b], w_alone[0])
                np.testing.assert_array_equal(sigma[b], s_alone[0])
                dense = optimal_digital_combiner(
                    channel_matrix(paths, 144, geometry), 3)
                np.testing.assert_allclose(
                    sigma[b], dense.singular_values[:3], rtol=0,
                    atol=1e-12 * dense.singular_values[0])
                np.testing.assert_allclose(w_opt[b], dense.w_opt, rtol=0,
                                           atol=1e-12)

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
        block_references(paths, 144, 3, self.GEOMETRIES)
        assert calls == [144, 36, 9]

    def test_block_and_single_draw_kept_apart(self):
        paths = draw_paths(default_params(), np.random.default_rng(0))
        block = Paths.stack([paths, paths])
        assert block.gains.shape == (2, 50) and block.n_paths == 50
        with pytest.raises(ValueError, match="one draw"):
            channel_matrix(block, 144, self.GEOMETRIES[0])
        with pytest.raises(ValueError):
            Paths(**{k: np.stack([v] * 2)[..., None]
                     for k, v in vars(paths).items()})


class TestBlockReferenceFailures:
    """The reference stage of a one-draw block fails the draws that
    ``optimal_digital_combiner`` fails on the dense channel, with the same
    text apart from the printed singular values."""

    @staticmethod
    def failure(stage):
        """The stage's NumericError text up to its singular values, or
        None when it passes."""
        try:
            stage()
        except NumericError as exc:
            return str(exc).split(": singular values")[0]
        return None

    def same_failure(self, paths, n_tx, geometry, n_streams):
        def block():
            block_references(Paths.stack([paths]), n_tx, n_streams,
                             [geometry])

        def dense():
            optimal_digital_combiner(channel_matrix(paths, n_tx, geometry),
                                     n_streams)

        failure = self.failure(block)
        assert failure == self.failure(dense)
        return failure

    @pytest.mark.parametrize("field", ["gains", "aoa_azimuth",
                                       "aod_elevation"])
    def test_non_finite_draw(self, field):
        paths = draw_paths(default_params(), np.random.default_rng(3))
        values = getattr(paths, field).copy()
        values[7] = np.nan
        bad = replace(paths, **{field: values})
        assert self.same_failure(bad, 144, nonupa(), 3) == (
            "channel matrix contains non-finite entries")

    def test_non_finite_draw_builds_no_steering(self, monkeypatch):
        def steering(*args):
            raise AssertionError("steering built for a non-finite draw")

        monkeypatch.setattr(channel, "upa_response", steering)
        monkeypatch.setattr(channel, "array_response", steering)
        paths = draw_paths(default_params(), np.random.default_rng(3))
        bad = replace(paths, gains=np.full_like(paths.gains, np.nan))
        with pytest.raises(NumericError, match="non-finite"):
            block_references(Paths.stack([bad]), 144, 3, [nonupa()])

    def test_zero_gain_draw(self):
        # singular values of zero fail the rank test, and nothing divides
        paths = draw_paths(default_params(), np.random.default_rng(3))
        zero = replace(paths, gains=np.zeros_like(paths.gains))
        with np.errstate(all="raise"):
            assert self.same_failure(zero, 144, nonupa(), 3) == (
                "channel rank below n_streams=3")

    def test_svd_failure(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        paths = draw_paths(default_params(), np.random.default_rng(3))
        monkeypatch.setattr(np.linalg, "svd", failing)
        assert self.same_failure(paths, 144, nonupa(), 3) == (
            "SVD failed: synthetic failure")

    def test_qr_failure(self, monkeypatch):
        # a receive QR sits in the same try as the stacked SVD; the
        # transmit QR (144 rows) runs before it, and still succeeds
        qr = np.linalg.qr
        rows = []

        def receive_failing(a, *args, **kwargs):
            rows.append(len(a))
            if len(a) != 144:
                raise np.linalg.LinAlgError("synthetic failure")
            return qr(a, *args, **kwargs)

        paths = draw_paths(default_params(), np.random.default_rng(3))
        monkeypatch.setattr(np.linalg, "qr", receive_failing)
        with pytest.raises(NumericError) as info:
            block_references(Paths.stack([paths]), 144, 3, [nonupa()])
        assert str(info.value) == "SVD failed: synthetic failure"
        assert rows == [144, 216]

    def test_rank_fail_config_draws(self):
        # a second cluster of power 1e-28: a draw's second singular value
        # sits about the rank test's threshold on every geometry
        spec, _ = parse_config(REPO_ROOT / "tests/configs/rank_fail.json",
                               "sweep-snr")
        geometries = list(dict.fromkeys(u.geometry for u in spec.units))
        failed = set()
        for t in range(spec.trials):
            paths = draw_paths(spec.channel, _channel_rng(spec.seed, t))
            for geometry in geometries:
                if self.same_failure(paths, spec.channel.n_tx, geometry,
                                     spec.n_streams) is not None:
                    failed.add(t)
        # the 6 trials that a run of the config drops
        assert failed == {1, 3, 13, 21, 26, 33}
