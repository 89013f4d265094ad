"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The statistical criteria (3-6) share one set of 500 paired channel draws via
a session fixture; every solver run executed here registers its residual
history for the global monotonicity check of criterion 7d.
"""

import math

import numpy as np
import pytest

from rydcomb import (ArrayGeometry, ChannelParams, OptimizerConfig, Paths,
                     ReuseArchitecture, alternating_minimize, array_response,
                     compose_wrf, direct_solve_proportional,
                     draw_paths, fully_digital_se, generate_channel,
                     optimal_digital_combiner, phase_grid,
                     quantize_phase, spectral_efficiency,
                     upa_response)
from rydcomb.channel import block_references
from rydcomb.cli import main
from rydcomb.optimizer import _solve

SEED = 20260810
TREND_TRIALS = 500
N_STREAMS = 3
SNR0 = 1.0  # 0 dB

RESIDUAL_HISTORIES: list[np.ndarray] = []


def _report(number: int, description: str, body) -> None:
    try:
        body()
    except AssertionError:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def _channel_rng(trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(0, trial)))


def _solver_rng(trial: int, code: int, arch: ReuseArchitecture) -> np.random.Generator:
    key = (1, trial, code, arch.n_blocks, arch.lo_depth, arch.apd_depth)
    return np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=key))


def _altmin(arch, w_opt, rng, config=None):
    sol = alternating_minimize(arch, w_opt, config=config, rng=rng)
    RESIDUAL_HISTORIES.append(sol.residual_history)
    return sol


def _direct(arch, w_opt):
    sol = direct_solve_proportional(arch, w_opt)
    RESIDUAL_HISTORIES.append(sol.residual_history)
    return sol


def _se(h, arch, sol, ref, snr=SNR0):
    return spectral_efficiency(h, compose_wrf(arch, sol.phases), sol.w_bb,
                               ref.f_opt, N_STREAMS, snr)


def _paired_stats(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    d = a - b
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))


def nonupa(n_blocks, depth):
    return ArrayGeometry(n_blocks, depth)


@pytest.fixture(scope="session")
def trend():
    """Per-trial spectral efficiencies for criteria 3-6, paired channels.

    Each draw's references come from the block stage on a block of that
    draw, and each rate from H F_opt = W_opt Sigma."""
    cluster = dict(n_clusters=5, n_rays=10)
    params = ChannelParams(n_tx=144, **cluster)
    geometries = {
        1: ArrayGeometry(36, 1),
        2: nonupa(36, 2),
        4: nonupa(36, 4),
        6: nonupa(36, 6),
    }
    arrays = {**geometries, "upa": ArrayGeometry(144, 1)}

    c3_archs = {(nlm, bits): ReuseArchitecture(36, 6, nlm, resolution_bits=bits)
                for nlm in (4, 12) for bits in (1, 2, 3, None)}
    c5_archs = {nlm: ReuseArchitecture(36, 6, nlm) for nlm in (1, 2, 3, 6)}
    deep = ReuseArchitecture(36, 6, 36)      # 6 chains
    shallow = ReuseArchitecture(36, 2, 12)   # 6 chains
    shallow_prop = ReuseArchitecture(36, 2, 2)  # 36 chains, proportional
    ryd_pc = ReuseArchitecture(36, 4, 12)    # 12 chains
    pc = ReuseArchitecture(144, 1, 12)       # conventional PC mapping

    keys = (["c4_1", "c4_2", "c4_4", "c4_6", "c5_1", "c5_2", "c5_3", "c5_6",
             "c5_deep", "c5_shallow", "c5_shallow_prop",
             "c6_ryd", "c6_pc_nonupa", "c6_pc_upa"]
            + [f"c3_{nlm}_{bits}" for nlm in (4, 12)
               for bits in (1, 2, 3, None)])
    data = {k: np.empty(TREND_TRIALS) for k in keys}
    w, hf = {}, {}  # per array: W_opt, and H F_opt = W_opt Sigma

    def rate(d, arch, sol):  # F_opt = I, since hf[d] is H F_opt
        return spectral_efficiency(hf[d], compose_wrf(arch, sol.phases),
                                   sol.w_bb, np.eye(N_STREAMS), N_STREAMS,
                                   SNR0)

    for t in range(TREND_TRIALS):
        paths = Paths.stack([draw_paths(params, _channel_rng(t))])
        refs = block_references(paths, 144, N_STREAMS, arrays.values())
        for d, geometry in arrays.items():
            w_opt, sigma = refs[geometry]
            w[d], hf[d] = w_opt[0], w_opt[0] * sigma[0]

        # criterion 3: resolution ordering at lo_depth 6
        for (nlm, bits), arch in c3_archs.items():
            sol = _altmin(arch, w[6], _solver_rng(t, 0, arch))
            data[f"c3_{nlm}_{bits}"][t] = rate(6, arch, sol)

        # criterion 4: LO reuse gain with dedicated APDs (direct solver)
        for d in (1, 2, 4, 6):
            arch = ReuseArchitecture(36, d, 1)
            sol = _direct(arch, w[d])
            data[f"c4_{d}"][t] = rate(d, arch, sol)

        # criterion 5: APD reuse loss and equal-chain comparisons
        for nlm, arch in c5_archs.items():
            sol = _direct(arch, w[6])
            data[f"c5_{nlm}"][t] = rate(6, arch, sol)
        sol = _altmin(deep, w[6], _solver_rng(t, 0, deep))
        data["c5_deep"][t] = rate(6, deep, sol)
        sol = _altmin(shallow, w[2], _solver_rng(t, 0, shallow))
        data["c5_shallow"][t] = rate(2, shallow, sol)
        sol = _direct(shallow_prop, w[2])
        data["c5_shallow_prop"][t] = rate(2, shallow_prop, sol)

        # criterion 6: comparison hierarchy at equal N_r and chains
        sol = _altmin(ryd_pc, w[4], _solver_rng(t, 0, ryd_pc))
        data["c6_ryd"][t] = rate(4, ryd_pc, sol)
        sol = _altmin(pc, w[4], _solver_rng(t, 2, pc))
        data["c6_pc_nonupa"][t] = rate(4, pc, sol)
        sol = _altmin(pc, w["upa"], _solver_rng(t, 1, pc))
        data["c6_pc_upa"][t] = rate("upa", pc, sol)
    return data


def test_criterion_1_fully_digital_degeneracy():
    def body():
        params = ChannelParams(n_tx=36, n_clusters=5, n_rays=10)
        arch = ReuseArchitecture(16, 1, 1)
        for t in range(50):
            h = generate_channel(params, nonupa(16, 1), _channel_rng(t))
            ref = optimal_digital_combiner(h, N_STREAMS)
            sol = _altmin(arch, ref.w_opt, _solver_rng(t, 0, arch))
            assert sol.residual < 1e-8
            for snr in (0.1, 1.0, 10.0):
                hybrid = _se(h, arch, sol, ref, snr)
                ideal = fully_digital_se(ref.singular_values, N_STREAMS, snr)
                assert abs(hybrid - ideal) <= 1e-9

    _report(1, "fully dedicated architecture is fully digital "
               "(residual < 1e-8, SE gap <= 1e-9, 50 channels)", body)


def test_criterion_2_proportional_equivalence():
    def body():
        params = ChannelParams(n_tx=144, n_clusters=5, n_rays=10)
        for t in range(50):
            h = generate_channel(params, nonupa(36, 6), _channel_rng(1000 + t))
            ref = optimal_digital_combiner(h, N_STREAMS)
            for nlm in (1, 3, 6):
                cont = ReuseArchitecture(36, 6, nlm)
                onebit = ReuseArchitecture(36, 6, nlm, resolution_bits=1)
                s_cont = _altmin(cont, ref.w_opt, _solver_rng(t, 0, cont))
                s_b1 = _altmin(onebit, ref.w_opt, _solver_rng(t, 4, onebit))
                s_dir = _direct(cont, ref.w_opt)
                assert abs(s_cont.residual - s_b1.residual) <= 1e-9
                assert abs(s_cont.residual - s_dir.residual) <= 1e-9
                assert s_dir.iterations == 0
                se_cont = _se(h, cont, s_cont, ref)
                assert abs(_se(h, onebit, s_b1, ref) - se_cont) <= 1e-9
                assert abs(_se(h, cont, s_dir, ref) - se_cont) <= 1e-9

    _report(2, "proportional reuse: B=1, continuous, and direct solver agree "
               "within 1e-9 (50 channels, apd_depth 1/3/6)", body)


def test_criterion_3_resolution_ordering(trend):
    def body():
        for nlm in (4, 12):
            means = {bits: trend[f"c3_{nlm}_{bits}"].mean()
                     for bits in (1, 2, 3, None)}
            assert means[1] <= means[2] <= means[3] <= means[None], (
                f"apd_depth={nlm}: means not nondecreasing in B: {means}")
            gap, stderr = _paired_stats(trend[f"c3_{nlm}_None"],
                                        trend[f"c3_{nlm}_1"])
            assert gap >= 3 * stderr, (
                f"apd_depth={nlm}: continuous-vs-B=1 gap {gap:.4f} "
                f"< 3 x {stderr:.4f}")

    _report(3, "non-proportional reuse: mean SE nondecreasing in resolution, "
               "continuous beats B=1 at >= 3 stderr (500 paired channels)",
            body)


def test_criterion_4_lo_reuse_gain(trend):
    def body():
        for lo, hi in ((1, 2), (2, 4), (4, 6)):
            gap, stderr = _paired_stats(trend[f"c4_{hi}"], trend[f"c4_{lo}"])
            assert gap > 0 and gap >= 3 * stderr, (
                f"lo_depth {lo}->{hi}: gap {gap:.4f} not >= 3 x {stderr:.4f}")

    _report(4, "LO reuse gain: mean SE strictly increases over depths "
               "1->2->4->6, each step >= 3 stderr (500 paired channels)", body)


def test_criterion_5_apd_reuse_loss(trend):
    def body():
        means = [trend[f"c5_{nlm}"].mean() for nlm in (1, 2, 3, 6)]
        assert all(b <= a for a, b in zip(means, means[1:])), (
            f"means not nonincreasing in apd_depth: {means}")
        # equal chain count: deeper LO reuse wins (6 chains and 36 chains)
        gap6, stderr6 = _paired_stats(trend["c5_deep"], trend["c5_shallow"])
        assert gap6 >= 3 * stderr6, f"6-chain comparison: {gap6} vs {stderr6}"
        gap36, stderr36 = _paired_stats(trend["c5_6"], trend["c5_shallow_prop"])
        assert gap36 >= 3 * stderr36, (
            f"36-chain comparison: {gap36} vs {stderr36}")

    _report(5, "APD reuse loss: mean SE nonincreasing in adder depth; deeper "
               "LO reuse wins at equal chain count (>= 3 stderr, 500 paired "
               "channels)", body)


def test_criterion_6_comparison_hierarchy(trend):
    def body():
        gap_top, se_top = _paired_stats(trend["c6_pc_nonupa"], trend["c6_ryd"])
        gap_bot, se_bot = _paired_stats(trend["c6_ryd"], trend["c6_pc_upa"])
        assert gap_top >= 2 * se_top, (
            f"non-UPA PC vs reuse array: {gap_top:.4f} < 2 x {se_top:.4f}")
        assert gap_bot >= 2 * se_bot, (
            f"reuse array vs UPA PC: {gap_bot:.4f} < 2 x {se_bot:.4f}")

    _report(6, "equal elements and chains: non-UPA PC >= reuse array >= "
               "UPA PC, each gap >= 2 stderr (500 paired channels)", body)


def test_criterion_7_optimizer_oracles(trend):
    def body():
        rng = np.random.default_rng(777)
        # (a) the solver's closed-form phase half-step beats a 1e5-point
        # grid on 100 instances: one alternating pass on 2 blocks of depth
        # 3 with adder groups of 2, each block phase with W_BB held
        grid = np.exp(1j * 2 * np.pi * np.arange(100_000) / 100_000)
        arch = ReuseArchitecture(n_blocks=2, lo_depth=3, apd_depth=2)
        w_opt = (rng.standard_normal((100, 6, 2))
                 + 1j * rng.standard_normal((100, 6, 2)))
        sol, = _solve([(arch, w_opt, rng.uniform(0, 2 * np.pi, (100, 2)))],
                      OptimizerConfig(max_iterations=1))
        w_rf = compose_wrf(arch, np.zeros(2))  # at block phases 0
        for y, w_bb, phases in zip(w_opt, sol.w_bb, sol.phases):
            x = (w_rf @ w_bb).reshape(2, 3, 2)
            for y_b, x_b, phi in zip(y.reshape(2, 3, 2), x, phases):
                mine = np.linalg.norm(y_b - np.exp(1j * phi) * x_b)
                over_grid = np.linalg.norm(
                    y_b[None] - grid[:, None, None] * x_b[None], axis=(1, 2))
                assert mine <= over_grid.min() + 1e-10

        # (b) quantizer matches exhaustive cosine maximization
        for bits in range(1, 7):
            levels = phase_grid(bits)
            for phi in rng.uniform(-7.0, 13.0, 1000):
                q = quantize_phase(float(phi), bits)
                assert np.cos(q - phi) >= np.max(np.cos(levels - phi)) - 1e-12

        # (c) per-chain row formula equals the generic pseudoinverse
        for _ in range(100):
            lo = int(rng.choice([2, 4, 6]))
            nlm = int(rng.choice([d for d in (1, 2, 3, 6) if lo % d == 0]))
            arch = ReuseArchitecture(16, lo, nlm)
            w_opt = (rng.standard_normal((arch.n_r, 3))
                     + 1j * rng.standard_normal((arch.n_r, 3)))
            phases = rng.uniform(0, 2 * np.pi, 16)
            sol, = _solve([(arch, w_opt[None], phases[None])])
            pinv_path = np.linalg.pinv(compose_wrf(arch, phases)) @ w_opt
            assert np.max(np.abs(sol.w_bb[0] - pinv_path)) <= 1e-10

        # (d) every solver run recorded in this suite is monotone
        assert len(RESIDUAL_HISTORIES) > 10_000
        for hist in RESIDUAL_HISTORIES:
            assert np.all(np.diff(hist) <= 1e-12)

    _report(7, "optimizer oracles: grid search (100x1e5), exhaustive "
               "quantizer (B=1..6 x 1000), row formula vs pinv (100), "
               f"monotone residuals on {len(RESIDUAL_HISTORIES)} runs", body)


def test_criterion_8_channel_statistics():
    def body():
        geometry = nonupa(36, 6)
        params = ChannelParams(n_tx=144, n_clusters=5, n_rays=10)
        total = 0.0
        trials = 2000
        for t in range(trials):
            h = generate_channel(params, geometry, _channel_rng(5000 + t))
            total += np.linalg.norm(h) ** 2
        ratio = total / trials / (144 * 216)
        assert abs(ratio - 1.0) <= 0.05, f"energy ratio {ratio:.4f}"

        rng = np.random.default_rng(12)
        for _ in range(200):
            az, el = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            assert abs(np.linalg.norm(upa_response(az, el, 144, 0.5)) - 1) <= 1e-12
            v = array_response(geometry, az, el)
            assert abs(np.linalg.norm(v) - 1) <= 1e-12
            block = upa_response(az, el, 36, 0.5)
            for i, k in ((0, 0), (7, 3), (35, 5)):
                axial = np.exp(1j * 2 * np.pi * 0.05 * (k - 2.5) * np.cos(el))
                expected = block[i] * axial / np.sqrt(6)
                assert abs(v[i * 6 + k] - expected) <= 1e-12

    _report(8, "channel statistics: mean ||H||_F^2 within 5% of Nt*Nr over "
               "2000 draws; unit steering norms and Kronecker structure "
               "within 1e-12", body)


def test_criterion_9_determinism(tmp_path, configs_dir):
    def body():
        outputs = []
        for name, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / name
            code = main(["sweep-snr", "--config",
                         str(configs_dir / "smoke.json"), "--out", str(out),
                         "--threads", str(threads)])
            assert code == 0
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1], "re-run changed the CSV"
        assert outputs[0] == outputs[2], "thread count changed the CSV"

    _report(9, "identical config and seed give byte-identical CSV across "
               "re-runs and thread counts {1, 4}", body)
