"""Golden outputs: bundled configs must keep producing the recorded curves.

smoke.csv, fig8.csv and fig10.csv in tests/golden/ were written by the code
before the low-rank channel pipeline.  fig5.csv (four receive geometries,
direct solves only) and convergence.csv (the convergence command) were
written by the trial-block code, before its unused public API was removed.
fig6a.csv, fig6b.csv, fig7.csv and fig9.csv were written by the QR-core
reference (explicit Q factors), before the reference moved to the R factors
and the UPA steering to its two separable axes.  depth.csv runs the small
sweep-depth config in tests/configs/ and was written by the code that still
took the intra-block LO offsets as an array.  rank_fail.csv, the one config
whose trials fail (6 of 40), was written at --threads 1 by the code whose
combiner module still held the block reference and its rank flags.
fig5_40.csv, fig5 at 40 trials, the one golden that crosses a trial block
where the reference stage dominates, was written at --threads 1 by the
code that built the references in two steps (factors, then the SVD).
fig5_40.svg, its plot, was written at --threads 1 by the code that still
solved fig5's curves (all apd_depth = 1) before rating them; it must match
byte for byte.  fig8_40.csv (1-, 2- and 3-bit and continuous alternating
stops) and convergence_40.csv (resolution variants that share their start
phases) cross a trial block on the alternating path; both were written at
--threads 1 by the code whose solve_stack still drew the start phases from
per-trial generators and resolved the solver 'auto' itself.
Labels, sweep values, trial counts and seeds must match exactly; means
must agree to a relative 1e-9, which absorbs reordered floating-point work
but not a changed curve.
"""

import csv
import json
import warnings
from pathlib import Path

import pytest

from rydcomb.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TEST_CONFIGS = Path(__file__).resolve().parent / "configs"
MEAN_RTOL = 1e-9

CASES = [
    ("smoke", "sweep-snr", None),
    ("fig8", "sweep-snr", 20),
    ("fig10", "sweep-chains", 20),
    ("fig5", "sweep-snr", 20),
    ("convergence", "convergence", 20),
    ("fig6a", "sweep-snr", 20),
    ("fig6b", "sweep-snr", 20),
    ("fig7", "sweep-snr", 20),
    ("fig9", "sweep-snr", 20),
    ("depth", "sweep-depth", None),
]


def _config(configs_dir, name):
    """A bundled config, or else one of the small test configs."""
    path = configs_dir / f"{name}.json"
    return path if path.exists() else TEST_CONFIGS / f"{name}.json"


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("name,command,trials", CASES)
def test_matches_golden(tmp_path, configs_dir, name, command, trials):
    argv = [command, "--config", str(_config(configs_dir, name)),
            "--out", str(tmp_path), "--threads", "1"]
    if trials is not None:
        argv += ["--trials", str(trials)]
    assert main(argv) == 0
    _check_golden(tmp_path, name)


def _check_golden(out, name):
    got = _rows(out / "results.csv")
    want = _rows(GOLDEN_DIR / f"{name}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("label", "sweep_param", "sweep_value", "trials", "seed"):
            assert g[key] == w[key], (key, w)
        assert float(g["mean_se_bps_hz"]) == pytest.approx(
            float(w["mean_se_bps_hz"]), rel=MEAN_RTOL, abs=0), w


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rank_fail_matches_golden(tmp_path, threads):
    # one thread cuts blocks of 32 + 8 trials, two cut 20 + 20; either way
    # the same 6 trials fail and the other 34 keep their values
    with pytest.warns(RuntimeWarning, match="6 of 40 trials failed"):
        assert main(["sweep-snr", "--config",
                     str(TEST_CONFIGS / "rank_fail.json"),
                     "--out", str(tmp_path), "--threads", threads]) == 0
    _check_golden(tmp_path, "rank_fail")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failures"] == 6


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fig5_40_matches_golden(tmp_path, configs_dir, threads):
    # four receive geometries across blocks of 32 + 8 trials at one
    # thread and 20 + 20 at two
    assert main(["sweep-snr", "--config", str(configs_dir / "fig5.json"),
                 "--trials", "40", "--out", str(tmp_path),
                 "--threads", threads]) == 0
    _check_golden(tmp_path, "fig5_40")
    assert ((tmp_path / "results.svg").read_bytes()
            == (GOLDEN_DIR / "fig5_40.svg").read_bytes())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name,command", [("fig8", "sweep-snr"),
                                          ("convergence", "convergence")])
def test_alternating_40_matches_golden(tmp_path, configs_dir, name, command,
                                       threads):
    # alternating minimization across blocks of 32 + 8 trials at one
    # thread and 20 + 20 at two
    assert main([command, "--config", str(configs_dir / f"{name}.json"),
                 "--trials", "40", "--out", str(tmp_path),
                 "--threads", threads]) == 0
    _check_golden(tmp_path, f"{name}_40")


def _outputs_by_threads(tmp_path, argv):
    """The results.csv and results.svg bytes that argv writes at --threads
    1 and at --threads 2."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(argv + ["--out", str(out), "--threads", threads]) == 0
        outputs.append([(out / f).read_bytes()
                        for f in ("results.csv", "results.svg")])
    return outputs


@pytest.mark.parametrize("name,command", [("fig10", "sweep-chains"),
                                          ("convergence", "convergence"),
                                          ("fig8", "sweep-snr"),
                                          ("fig5", "sweep-snr"),
                                          ("fig6a", "sweep-snr"),
                                          ("fig7", "sweep-snr")])
def test_threads_write_identical_outputs_at_40(tmp_path, configs_dir, name,
                                               command):
    # at 40 trials one thread cuts blocks of 32 + 8 and two threads 20 + 20,
    # across fig10's shared solve stacks; the convergence trial loop, its
    # resolution variants sharing their start phases; fig8's 1-, 2- and
    # 3-bit stops; fig5's four reference geometries, its continuous curves
    # rated from their singular values and its 1-bit one solved; fig6a's
    # mix of such curves, solved curves on the same 36x6 geometry and a
    # 36x1 geometry with no combining target; and fig7's explicit altmin
    # curves on proportional reuse, the only config where that solver
    # overrides the sigma and direct rules of EvalUnit.method.  A
    # RuntimeWarning fails the run: a zero block trace must give rotation
    # 1, not inf or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outputs = _outputs_by_threads(tmp_path, [
            command, "--config", str(configs_dir / f"{name}.json"),
            "--trials", "40"])
    assert outputs[0] == outputs[1]


def test_rank_fail_threads_write_identical_outputs(tmp_path):
    # the same 6 of its own 40 trials fail in blocks of 32 + 8 at one
    # thread and 20 + 20 at two
    with pytest.warns(RuntimeWarning, match="6 of 40 trials failed"):
        outputs = _outputs_by_threads(tmp_path, [
            "sweep-snr", "--config", str(TEST_CONFIGS / "rank_fail.json")])
    assert outputs[0] == outputs[1]


def test_depth_sweep_threads_write_identical_outputs(tmp_path):
    # the lo_depth sweep at its own 20 trials, one block at one thread and
    # 10 + 10 trials at two
    outputs = _outputs_by_threads(tmp_path, [
        "sweep-depth", "--config", str(TEST_CONFIGS / "depth.json")])
    assert outputs[0] == outputs[1]
