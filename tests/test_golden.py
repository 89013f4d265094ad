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


def test_depth_sweep_threads_write_identical_csv(tmp_path):
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["sweep-depth", "--config", str(TEST_CONFIGS / "depth.json"),
                     "--out", str(out), "--threads", threads]) == 0
        csvs.append((out / "results.csv").read_bytes())
    assert csvs[0] == csvs[1]


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


@pytest.mark.parametrize("name,command", [("fig10", "sweep-chains"),
                                          ("fig6a", "sweep-snr"),
                                          ("fig7", "sweep-snr")])
def test_threads_write_identical_outputs_at_40(tmp_path, configs_dir, name,
                                               command):
    # fig10's shared solve stacks, fig6a's mix of curves rated from their
    # singular values and solved ones, and fig7's explicit altmin curves on
    # proportional reuse, across blocks of 32 + 8 trials at one thread and
    # 20 + 20 at two.  A RuntimeWarning fails the run: a zero block trace
    # must give rotation 1, not inf or NaN
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config",
                         str(configs_dir / f"{name}.json"), "--trials", "40",
                         "--out", str(out), "--threads", threads]) == 0
        outputs.append([(out / f).read_bytes()
                        for f in ("results.csv", "results.svg")])
    assert outputs[0] == outputs[1]
