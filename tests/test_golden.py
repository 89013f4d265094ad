"""Golden outputs: bundled configs must keep producing the recorded curves.

Each file in tests/golden/ pins one config at one trial count, as written by
one state of the code (A-H below); a 1 after the code marks a golden
written at --threads 1.  Configs named .json are in tests/configs/, the
others in configs/.

  file                config                                  trials  code
  smoke.csv           smoke                                   own 8   A
  fig8.csv            fig8                                    20      A
  fig10.csv           fig10                                   20      A
  fig5.csv            fig5 (4 geometries, direct solves only) 20      B
  convergence.csv     convergence (the convergence command)   20      B
  fig6a.csv           fig6a                                   20      C
  fig6b.csv           fig6b                                   20      C
  fig7.csv            fig7                                    20      C
  fig9.csv            fig9                                    20      C
  depth.csv           depth.json (a small sweep-depth)        own 20  D
  rank_fail.csv       rank_fail.json (6 trials fail)          own 40  E, 1
  fig5_40.csv         fig5                                    40      F, 1
  fig5_40.svg         fig5's plot, matched byte for byte      40      G, 1
  fig8_40.csv         fig8                                    40      H, 1
  convergence_40.csv  convergence                             40      H, 1

  A  before the low-rank channel pipeline
  B  the trial-block code, before its unused public API was removed
  C  the QR-core reference (explicit Q factors), before the reference moved
     to the R factors and the UPA steering to its two separable axes
  D  still took the intra-block LO offsets as an array
  E  its combiner module still held the block reference and its rank flags
  F  built the references in two steps (factors, then the SVD)
  G  still solved fig5's curves (all apd_depth = 1) before rating them
  H  its solve_stack still drew the start phases from per-trial generators
     and resolved the solver 'auto' itself

rank_fail.json is the one config whose trials fail.  The 40-trial goldens
cross a trial block: fig5_40 where the reference stage dominates, fig8_40
(1-, 2- and 3-bit and continuous alternating stops) and convergence_40
(resolution variants that share their start phases) on the alternating
path.  Labels, sweep values, trial counts and seeds must match exactly;
means must agree to a relative 1e-9, which absorbs reordered floating-point
work but not a changed curve.
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

# Trials that fail in a config's own run; every other run must finish
# without a RuntimeWarning.
FAILURES = {"rank_fail": 6}


def _config(configs_dir, name):
    """A bundled config, or else one of the small test configs."""
    path = configs_dir / f"{name}.json"
    return path if path.exists() else TEST_CONFIGS / f"{name}.json"


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def run(tmp_path_factory, configs_dir):
    """run(name, command, trials, threads) is the output directory of that
    CLI run, made once per module, so the golden and the cross-thread
    checks of a config read the same run.  A RuntimeWarning fails a run (a
    zero block trace must give rotation 1, not inf or NaN), except that a
    config in FAILURES must warn that this many of its 40 trials failed and
    record them in manifest.json."""
    outs = {}

    def run(name, command, trials, threads):
        key = (name, command, trials, threads)
        if key not in outs:
            out = tmp_path_factory.mktemp(f"{name}-{trials}-{threads}")
            argv = [command, "--config", str(_config(configs_dir, name)),
                    "--out", str(out), "--threads", threads]
            if trials is not None:
                argv += ["--trials", str(trials)]
            failures = FAILURES.get(name, 0)
            if failures:
                with pytest.warns(RuntimeWarning,
                                  match=f"{failures} of 40 trials failed"):
                    assert main(argv) == 0
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["failures"] == failures
            outs[key] = out
        return outs[key]

    return run


@pytest.mark.parametrize("name,command,trials", CASES)
def test_matches_golden(run, name, command, trials):
    _check_golden(run(name, command, trials, "1"), name)


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
def test_rank_fail_matches_golden(run, threads):
    # one thread cuts blocks of 32 + 8 trials, two cut 20 + 20; either way
    # the same 6 trials fail and the other 34 keep their values
    _check_golden(run("rank_fail", "sweep-snr", None, threads), "rank_fail")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fig5_40_matches_golden(run, threads):
    # four receive geometries across blocks of 32 + 8 trials at one
    # thread and 20 + 20 at two
    out = run("fig5", "sweep-snr", 40, threads)
    _check_golden(out, "fig5_40")
    assert ((out / "results.svg").read_bytes()
            == (GOLDEN_DIR / "fig5_40.svg").read_bytes())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name,command", [("fig8", "sweep-snr"),
                                          ("convergence", "convergence")])
def test_alternating_40_matches_golden(run, name, command, threads):
    # alternating minimization across blocks of 32 + 8 trials at one
    # thread and 20 + 20 at two
    _check_golden(run(name, command, 40, threads), f"{name}_40")


def _assert_threads_agree(run, name, command, trials):
    """--threads 1 and --threads 2 write the same results.csv and
    results.svg bytes."""
    outs = [run(name, command, trials, threads) for threads in ("1", "2")]
    for f in ("results.csv", "results.svg"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


@pytest.mark.parametrize("name,command", [("fig10", "sweep-chains"),
                                          ("convergence", "convergence"),
                                          ("fig8", "sweep-snr"),
                                          ("fig5", "sweep-snr"),
                                          ("fig6a", "sweep-snr"),
                                          ("fig7", "sweep-snr")])
def test_threads_write_identical_outputs_at_40(run, name, command):
    # at 40 trials one thread cuts blocks of 32 + 8 and two threads 20 + 20,
    # across fig10's shared solve stacks; the convergence trial loop, its
    # resolution variants sharing their start phases; fig8's 1-, 2- and
    # 3-bit stops; fig5's four reference geometries, its continuous curves
    # rated from their singular values and its 1-bit one solved; fig6a's
    # mix of such curves, solved curves on the same 36x6 geometry and a
    # 36x1 geometry with no combining target; and fig7's explicit altmin
    # curves on proportional reuse, the only config where that solver
    # overrides the sigma and direct rules of EvalUnit.method
    _assert_threads_agree(run, name, command, 40)


def test_rank_fail_threads_write_identical_outputs(run):
    # the same 6 of its own 40 trials fail in blocks of 32 + 8 at one
    # thread and 20 + 20 at two
    _assert_threads_agree(run, "rank_fail", "sweep-snr", None)


def test_depth_sweep_threads_write_identical_outputs(run):
    # the lo_depth sweep at its own 20 trials, one block at one thread and
    # 10 + 10 trials at two
    _assert_threads_agree(run, "depth", "sweep-depth", None)
