"""Golden outputs: bundled configs must keep producing the recorded curves.

smoke.csv, fig8.csv and fig10.csv in tests/golden/ were written by the code
before the low-rank channel pipeline.  fig5.csv (four receive geometries,
direct solves only) and convergence.csv (the convergence command) were
written by the trial-block code, before its unused public API was removed.
Labels, sweep values, trial counts and seeds must match exactly; means
must agree to a relative 1e-9, which absorbs reordered floating-point work
but not a changed curve.
"""

import csv
from pathlib import Path

import pytest

from rydcomb.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MEAN_RTOL = 1e-9

CASES = [
    ("smoke", "sweep-snr", None),
    ("fig8", "sweep-snr", 20),
    ("fig10", "sweep-chains", 20),
    ("fig5", "sweep-snr", 20),
    ("convergence", "convergence", 20),
]


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("name,command,trials", CASES)
def test_matches_golden(tmp_path, configs_dir, name, command, trials):
    argv = [command, "--config", str(configs_dir / f"{name}.json"),
            "--out", str(tmp_path), "--threads", "1"]
    if trials is not None:
        argv += ["--trials", str(trials)]
    assert main(argv) == 0
    got = _rows(tmp_path / "results.csv")
    want = _rows(GOLDEN_DIR / f"{name}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("label", "sweep_param", "sweep_value", "trials", "seed"):
            assert g[key] == w[key], (key, w)
        assert float(g["mean_se_bps_hz"]) == pytest.approx(
            float(w["mean_se_bps_hz"]), rel=MEAN_RTOL, abs=0), w
