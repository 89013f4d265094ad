"""The dense oracles stay off the run path, and the package imports
without a cycle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydcomb
from rydcomb import evaluation, oracles, run_convergence, run_experiment
from rydcomb.cli import parse_config

SRC = Path(rydcomb.__file__).resolve().parent.parent
ORACLES = [name for name, value in vars(oracles).items()
           if callable(value) and getattr(value, "__module__", None)
           == oracles.__name__]


def test_oracles_defines_the_dense_forms():
    assert sorted(ORACLES) == sorted([
        "DigitalReference", "build_wlc", "channel_matrix", "compose_wrf",
        "generate_channel", "optimal_digital_combiner", "phase_grid"])


@pytest.mark.parametrize("config,command,run", [
    ("smoke.json", "sweep-snr", run_experiment),
    ("fig10.json", "sweep-chains", run_experiment),
    ("convergence.json", "convergence", run_convergence)])
def test_no_run_calls_an_oracle(monkeypatch, configs_dir, config, command,
                                run):
    spec, _ = parse_config(configs_dir / config, command, trials_override=2)
    expected = run(spec).rows

    def oracle_called(*args, **kwargs):
        raise AssertionError("a run called a dense oracle")

    for name in ORACLES:
        monkeypatch.setattr(oracles, name, oracle_called)
    for name in ("channel_matrix", "compose_wrf", "optimal_digital_combiner"):
        monkeypatch.setattr(evaluation, name, oracle_called)
    assert run(spec).rows == expected


@pytest.mark.parametrize("name", rydcomb.__all__)
def test_every_public_name_imports_from_the_package(name):
    exec(f"from rydcomb import {name}", {})


@pytest.mark.parametrize("module", ["oracles", "evaluation", "optimizer",
                                    "channel", "architecture", "checks",
                                    "cli"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    out = subprocess.run([sys.executable, "-c", f"import rydcomb.{module}"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
