"""Run-path reach: every function and method of the run modules is entered
by some run of the CLI, or is on the list of the single-sample API that the
tests compare against."""

import inspect
import sys
import warnings
from pathlib import Path

from rydcomb import architecture, arrays, channel, evaluation, optimizer
from rydcomb.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN_MODULES = (channel, arrays, architecture, optimizer, evaluation)
# smoke, the small test configs (rank_fail's trials fail) and the second
# trial loop
RUNS = [("sweep-snr", "configs/smoke.json"),
        ("sweep-depth", "tests/configs/depth.json"),
        ("sweep-snr", "tests/configs/rank_fail.json"),
        ("convergence", "configs/convergence.json", "--trials", "2")]
# no run enters these: the single-sample API the tests compare against
SINGLE_SAMPLE_API = {"evaluation.combined_gain_eigenvalues",
                     "evaluation.spectral_efficiency",
                     "evaluation.fully_digital_se",
                     "evaluation._check_snr",
                     "optimizer.alternating_minimize",
                     "optimizer.SolutionBatch.solution"}


def _defined(module):
    """'module.name' -> code of each module-level function and each method
    (property getters included) written in the module's own source."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for name, obj in vars(module).items():
        members = {name: obj}
        if inspect.isclass(obj):
            members = {f"{name}.{k}": v for k, v in vars(obj).items()}
        for key, member in members.items():
            fn = getattr(member, "fget", None) or getattr(member, "__func__",
                                                          member)
            if (inspect.isfunction(fn)
                    and fn.__code__.co_filename == module.__file__):
                found[f"{prefix}.{key}"] = fn.__code__
    return found


def test_every_run_module_function_is_reached(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rank_fail's
            codes = [main([command, "--config", str(REPO_ROOT / config),
                           "--out", str(tmp_path / str(i)), "--threads", "1",
                           *extra])
                     for i, (command, config, *extra) in enumerate(RUNS)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(RUNS)
    defined = {k: v for m in RUN_MODULES for k, v in _defined(m).items()}
    assert SINGLE_SAMPLE_API <= defined.keys()
    unreached = {name for name, code in defined.items()
                 if code not in entered}
    assert unreached <= SINGLE_SAMPLE_API, sorted(unreached
                                                  - SINGLE_SAMPLE_API)
