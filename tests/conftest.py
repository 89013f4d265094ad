"""Fixtures shared by the test modules.

The whole suite, ``python -m pytest`` from the checkout, is tier-1: 633
tests, 622 under tests/ and 11 benchmark self-tests.  Two runs took 40.9
and 43.0 s on a 2-vCPU machine (Python 3.11, numpy 2.4, the default BLAS
threading) whose speed drifts by 10 to 50% from hour to hour.  CI prints
the 15 slowest with ``--durations=15``.
"""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return REPO_ROOT / "configs"
