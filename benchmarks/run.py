"""Sweep benchmark: trial throughput of the bundled Monte-Carlo sweeps.

Runs one workload -- a bundled config through its CLI command -- in process
through ``rydcomb.cli.main`` with ``--threads 1`` and BLAS pinned to one
thread, checks every output, and prints a report whose last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 benchmarks/run.py --workload fig5-direct --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run (see benchmarks/layers.py).  Both runs
first compare one round at the config's own seed with the stored golden
CSV.  ``--write-golden`` regenerates that golden from the current code.
See benchmarks/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import Tracer, installed, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_DIR = BENCH / "golden"
OUT_DIR = BENCH / ".out"

THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MEAN_RTOL = 1e-9      # golden means: one tight relative tolerance
SETUP_REPS = 9        # fresh interpreters per setup_s measurement
CAL_NOMINAL_S = 0.015  # calibration time the reported times are scaled to
HEADER = ["label", "sweep_param", "sweep_value", "mean_se_bps_hz", "stderr",
          "trials", "seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    trials: int   # trials per round; also the golden's trial count


WORKLOADS = {w.name: w for w in (
    Workload("fig5-direct", "sweep-snr", "configs/fig5.json", 4),
    Workload("fig10-chains", "sweep-chains", "configs/fig10.json", 3),
    Workload("convergence-trace", "convergence", "configs/convergence.json", 8),
)}


class BenchError(RuntimeError):
    """The benchmark cannot run: missing program, crash, or bad exit code."""


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                      # name -> (value, unit)
    notes: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)   # check -> list of failures
    env: dict = field(default_factory=dict)


class Calibration:
    """Fixed numpy work owned by the benchmark, timed before every round.

    The host's speed drifts by tens of percent within seconds when other
    tenants load it, and wall time drifts with it.  Every reported round
    time, and each setup time, is scaled by CAL_NOMINAL_S over the mean of
    the calibration times measured just before and just after it.  The mix
    -- one LAPACK SVD and a loop of small-array ufuncs -- follows a trial's
    split between the SVD reference and Python-level kernels.  It calls no
    rydcomb code, so no change to the program can move it.
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._h = (rng.standard_normal((216, 144))
                   + 1j * rng.standard_normal((216, 144)))
        self._w = self._h[:, :3].copy()
        self._x = np.arange(216.0)
        self.samples: list[float] = []

    def sample(self) -> None:
        np = self._np
        start = time.perf_counter()
        np.linalg.svd(self._h, full_matrices=False)
        for k in range(300):
            u = np.exp(1j * (k * 1e-3) * self._x)
            (np.conj(u)[:, None] * self._w).reshape(54, 4, 3).sum(axis=1)
        self.samples.append(time.perf_counter() - start)

    def scaled(self, seconds: list[float]) -> list[float]:
        """Scale seconds[i], timed between samples i and i+1, to nominal
        speed."""
        pairs = zip(self.samples, self.samples[1:])
        return [value * 2 * CAL_NOMINAL_S / (before + after)
                for value, (before, after) in zip(seconds, pairs)]


def pin() -> None:
    """Pin BLAS to one thread, and this process and its children to one CPU,
    so that the calibration runs where the work runs.  Must run before
    numpy is imported."""
    for name in BLAS_ENV:
        os.environ[name] = "1"
    os.environ.pop("SIM_THREADS", None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_cli():
    """Import rydcomb from this checkout's src/ and return its cli module."""
    src = ROOT / "src"
    if not (src / "rydcomb" / "__init__.py").is_file():
        raise BenchError(f"no rydcomb package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rydcomb.cli
    found = Path(rydcomb.__file__).resolve().parent
    if found != (src / "rydcomb").resolve():
        raise BenchError(f"imported rydcomb from {found}, not from {src}")
    return rydcomb.cli


def round_seed(seed: int, index: int) -> int:
    return (seed * 100_003 + index) % 2 ** 64


def config_seed(workload: Workload) -> int:
    return json.loads((ROOT / workload.config).read_text())["seed"]


def run_round(cli, workload: Workload, seed: int, trials: int,
              out_dir: Path) -> tuple[float, bytes, int]:
    """One CLI sweep round; returns wall seconds, CSV bytes, failed trials."""
    argv = [workload.command, "--config", str(ROOT / workload.config),
            "--out", str(out_dir), "--seed", str(seed),
            "--trials", str(trials), "--threads", str(THREADS)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"rydcomb {' '.join(argv)} exited with code {code}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return wall, (out_dir / "results.csv").read_bytes(), manifest["failures"]


def parse_csv(data: bytes) -> tuple[list, list[dict]]:
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return reader.fieldnames, list(reader)


def check_csv(data: bytes, golden: list[dict], seed: int, trials: int,
              rtol: float | None = None) -> list[str]:
    """A sweep CSV must hold the golden's rows in order, the given seed and
    completed-trial count, and finite non-negative means; with ``rtol``, each
    mean must also match the golden's within that relative tolerance."""
    header, rows = parse_csv(data)
    if header != HEADER:
        return [f"CSV header {header} != {HEADER}"]
    if len(rows) != len(golden):
        return [f"{len(rows)} CSV rows, golden has {len(golden)}"]
    errors = []
    for i, (row, ref) in enumerate(zip(rows, golden)):
        for k in ("label", "sweep_param", "sweep_value"):
            if row[k] != ref[k]:
                errors.append(f"row {i}: {k} {row[k]!r} != golden {ref[k]!r}")
        if row["seed"] != str(seed) or row["trials"] != str(trials):
            errors.append(f"row {i}: seed/trials {row['seed']}/{row['trials']}"
                          f" != {seed}/{trials}")
        mean, want = float(row["mean_se_bps_hz"]), float(ref["mean_se_bps_hz"])
        if not (math.isfinite(mean) and mean >= 0):
            errors.append(f"row {i}: mean {mean} is not finite and >= 0")
        elif rtol is not None and not math.isclose(mean, want, rel_tol=rtol,
                                                   abs_tol=0.0):
            errors.append(f"row {i} ({ref['label']}, {ref['sweep_value']}): "
                          f"mean {mean!r} != golden {want!r} (rtol {rtol:g})")
    return errors


SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import rydcomb
from rydcomb.cli import parse_config
parse_config(sys.argv[2], sys.argv[3])
print(time.perf_counter() - start)
"""


def setup_once(workload: Workload, env: dict) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
         str(ROOT / workload.config), workload.command],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def setup_seconds(workload: Workload, reps: int) -> tuple[list, list]:
    """``import rydcomb`` to ``parse_config`` returning, each in a fresh
    interpreter; unscaled and scaled.  Bytecode is cached under .out, as an
    installed package caches it, whatever PYTHONDONTWRITEBYTECODE says; an
    unmeasured first interpreter fills the cache."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    setup_once(workload, env)
    calibration = Calibration()
    values = []
    for _ in range(reps):
        calibration.sample()
        values.append(setup_once(workload, env))
    calibration.sample()
    return values, calibration.scaled(values)


def blas_threads(np) -> object:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> object:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def load_golden(workload: Workload, golden_dir: Path) -> list[dict]:
    path = golden_dir / f"{workload.name}.csv"
    if not path.is_file():
        raise BenchError(f"missing golden {path}; run with --write-golden")
    return parse_csv(path.read_bytes())[1]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, *,
            trials: int | None = None, setup_reps: int = SETUP_REPS,
            golden_dir: Path = GOLDEN_DIR) -> Result:
    """Run one workload for ``seconds`` of timed rounds (at least one)."""
    cli = load_cli()
    trials = trials or workload.trials
    out = OUT_DIR / workload.name
    golden = load_golden(workload, golden_dir)
    checks: dict[str, list[str]] = {}

    # Golden round at the config's own seed; also warms caches.
    _, data, _ = run_round(cli, workload, config_seed(workload),
                           workload.trials, out / "golden")
    checks["golden"] = check_csv(data, golden, config_seed(workload),
                                 workload.trials, MEAN_RTOL)

    setup, setup_scaled = [], []
    if not trace:
        setup, setup_scaled = setup_seconds(workload, setup_reps)
    calibration = Calibration()
    tracer = Tracer()
    walls, traced_walls, first_csv = [], [], None
    attempted = failed = 0
    checks["rounds"] = []
    if trace:
        checks["traced_equals_untraced"] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        s = round_seed(seed, len(walls))
        calibration.sample()
        wall, data, fails = run_round(cli, workload, s, trials, out / "round")
        walls.append(wall)
        attempted += trials
        failed += fails
        checks["rounds"] += check_csv(data, golden, s, trials - fails)
        first_csv = first_csv or data
        if trace:
            with installed(tracer):
                wall_t, data_t, fails_t = run_round(cli, workload, s, trials,
                                                    out / "traced")
            traced_walls.append(wall_t)
            attempted += trials
            failed += fails_t
            if data_t != data:
                checks["traced_equals_untraced"].append(
                    f"traced round at seed {s} wrote a different CSV")

    calibration.sample()

    # Determinism: repeat the first round and compare bytes.
    _, again, _ = run_round(cli, workload, round_seed(seed, 0), trials,
                            out / "repeat")
    checks["deterministic"] = ([] if again == first_csv else
                               ["repeating round 0 gave a different CSV"])

    n = len(walls)
    cal_ms = statistics.median(calibration.samples) * 1e3
    notes = [f"calibration median {cal_ms:.2f} ms, nominal "
             f"{CAL_NOMINAL_S * 1e3:.2f} ms; times below are scaled to nominal",
             f"unscaled round_s.p50 {percentile(walls, 50)!r} s"]
    if trace:
        time_scale = CAL_NOMINAL_S * 1e3 / cal_ms
        metrics = layer_metrics(tracer, trials * n, n, time_scale,
                                sum(traced_walls) / sum(walls))
        metrics["failed_trial_ratio"] = (failed / attempted, "ratio")
        notes.append(f"{n} traced + {n} untraced rounds x {trials} trials")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = calibration.scaled(walls)
        metrics = {
            "trials_per_s": ((attempted - failed) / sum(rounds), "1/s"),
            "round_s.p50": (percentile(rounds, 50), "s"),
            "round_s.p90": (percentile(rounds, 90), "s"),
            "setup_s": (percentile(setup_scaled, 50), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        notes += [f"round_s over n={n} rounds x {trials} trials",
                  f"setup_s median of {len(setup)} fresh interpreters, "
                  f"unscaled {percentile(setup, 50)!r} s"]
    correct = not any(checks.values())
    return Result(correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics, notes=notes, checks=checks,
                  env=environment())


def write_golden(workload: Workload) -> Path:
    cli = load_cli()
    _, data, fails = run_round(cli, workload, config_seed(workload),
                               workload.trials, OUT_DIR / workload.name / "golden")
    if fails:
        raise BenchError(f"{fails} failed trials; refusing to write a golden")
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{workload.name}.csv"
    path.write_bytes(data)
    return path


def report(workload: Workload, seed: int, trace: bool, result: Result) -> None:
    print(f"workload {workload.name} ({workload.command} {workload.config}), "
          f"seed {seed}, trace {int(trace)}")
    print("env " + json.dumps(result.env, sort_keys=True))
    for note in result.notes:
        print(f"note {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for name, errors in result.checks.items():
        print(f"check {name}: {'ok' if not errors else 'FAIL'}")
        for error in errors:
            print(f"  {error}")
            print(f"check {name} failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; round r runs config seed "
                             "seed*100003+r")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed rounds run until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the workload's golden CSV and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pin()
    workload = WORKLOADS[args.workload]
    try:
        if args.write_golden:
            print(f"wrote {write_golden(workload)}")
            return 0
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:  # BenchError, layers.LayerMissing
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(workload, args.seed, bool(args.trace), result)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
