"""Command-line front end: config parsing, sweeps, CSV/SVG/manifest output.

Commands: sweep-snr, sweep-chains, sweep-depth, convergence, validate.
Configurations are JSON documents (see README for the schema); SNR is given
in dB and converted once here at the boundary.  Exit codes: 0 success,
1 usage/config error, 2 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import checks
from .architecture import ReuseArchitecture, default_intra_offsets
from .arrays import ArrayGeometry
from .channel import ChannelParams
from .errors import ArchitectureError, ConfigError, GeometryError, NumericError
from .evaluation import (EvalUnit, ExperimentSpec, ResultTable,
                         pc_architecture, run_convergence, run_experiment)
from .optimizer import OptimizerConfig
from .svgplot import render_line_svg

# Field each command sweeps; an SNR-grid command lists sweep-snr first, so
# a config's sweep.param maps back to the command that runs it.
_SWEPT_FIELD = {"sweep-snr": "snr_db", "convergence": "snr_db",
                "sweep-chains": "n_chains", "sweep-depth": "lo_depth"}
_BASELINES = ("none", "upa_pc", "nonupa_pc", "ideal_digital_reuse",
              "ideal_digital_no_reuse")
# Fields each config object reads, keyed by its path without the index
_FIELDS = {
    "": {"architectures", "baselines", "channel", "n_blocks", "n_streams",
         "name", "pc_chains", "reference_lo_depth", "seed", "snr_db",
         "solver", "sweep", "trials"},
    "channel": {"angular_spread_deg", "block_spacing", "cluster_powers",
                "intra_spacing", "n_clusters", "n_rays", "n_tx"},
    "solver": {"epsilon", "max_iterations"},
    "sweep": {"param", "values"},
    "architectures": {"apd_depth", "label", "lo_depth", "resolution_bits",
                      "solver"},
}


class _Ctx:
    """Walks a JSON document tracking the field path for error messages;
    an object with a field it does not read is rejected."""

    def __init__(self, doc: dict, path: str = ""):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        self.doc = doc
        self.path = path
        unknown = sorted(set(doc) - _FIELDS[path.split("[")[0]])
        if unknown:
            raise ConfigError(f"{self._at(unknown[0])}: unknown field")

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, kind, default=None, required: bool = False):
        if key not in self.doc:
            if required:
                raise ConfigError(f"missing required field {self._at(key)}")
            return default
        value = self.doc[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if kind is not None and (isinstance(value, bool)  # json true is an int
                                 or not isinstance(value, kind)):
            raise ConfigError(
                f"{self._at(key)}: expected {getattr(kind, '__name__', kind)}, "
                f"got {type(value).__name__}")
        if kind is float and not math.isfinite(value):  # json takes NaN
            raise ConfigError(f"{self._at(key)}: {value} is not finite")
        return value

    def sub(self, key: str, required: bool = False) -> "_Ctx":
        value = self.get(key, dict, default={}, required=required)
        return _Ctx(value, self._at(key))

    def num_list(self, key: str, kind: type,
                 required: bool = False) -> list:
        """A list of integers (kind=int) or of numbers read as floats."""
        values = self.get(key, list, default=[], required=required)
        allowed = int if kind is int else (int, float)
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, allowed) or (
                    kind is float and not abs(v) <= sys.float_info.max):
                raise ConfigError(f"{self._at(key)}[{i}]: expected " + (
                    "integer" if kind is int else "finite number"))
        return [kind(v) for v in values]

    def build(self, make, **fields):
        """``make(**fields)``; a rejected value names this object's path."""
        try:
            return make(**fields)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc


def _arch_entries(ctx: _Ctx, swept_key: Optional[str]) -> list[_Ctx]:
    raw = ctx.get("architectures", list, default=[], required=True)
    if not raw:
        raise ConfigError("architectures: at least one entry required")
    entries = []
    for i, entry in enumerate(raw):
        sub = _Ctx(entry if isinstance(entry, dict) else None,
                   f"architectures[{i}]")
        if swept_key and swept_key in sub.doc:
            raise ConfigError(
                f"{sub.path}.{swept_key}: fixed here; it is the sweep parameter")
        entries.append(sub)
    return entries


def _resolution(entry: _Ctx) -> Optional[int]:
    value = entry.doc.get("resolution_bits", None)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(
            f"{entry.path}.resolution_bits: expected positive integer or null")
    return value


def _read_config(path: Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def parse_config(path: Path, command: str,
                 seed_override: Optional[int] = None,
                 trials_override: Optional[int] = None) -> tuple[ExperimentSpec, dict]:
    """Load and validate a JSON experiment configuration.

    Returns the resolved spec plus the effective config document (with any
    seed/trials overrides applied) for the reproducibility manifest.
    """
    doc = _read_config(path)
    if seed_override is not None:
        doc["seed"] = seed_override
    if trials_override is not None:
        doc["trials"] = trials_override
    return build_spec(doc, command), doc


def build_spec(doc: dict, command: str) -> ExperimentSpec:
    ctx = _Ctx(doc)
    name = ctx.get("name", str, default="experiment")

    ch = ctx.sub("channel", required=True)
    channel = ch.build(
        ChannelParams, n_tx=ch.get("n_tx", int, required=True),
        n_clusters=ch.get("n_clusters", int, default=5),
        n_rays=ch.get("n_rays", int, default=10),
        cluster_powers=tuple(ch.num_list("cluster_powers", float)),
        angular_spread=math.radians(
            ch.get("angular_spread_deg", float, default=10.0)))
    block_spacing = ch.get("block_spacing", float, default=0.5)
    intra_spacing = ch.get("intra_spacing", float,
                           default=0.1 * block_spacing)

    n_blocks = ctx.get("n_blocks", int, required=True)
    n_streams = ctx.get("n_streams", int, required=True)
    snr_db = tuple(ctx.num_list("snr_db", float,
                                required=(command == "sweep-snr")))
    if command == "sweep-snr" and not snr_db:
        raise ConfigError("snr_db: empty sweep; give at least one SNR point")
    if not snr_db:
        snr_db = (0.0,)
    trials = ctx.get("trials", int, default=500)
    seed = ctx.get("seed", int, required=True)

    sv = ctx.sub("solver")
    solver_cfg = sv.build(
        OptimizerConfig, epsilon=sv.get("epsilon", float, default=1e-4),
        max_iterations=sv.get("max_iterations", int, default=100))

    baselines = ctx.get("baselines", list, default=[])
    for b in baselines:
        if b not in _BASELINES:
            raise ConfigError(
                f"baselines: unknown baseline {b!r} (choose from {_BASELINES})")
    baselines = [b for b in baselines if b != "none"]
    pc_chains = ctx.get("pc_chains", int)

    if command not in _SWEPT_FIELD:
        raise ConfigError(f"unknown command {command!r}")
    try:
        units = _sweep_units(ctx, command, n_blocks, block_spacing,
                             intra_spacing, baselines, pc_chains)
    except (GeometryError, ArchitectureError) as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentSpec(channel=channel, units=tuple(units),
                          n_streams=n_streams, snr_db=snr_db, trials=trials,
                          seed=seed, solver=solver_cfg,
                          sweep_param=_SWEPT_FIELD[command], name=name)


def _baseline_units(baselines: list[str], n_blocks: int, depth: int,
                    chains: Optional[int], block_spacing: float,
                    intra_spacing: float,
                    sweep_value: Optional[float]) -> list[EvalUnit]:
    """Reference curves on the lo_depth=``depth`` geometry; the PC
    baselines split it into ``chains`` chains."""
    units: list[EvalUnit] = []
    nonupa = ArrayGeometry(n_blocks, depth, block_spacing, intra_spacing)
    for b in baselines:
        if b == "ideal_digital_no_reuse":
            units.append(EvalUnit(
                label="ideal digital, no reuse", kind="ideal_digital",
                geometry=ArrayGeometry(n_blocks, 1, block_spacing,
                                       intra_spacing),
                sweep_value=sweep_value))
        elif b == "ideal_digital_reuse":
            units.append(EvalUnit(
                label=f"ideal digital, lo_depth={depth}",
                kind="ideal_digital", geometry=nonupa, sweep_value=sweep_value))
        elif b in ("upa_pc", "nonupa_pc"):
            if chains is None:
                raise ConfigError(f"baseline {b!r} requires pc_chains")
            n_r = n_blocks * depth
            arch = pc_architecture(n_r, chains)
            if b == "upa_pc":
                geometry = ArrayGeometry(n_r, 1, block_spacing, intra_spacing)
                kind, label = "pc_upa", f"UPA PC, chains={chains}"
            else:
                geometry = nonupa
                kind, label = "pc_nonupa", f"non-UPA PC, chains={chains}"
            units.append(EvalUnit(label=label, kind=kind, geometry=geometry,
                                  arch=arch, solver="altmin",
                                  sweep_value=sweep_value))
    return units


def _sweep_units(ctx: _Ctx, command: str, n_blocks: int,
                 block_spacing: float, intra_spacing: float,
                 baselines: list[str],
                 pc_chains: Optional[int]) -> list[EvalUnit]:
    """One unit per (swept value, architecture entry), each value followed
    by its baselines on the reference depth (default: the deepest entry).
    A chain-count sweep sets apd_depth = N_r / chains and a depth sweep
    sets lo_depth, so entries may not fix that field; default labels name
    the fields that are not swept."""
    param = _SWEPT_FIELD[command]
    values: list = [None]
    if param != "snr_db":
        sweep = ctx.sub("sweep", required=True)
        if sweep.get("param", str, required=True) != param:
            raise ConfigError(f"sweep.param must be {param!r} for {command}")
        values = sweep.num_list("values", int, required=True)
        if not values:
            raise ConfigError("sweep.values is empty")
    if command == "convergence" and baselines:
        raise ConfigError("convergence traces do not take baselines")
    bad = [b for b in baselines if b in ("upa_pc", "nonupa_pc")]
    if param == "lo_depth" and bad:
        raise ConfigError(
            f"PC baselines {bad} are not supported in sweep-depth")
    swept_key = {"n_chains": "apd_depth", "lo_depth": "lo_depth"}.get(param)
    entries = _arch_entries(ctx, swept_key=swept_key)
    units: list[EvalUnit] = []
    for value in values:
        if param == "lo_depth" and value < 1:
            raise ConfigError(f"sweep.values: lo_depth {value} must be >= 1")
        sweep_value = None if value is None else float(value)
        arch_units: list[EvalUnit] = []
        for entry in entries:
            lo = (value if param == "lo_depth"
                  else entry.get("lo_depth", int, default=1))
            apd = entry.get("apd_depth", int, default=1)
            if param == "n_chains":
                if value <= 0 or n_blocks * lo % value != 0:
                    raise ConfigError(f"sweep.values: {value} chains do not "
                                      f"divide N_r={n_blocks * lo}")
                apd = n_blocks * lo // value
            label = entry.get("label", str, default=", ".join(
                f"{k}={v}" for k, v in (("lo_depth", lo), ("apd_depth", apd))
                if k != swept_key))
            arch = entry.build(
                ReuseArchitecture, n_blocks=n_blocks, lo_depth=lo,
                apd_depth=apd, resolution_bits=_resolution(entry),
                intra_offsets=default_intra_offsets(n_blocks, lo,
                                                    intra_spacing))
            geometry = ArrayGeometry(n_blocks, lo, block_spacing, intra_spacing)
            solver = entry.get("solver", str, default="auto")
            try:
                arch_units.append(EvalUnit(
                    label=label, kind="rydberg", geometry=geometry, arch=arch,
                    solver=solver, sweep_value=sweep_value))
            except ConfigError as exc:  # the message starts with its field
                raise ConfigError(f"{entry.path}.{exc}") from exc
        units.extend(arch_units)
        depth = value if param == "lo_depth" else ctx.get(
            "reference_lo_depth", int,
            default=max(u.arch.lo_depth for u in arch_units))
        units.extend(_baseline_units(
            baselines, n_blocks, depth,
            value if param == "n_chains" else pc_chains,
            block_spacing, intra_spacing, sweep_value))
    return units


def emit_results(table: ResultTable, output_dir: Path,
                 manifest_config: Optional[dict] = None,
                 command: str = "", value_name: str = "mean_se_bps_hz") -> list[Path]:
    """Write results.csv, results.svg, and manifest.json.

    The CSV is the authoritative output: UTF-8, LF endings, %.12e means.
    """
    if not table.rows:
        raise ConfigError("result table is empty; nothing to write")
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "results.csv"
        lines = ["label,sweep_param,sweep_value,mean_se_bps_hz,stderr,trials,seed"]
        for r in table.rows:
            label = r.label.replace('"', '""')
            label = f'"{label}"' if set(',"\n\r') & set(r.label) else label
            lines.append(
                f"{label},{r.sweep_param},{r.sweep_value:.6g},"
                f"{r.mean_se:.12e},{r.stderr:.12e},{r.trials},{table.seed}")
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                            newline="\n")

        series: dict[str, tuple[list[float], list[float]]] = {}
        for r in table.rows:
            xs, ys = series.setdefault(r.label, ([], []))
            xs.append(r.sweep_value)
            ys.append(r.mean_se)
        svg = render_line_svg([(label, xs, ys) for label, (xs, ys) in series.items()],
                              title=table.name, x_label=table.sweep_param,
                              y_label=value_name)
        svg_path = out / "results.svg"
        svg_path.write_text(svg, encoding="utf-8", newline="\n")

        manifest = {
            "command": command,
            "config": manifest_config,
            "failures": table.failures,
            "name": table.name,
            "seed": table.seed,
            "sweep_param": table.sweep_param,
        }
        manifest_path = out / "manifest.json"
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out}: {exc}") from exc
    return [csv_path, svg_path, manifest_path]


def validate_command(config_path: Optional[Path] = None) -> int:
    """Run the oracle self-checks, then one proportional-equivalence check
    per architecture of a config file, which is parsed by the command its
    sweep.param selects."""
    archs = []
    if config_path is not None:
        doc = _read_config(config_path)
        param = _Ctx(doc).sub("sweep").get("param", str, default="snr_db")
        commands = [c for c, f in _SWEPT_FIELD.items() if f == param]
        if not commands:
            raise ConfigError(f"sweep.param: unknown sweep parameter {param!r}")
        spec = build_spec(doc, commands[0])
        archs = [u.arch for u in spec.units if u.kind == "rydberg"]
    results = checks.run_all() + [
        checks.check_proportional_equivalence(arch=arch) for arch in archs]
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        print(f"{r.name.ljust(width)}  {r.status:4s}  {r.detail}")
        failed += r.status == "FAIL"
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydcomb",
        description="Reuse-architecture array combining simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, blurb in (
            ("sweep-snr", "spectral efficiency vs SNR"),
            ("sweep-chains", "spectral efficiency vs laser-chain count"),
            ("sweep-depth", "spectral efficiency vs LO reuse depth"),
            ("convergence", "solver residual vs iteration")):
        p = sub.add_parser(cmd, help=blurb)
        p.add_argument("--config", required=True, type=Path,
                       help="JSON experiment configuration")
        p.add_argument("--out", required=True, type=Path,
                       help="output directory for results.csv/svg + manifest")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--trials", type=_positive_int, default=None,
                       help="override the config trial count")
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="worker threads (default: SIM_THREADS or 1)")
    v = sub.add_parser("validate", help="run the fast oracle self-checks")
    v.add_argument("--config", type=Path, default=None,
                   help="optionally check the architectures of this config")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    threads = args.__dict__.get("threads")
    if threads is None:
        env = os.environ.get("SIM_THREADS", "")
        try:
            threads = _positive_int(env) if env else 1
        except (ValueError, argparse.ArgumentTypeError):
            print(f"error: SIM_THREADS={env!r} is not a positive integer",
                  file=sys.stderr)
            return 1
    try:
        if args.command == "validate":
            return validate_command(args.config)
        spec, doc = parse_config(args.config, args.command,
                                 seed_override=args.seed,
                                 trials_override=args.trials)
        convergence = args.command == "convergence"
        table = (run_convergence if convergence else run_experiment)(
            spec, threads=threads)
        paths = emit_results(
            table, args.out, manifest_config=doc, command=args.command,
            value_name="mean_residual" if convergence else "mean_se_bps_hz")
        print(f"wrote {', '.join(str(p) for p in paths)}")
        return 0
    except (ConfigError, GeometryError, ArchitectureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
