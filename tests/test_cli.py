import csv
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest

import rydcomb.channel
import rydcomb.checks
import rydcomb.cli
import rydcomb.evaluation
import rydcomb.optimizer
from rydcomb import (ArrayGeometry, ConfigError, ResultRow, ResultTable,
                     ReuseArchitecture)
from rydcomb.channel import MAX_CLUSTER_POWER
from rydcomb.evaluation import MAX_SNR_DB
from rydcomb.cli import (MAX_COUNT, build_spec, emit_results, main,
                         parse_config, validate_command)


def smoke_doc(**overrides):
    doc = {
        "name": "tiny",
        "channel": {"n_tx": 16, "n_clusters": 2, "n_rays": 3,
                    "angular_spread_deg": 10.0},
        "n_blocks": 4,
        "n_streams": 2,
        "snr_db": [0.0, 10.0],
        "trials": 4,
        "seed": 5,
        "architectures": [
            {"label": "a", "lo_depth": 2, "apd_depth": 2},
        ],
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_bundled_fig5(self, configs_dir):
        spec, doc = parse_config(configs_dir / "fig5.json", "sweep-snr")
        assert spec.channel.n_tx == 144
        assert spec.channel.n_clusters == 5
        assert spec.channel.n_rays == 10
        assert spec.channel.angular_spread == pytest.approx(math.radians(10))
        assert spec.units[0].geometry.n_blocks == 36
        assert spec.n_streams == 3
        assert len(spec.units) == 5
        assert doc["seed"] == spec.seed

    def test_all_bundled_configs_parse(self, configs_dir):
        commands = {"fig10.json": "sweep-chains",
                    "convergence.json": "convergence"}
        for path in sorted(configs_dir.glob("*.json")):
            command = commands.get(path.name, "sweep-snr")
            spec, _ = parse_config(path, command)
            assert spec.units

    def test_streams_exceeding_chains_rejected(self, tmp_path):
        doc = smoke_doc(architectures=[
            {"label": "a", "lo_depth": 2, "apd_depth": 8}])
        with pytest.raises(ConfigError, match="chains"):
            parse_config(write_doc(tmp_path, doc), "sweep-snr")

    def test_non_dividing_apd_rejected(self, tmp_path):
        doc = smoke_doc(architectures=[
            {"label": "a", "lo_depth": 2, "apd_depth": 3}])
        with pytest.raises(ConfigError, match="divide"):
            parse_config(write_doc(tmp_path, doc), "sweep-snr")

    def test_missing_field_names_path(self, tmp_path):
        doc = smoke_doc()
        del doc["channel"]["n_tx"]
        with pytest.raises(ConfigError, match="channel.n_tx"):
            parse_config(write_doc(tmp_path, doc), "sweep-snr")

    def test_empty_snr_sweep_refused(self, tmp_path):
        doc = smoke_doc(snr_db=[])
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config(write_doc(tmp_path, doc), "sweep-snr")

    def test_overrides_applied(self, tmp_path):
        path = write_doc(tmp_path, smoke_doc())
        spec, doc = parse_config(path, "sweep-snr", seed_override=99,
                                 trials_override=2)
        assert spec.seed == 99 and spec.trials == 2
        assert doc["seed"] == 99 and doc["trials"] == 2

    def test_unknown_baseline_rejected(self, tmp_path):
        doc = smoke_doc(baselines=["fully_connected"])
        with pytest.raises(ConfigError, match="baseline"):
            parse_config(write_doc(tmp_path, doc), "sweep-snr")

    def test_pc_requires_chains(self, tmp_path):
        doc = smoke_doc(baselines=["upa_pc"])
        with pytest.raises(ConfigError, match="pc_chains"):
            parse_config(write_doc(tmp_path, doc), "sweep-snr")

    @pytest.mark.parametrize("config,command,entry,message", [
        ("smoke", "sweep-snr", {"lo_depth": 4, "apd_depth": 4},
         "duplicate curve label 'ideal digital, no reuse'"),
        ("fig10", "sweep-chains", {"lo_depth": 4},
         "duplicate curve label 'ideal digital, no reuse' at n_chains=4")])
    def test_duplicate_curve_named(self, tmp_path, capsys, configs_dir,
                                   config, command, entry, message):
        # an entry labelled like a baseline: the first repeat is named
        doc = json.loads((configs_dir / f"{config}.json").read_text())
        doc["architectures"].append(dict(entry,
                                         label="ideal digital, no reuse"))
        assert main([command, "--config", str(write_doc(tmp_path, doc)),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_null_reads_as_omitted(self):
        # resolution_bits and pc_chains default to None, so null omits them
        doc = smoke_doc(pc_chains=None, architectures=[
            {"label": "a", "lo_depth": 2, "apd_depth": 2,
             "resolution_bits": None}])
        assert build_spec(doc, "sweep-snr") == build_spec(smoke_doc(),
                                                          "sweep-snr")


class TestSweepPlans:
    def test_sweep_chains_units(self, tmp_path):
        doc = smoke_doc(snr_db=[0.0],
                        sweep={"param": "n_chains", "values": [2, 4, 8]},
                        architectures=[{"label": "fam", "lo_depth": 4}],
                        baselines=["ideal_digital_reuse"])
        spec = build_spec(doc, "sweep-chains")
        assert spec.sweep_param == "n_chains"
        assert len(spec.units) == 6
        values = sorted(u.sweep_value for u in spec.units if u.kind == "rydberg")
        assert values == [2.0, 4.0, 8.0]
        depths = {u.arch.apd_depth for u in spec.units if u.kind == "rydberg"}
        assert depths == {8, 4, 2}
        # the ideal digital curve at each chain count: the full-chain
        # architecture of the 4x4 geometry
        assert [u.arch for u in spec.units if u.kind == "ideal_digital"] \
            == [ReuseArchitecture(4, 4)] * 3

    def test_ideal_digital_baselines_are_full_chain(self):
        # each ideal digital curve carries the full-chain architecture of
        # its geometry, at the config's spacings
        doc = smoke_doc(channel={"n_tx": 16, "n_clusters": 2, "n_rays": 3,
                                 "block_spacing": 0.7, "intra_spacing": 0.1},
                        architectures=[{"lo_depth": 4, "apd_depth": 2}],
                        baselines=["ideal_digital_reuse",
                                   "ideal_digital_no_reuse"])
        ideal = {u.label: (u.geometry, u.arch)
                 for u in build_spec(doc, "sweep-snr").units
                 if u.kind == "ideal_digital"}
        assert ideal == {
            f"ideal digital, lo_depth={lo}" if lo > 1
            else "ideal digital, no reuse": (
                ArrayGeometry(4, lo, 0.7, 0.1),
                ReuseArchitecture(4, lo, intra_spacing=0.1))
            for lo in (4, 1)}

    def test_sweep_chains_rejects_non_divisor(self, tmp_path):
        doc = smoke_doc(snr_db=[0.0],
                        sweep={"param": "n_chains", "values": [3]},
                        architectures=[{"label": "fam", "lo_depth": 4}])
        with pytest.raises(ConfigError, match="divide"):
            build_spec(doc, "sweep-chains")

    def test_sweep_depth_units(self):
        doc = smoke_doc(snr_db=[0.0],
                        sweep={"param": "lo_depth", "values": [1, 2, 4]},
                        architectures=[{"label": "fam", "apd_depth": 1}],
                        baselines=["ideal_digital_no_reuse"])
        spec = build_spec(doc, "sweep-depth")
        rydberg = [u for u in spec.units if u.kind == "rydberg"]
        assert [u.arch.lo_depth for u in rydberg] == [1, 2, 4]
        assert all(u.geometry.n_elements == 4 * u.arch.lo_depth
                   for u in rydberg)

    def test_sweep_depth_rejects_pc(self):
        doc = smoke_doc(snr_db=[0.0], pc_chains=2,
                        sweep={"param": "lo_depth", "values": [1, 2]},
                        architectures=[{"label": "fam"}],
                        baselines=["upa_pc"])
        with pytest.raises(ConfigError, match="not supported"):
            build_spec(doc, "sweep-depth")

    @pytest.mark.parametrize("command, sweep, entry, label", [
        ("sweep-snr", None, {"lo_depth": 2, "apd_depth": 2},
         "lo_depth=2, apd_depth=2"),
        ("sweep-chains", {"param": "n_chains", "values": [2]},
         {"lo_depth": 4}, "lo_depth=4"),
        ("sweep-depth", {"param": "lo_depth", "values": [2]},
         {"apd_depth": 2}, "apd_depth=2"),
    ])
    def test_default_labels_name_unswept_fields(self, command, sweep, entry,
                                                label):
        doc = smoke_doc(snr_db=[0.0], architectures=[entry])
        if sweep is not None:
            doc["sweep"] = sweep
        assert build_spec(doc, command).units[0].label == label

    @pytest.mark.parametrize("command", ["sweep-snr", "convergence"])
    def test_snr_commands_reject_a_sweep(self, tmp_path, capsys, configs_dir,
                                         command):
        # depth.json sweeps lo_depth; an SNR command would run it at
        # lo_depth 1 and write a table for a sweep it never made
        out = tmp_path / "o"
        assert main([command, "--config", str(
            configs_dir.parent / "tests/configs/depth.json"),
            "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep: {command} ")
        assert "sweep.param 'lo_depth' is for sweep-depth" in err
        assert not out.exists()

    def test_swept_key_fixed_in_entries(self):
        doc = smoke_doc(snr_db=[0.0],
                        sweep={"param": "lo_depth", "values": [1, 2]},
                        architectures=[{"label": "fam", "lo_depth": 2}])
        with pytest.raises(ConfigError, match=r"architectures\[0\]\.lo_depth: "
                           "sweep-depth does not read this field"):
            build_spec(doc, "sweep-depth")


class TestEmitResults:
    @staticmethod
    def table():
        rows = [ResultRow(label=label, sweep_param="snr_db", sweep_value=v,
                          mean_se=1.0 + v, stderr=0.1, trials=4)
                for label in ("a", "b") for v in (0.0, 5.0, 10.0)]
        return ResultTable(rows=rows, sweep_param="snr_db", seed=5,
                           name="demo")

    def test_csv_row_count_and_header(self, tmp_path):
        emit_results(self.table(), tmp_path, manifest_config={"x": 1},
                     command="sweep-snr")
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == \
            "label,sweep_param,sweep_value,mean_se_bps_hz,stderr,trials,seed"
        assert len(lines) == 7
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {"x": 1}
        assert (tmp_path / "results.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("label", ['a\nb', 'a\rb', 'x, "y"\r\nz'],
                             ids=["lf", "cr", "crlf-comma-quote"])
    def test_label_read_back_as_one_row(self, tmp_path, label):
        rows = [ResultRow(label=label, sweep_param="snr_db", sweep_value=0.0,
                          mean_se=1.0, stderr=0.1, trials=4)]
        emit_results(ResultTable(rows=rows, sweep_param="snr_db", seed=5),
                     tmp_path)
        with open(tmp_path / "results.csv", newline="",
                  encoding="utf-8") as f:
            read = list(csv.reader(f))
        assert len(read) == 2
        assert read[1][0] == label

    def test_empty_table_refused(self, tmp_path):
        table = ResultTable(rows=[], sweep_param="snr_db", seed=5)
        with pytest.raises(ConfigError):
            emit_results(table, tmp_path)


class TestRunEndToEnd:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        path = write_doc(tmp_path, smoke_doc())
        outputs = []
        for name, threads in (("r1", 1), ("r2", 1), ("r4", 4)):
            out = tmp_path / name
            code = main(["sweep-snr", "--config", str(path), "--out",
                         str(out), "--threads", str(threads)])
            assert code == 0
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rerun_replaces_linked_outputs(self, tmp_path):
        # a second run into the same --out writes new files: a hard link to
        # the old CSV and the file behind a symlinked SVG keep their bytes
        path = write_doc(tmp_path, smoke_doc())
        out = tmp_path / "out"
        argv = ["sweep-snr", "--config", str(path), "--out", str(out),
                "--threads", "1"]
        assert main(argv) == 0
        first = (out / "results.csv").read_bytes()
        os.link(out / "results.csv", tmp_path / "kept.csv")
        behind = tmp_path / "behind.svg"
        behind.write_text("kept")
        (out / "results.svg").unlink()
        (out / "results.svg").symlink_to(behind)
        assert main(argv + ["--seed", "6"]) == 0
        assert (tmp_path / "kept.csv").read_bytes() == first
        assert (out / "results.csv").read_bytes() != first
        assert behind.read_text() == "kept"
        assert not (out / "results.svg").is_symlink()
        assert (out / "results.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("fault", ["svg-is-directory", "svg-raises"])
    def test_failed_write_leaves_no_manifest(self, tmp_path, monkeypatch,
                                             capsys, fault):
        path = write_doc(tmp_path, smoke_doc())
        out = tmp_path / "out"
        argv = ["sweep-snr", "--config", str(path), "--out", str(out),
                "--threads", "1"]
        assert main(argv) == 0
        assert (out / "manifest.json").exists()
        if fault == "svg-is-directory":
            (out / "results.svg").unlink()
            (out / "results.svg").mkdir()
        else:
            def fail(*args, **kwargs):
                raise OSError("synthetic write failure")
            monkeypatch.setattr(rydcomb.cli, "render_line_svg", fail)
        assert main(argv) == 1
        assert "cannot write outputs" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_manifest_roundtrip(self, tmp_path):
        path = write_doc(tmp_path, smoke_doc())
        out = tmp_path / "out"
        assert main(["sweep-snr", "--config", str(path), "--out", str(out),
                     "--threads", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        respec = build_spec(manifest["config"], manifest["command"])
        original, _ = parse_config(path, "sweep-snr")

        def summary(spec):
            return (spec.seed, spec.trials, spec.snr_db, spec.n_streams,
                    spec.sweep_param, spec.channel,
                    tuple((u.label, u.kind, u.geometry, u.solver,
                           u.sweep_value,
                           (u.arch.n_blocks, u.arch.lo_depth,
                            u.arch.apd_depth, u.arch.resolution_bits))
                          for u in spec.units))

        assert summary(respec) == summary(original)
        for a, b in zip(respec.units, original.units):
            assert a.arch == b.arch

    def test_convergence_command(self, tmp_path):
        doc = smoke_doc(snr_db=[0.0], trials=3,
                        solver={"epsilon": 1e-10, "max_iterations": 6},
                        architectures=[
                            {"label": "a", "lo_depth": 4, "apd_depth": 8}])
        path = write_doc(tmp_path, doc)
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(path), "--out",
                     str(out), "--threads", "1"]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        assert all(",iteration," in line for line in lines[1:])

    def test_main_missing_config_exit_one(self, tmp_path, capsys):
        code = main(["sweep-snr", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("sweep-snr --config {config} --out {out} --trials 0",
         "argument --trials: must be >= 1"),
        ("sweep-snr --out {out}",
         "the following arguments are required: --config"),
        ("sweep-foo --config {config} --out {out}",
         "invalid choice: 'sweep-foo'"),
        ("sweep-snr --config {config} --out {out} --seed abc",
         "argument --seed: invalid int value: 'abc'"),
        ("sweep-snr --config {config} --out {out} --seed -1",
         "error: seed must be a 64-bit unsigned integer"),
    ])
    def test_usage_error_exit_one(self, tmp_path, capsys, configs_dir, argv,
                                  message):
        # exit 2 is for numeric failures, not for the command line
        assert main([a.format(config=configs_dir / "smoke.json",
                              out=tmp_path / "o")
                     for a in argv.split()]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_exit_zero(self, capsys):
        assert main(["sweep-snr", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: rydcomb sweep-snr")

    def test_main_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["sweep-snr", "--config", str(bad), "--out",
                     str(tmp_path / "o")])
        assert code == 1

    def test_main_invalid_spec_exit_one(self, tmp_path, capsys):
        doc = smoke_doc(n_streams=10)
        code = main(["sweep-snr", "--config", str(write_doc(tmp_path, doc)),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_main_smoke_config(self, tmp_path, configs_dir):
        code = main(["sweep-snr", "--config", str(configs_dir / "smoke.json"),
                     "--out", str(tmp_path / "smoke"), "--trials", "2"])
        assert code == 0

    def test_numeric_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        from rydcomb import NumericError
        import rydcomb.cli

        def explode(spec, threads=1):
            raise NumericError("synthetic breakdown")
        monkeypatch.setattr(rydcomb.cli, "run_experiment", explode)
        path = write_doc(tmp_path, smoke_doc())
        code = main(["sweep-snr", "--config", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "numeric error" in capsys.readouterr().err

    def test_overflowing_gains_exit_two(self, tmp_path, monkeypatch, capsys):
        # no config within the two ceilings overflows the rates, so the
        # overflow is forced on them: non-finite means must not reach
        # results.csv
        rates = rydcomb.evaluation._rates
        monkeypatch.setattr(rydcomb.evaluation, "_rates",
                            lambda *args: rates(*args) * np.inf)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["sweep-snr", "--config",
                         str(write_doc(tmp_path, smoke_doc())),
                         "--out", str(out)])
        assert code == 2
        assert "non-finite mean or stderr" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_power_ceiling_runs(self, tmp_path, configs_dir):
        # both ceilings at once run smoke without an overflow warning
        doc = json.loads((configs_dir / "smoke.json").read_text())
        doc["channel"]["cluster_powers"] = [MAX_CLUSTER_POWER] * 3
        doc["snr_db"] = [MAX_SNR_DB]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep-snr", "--config",
                         str(write_doc(tmp_path, doc)), "--threads", "1",
                         "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("snr_db", [-5e15, -sys.float_info.max])
    def test_far_negative_single_snr_plots(self, tmp_path, configs_dir,
                                           snr_db):
        # snr_db has no floor, and x +- 0.5 rounds back to such an x: the
        # plot's x axis must still be finite and not empty
        doc = json.loads((configs_dir / "smoke.json").read_text())
        doc["snr_db"] = [snr_db]
        out = tmp_path / "o"
        assert main(["sweep-snr", "--config", str(write_doc(tmp_path, doc)),
                     "--trials", "2", "--out", str(out)]) == 0
        assert not re.search(r"\b(nan|inf)\b",
                             (out / "results.svg").read_text())

    def test_env_thread_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIM_THREADS", "2")
        path = write_doc(tmp_path, smoke_doc())
        assert main(["sweep-snr", "--config", str(path), "--out",
                     str(tmp_path / "env")]) == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_invalid_env_threads_exit_one(self, tmp_path, monkeypatch,
                                          capsys, value):
        monkeypatch.setenv("SIM_THREADS", value)
        path = write_doc(tmp_path, smoke_doc())
        assert main(["sweep-snr", "--config", str(path), "--out",
                     str(tmp_path / "env")]) == 1
        assert capsys.readouterr().err == (
            f"error: SIM_THREADS={value!r} is not a positive integer\n")
        assert not (tmp_path / "env").exists()

    def test_streams_above_path_count_rejected(self):
        doc = smoke_doc(n_streams=2)
        doc["channel"] = dict(doc["channel"], n_clusters=1, n_rays=1)
        with pytest.raises(ConfigError, match="rank bound"):
            build_spec(doc, "sweep-snr")

    DEPTH_SWEEP = {"sweep": {"param": "lo_depth", "values": [1, 2]},
                   "snr_db": [10.0],
                   "architectures": [{"label": "a", "apd_depth": 1}]}
    CHAIN_SWEEP = {"sweep": {"param": "n_chains", "values": [2, 4]},
                   "snr_db": [10.0],
                   "architectures": [{"label": "a", "lo_depth": 2}]}
    BAD_CONFIGS = {
        "cluster-powers-length": (
            {"cluster_powers": [1.0]}, None, "channel: cluster_powers"),
        # squared and scaled by the SNR, such powers overflow the rates
        "huge-cluster-powers": (
            {"cluster_powers": [1e308, 1e308]}, None,
            "channel: cluster_powers must be finite, > 0 and at most "
            "1e+100"),
        # 1e308 linear, finite, but times the squared gains it overflows
        "huge-snr": ({}, {"snr_db": [3080.0]},
                     "snr_db values must be finite and at most 1000"),
        "negative-spread": (
            {"angular_spread_deg": -1.0}, None, "channel: angular_spread"),
        "zero-rays": ({"n_rays": 0}, None, "channel: n_clusters and n_rays"),
        "negative-epsilon": (
            {}, {"solver": {"epsilon": -1}}, "solver: epsilon"),
        "unknown-solver": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 2, "solver": "exhaustive"}]},
            "architectures[0].solver"),
        "direct-non-proportional": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 4, "solver": "direct"}]},
            "architectures[0].solver"),
        "nan-epsilon": (
            {}, {"solver": {"epsilon": math.nan}}, "solver.epsilon"),
        "nan-spread": (
            {"angular_spread_deg": math.nan}, None,
            "channel.angular_spread_deg"),
        "misspelled-field": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 4, "resolution_bit": 1}]},
            "architectures[0].resolution_bit"),
        "misspelled-channel-field": ({"n_ray": 3}, None,
                                     "channel.n_ray: {command} does not read "
                                     "this field"),
        # null reads as omitted for pc_chains and resolution_bits only
        "null-unknown-field": ({}, {"typo": None},
                               "typo: {command} does not read this field"),
        # one cluster without spread has rank 1 < n_streams = 2
        "rank-one-zero-spread": (
            {"n_clusters": 1, "angular_spread_deg": 0}, None, "rank bound 1"),
        "huge-int-spread": (
            {"angular_spread_deg": 10 ** 400}, None,
            "channel.angular_spread_deg: inf is not finite"),
        "huge-int-snr": ({}, {"snr_db": [0.0, 10 ** 400]}, "snr_db[1]"),
        # each SNR point would write every curve's row again
        "repeated-snr": ({}, {"snr_db": [0.0, 5.0, 0.0]},
                         "duplicate snr_db value 0"),
        # JSON true is a Python int; it must not pass for a count
        "bool-trials": ({}, {"trials": True}, "trials: expected int"),
        "bool-max-iterations": ({}, {"solver": {"max_iterations": True}},
                                "solver.max_iterations: expected int"),
        "bool-lo-depth": ({}, {"architectures": [
            {"lo_depth": True, "apd_depth": 2}]},
            "architectures[0].lo_depth: expected int"),
        # a 2^64-point grid overflowed the quantizer's integer levels
        "huge-resolution": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 4, "resolution_bits": 64}]},
            "architectures[0]: resolution_bits must be in [1, 52]"),
        "zero-resolution": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 4, "resolution_bits": 0}]},
            "architectures[0]: resolution_bits must be in [1, 52] (or None)"),
        "string-resolution": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 4, "resolution_bits": "x"}]},
            "architectures[0].resolution_bits: expected int, got str"),
        # the architecture rejects it before the receive geometry does
        "negative-intra-spacing": ({"intra_spacing": -0.1}, None,
                                   "architectures[0]: intra_spacing must be "
                                   "finite and >= 0"),
        # default labels name lo_depth and apd_depth only
        "same-default-label": ({}, {"architectures": [
            {"lo_depth": 2, "apd_depth": 4},
            {"lo_depth": 2, "apd_depth": 4, "resolution_bits": 2}]},
            "architectures[0] and architectures[1] have the same label "
            "'lo_depth=2, apd_depth=4'; set label"),
        # the solver reserves one history column per allowed iteration
        "huge-max-iterations": ({}, {"solver": {"max_iterations": 10 ** 13}},
                                "solver: max_iterations must be an integer "
                                "in [1, 10000]"),
        # fields the command does not read for this config: a depth sweep's
        # baselines sit on the swept depth, a chain sweep sets the chains,
        # only a PC baseline reads pc_chains and only a baseline reads
        # reference_lo_depth
        "depth-reference-lo-depth": (
            {}, dict(DEPTH_SWEEP, reference_lo_depth=2),
            "reference_lo_depth: sweep-depth does not read this field"),
        "depth-pc-chains": ({}, dict(DEPTH_SWEEP, pc_chains=2),
                            "pc_chains: sweep-depth does not read this field"),
        "chains-pc-chains": ({}, dict(CHAIN_SWEEP, pc_chains=2),
                             "pc_chains: sweep-chains does not read this "
                             "field"),
        "convergence-pc-chains": ({}, {"pc_chains": 2},
                                  "pc_chains: {command} does not read this "
                                  "field"),
        "convergence-reference-lo-depth": (
            {}, {"reference_lo_depth": 2},
            "reference_lo_depth: {command} does not read this field"),
        "pc-chains-without-pc-baseline": (
            {}, {"pc_chains": 4, "baselines": ["ideal_digital_reuse"]},
            "pc_chains: {command} does not read this field"),
        "reference-lo-depth-without-baseline": (
            {}, {"reference_lo_depth": 2, "baselines": ["none"]},
            "reference_lo_depth: {command} does not read this field"),
    }
    # validate parses a config by its sweep's command, and one without a
    # sweep as sweep-snr first
    UNREAD_BY = {"depth-reference-lo-depth": ["sweep-depth", "validate"],
                 "depth-pc-chains": ["sweep-depth", "validate"],
                 "chains-pc-chains": ["sweep-chains", "validate"],
                 "convergence-pc-chains": ["convergence", "sweep-snr",
                                           "validate"],
                 "convergence-reference-lo-depth": ["convergence",
                                                    "sweep-snr", "validate"]}

    @pytest.mark.parametrize("command", ["sweep-snr", "validate"])
    def test_integer_past_digit_limit_exit_one(self, tmp_path, capsys, command):
        # Python refuses to read an integer literal of more than 4300 digits
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(smoke_doc()).replace(
            '"seed": 5', '"seed": 1' + "0" * 5000))
        argv = [command, "--config", str(path)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # each case under sweep-snr and validate, unless UNREAD_BY names others
    @pytest.mark.parametrize("command,case", [
        (c, k) for k, commands in {
            **dict.fromkeys(BAD_CONFIGS, ("sweep-snr", "validate")),
            **UNREAD_BY}.items() for c in commands])
    def test_config_error_exit_one(self, tmp_path, capsys, case, command):
        # an exception escaping main, which would end the process in a
        # traceback, fails the test
        channel, top, message = self.BAD_CONFIGS[case]
        message = message.replace(
            "{command}", "sweep-snr" if command == "validate" else command)
        doc = smoke_doc(**(top or {}))
        doc["channel"] = dict(doc["channel"], **channel)
        argv = [command, "--config", str(write_doc(tmp_path, doc))]
        if command != "validate":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "checks passed" not in captured.out
        assert not (tmp_path / "o").exists()

    # without the ceiling these counts escape main as a MemoryError,
    # OverflowError or ValueError, with a traceback
    @pytest.mark.parametrize("field", ["channel.n_tx", "channel.n_clusters",
                                       "channel.n_rays", "n_blocks",
                                       "reference_lo_depth"])
    def test_huge_count_exit_one(self, tmp_path, capsys, configs_dir, field):
        doc = json.loads((configs_dir / "smoke.json").read_text())
        *parents, key = field.split(".")
        obj = doc
        for parent in parents:
            obj = obj[parent]
        obj[key] = 10 ** 30
        assert main(["sweep-snr", "--config", str(write_doc(tmp_path, doc)),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field}: {10 ** 30} exceeds the count ceiling "
            f"{MAX_COUNT}"]
        assert not (tmp_path / "o").exists()

    # the other counts, checked at parse time only: a count that parses
    # but is large can ask for gigabytes
    CEILING_CASES = {
        "trials": ("sweep-snr", {"trials": MAX_COUNT + 1}),
        "architectures[0].lo_depth": ("sweep-snr", {"architectures": [
            {"label": "a", "lo_depth": MAX_COUNT + 1, "apd_depth": 2}]}),
        "architectures[0].apd_depth": ("sweep-snr", {"architectures": [
            {"label": "a", "lo_depth": 2, "apd_depth": MAX_COUNT + 1}]}),
        "pc_chains": ("sweep-snr", {"pc_chains": MAX_COUNT + 1,
                                    "baselines": ["upa_pc"]}),
        "sweep.values[1]": ("sweep-chains", dict(CHAIN_SWEEP, sweep={
            "param": "n_chains", "values": [2, MAX_COUNT + 1]}))}

    @pytest.mark.parametrize("field", CEILING_CASES)
    def test_count_ceiling(self, field):
        command, top = self.CEILING_CASES[field]
        with pytest.raises(ConfigError, match=re.escape(
                f"{field}: {MAX_COUNT + 1} exceeds the count ceiling")):
            build_spec(smoke_doc(**top), command)


@pytest.fixture
def only_checks(monkeypatch):
    """Stand the given checks in for the default suite of ``run_all``, so
    that a test runs only the checks whose lines it reads.  The suite runs
    in full in the three tests that read all of it: the healthy build, the
    default checks before a config's, and the raising check."""
    def use(*stand_ins):
        monkeypatch.setattr(rydcomb.checks, "run_all",
                            lambda: [check() for check in stand_ins])
    return use


class TestValidateCommand:
    """Three tests run the whole suite: the healthy build (which also checks
    the six check names in run order), the default checks before a
    config's, and a raising check.  The others put in place of the suite,
    through ``only_checks``, only the checks whose lines they read: the
    default proportional-equivalence check for the ``--config`` tests, and
    the one check that sees each injected fault."""

    def test_healthy_build_passes(self, capsys):
        assert validate_command() == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out
        # the tests that run stand-ins rely on run_all running these six
        assert [l.split()[0] for l in out.splitlines()[:-1]] == [
            "phase-update-grid", "quantizer-exhaustive",
            "block-pseudoinverse", "proportional-equivalence",
            "channel-energy", "factored-reference"]

    def test_ignores_env_threads(self, monkeypatch, capsys, only_checks):
        # validate runs no trial blocks, so a bad SIM_THREADS is not its
        # error; the quantizer check alone stands in for the suite
        monkeypatch.setenv("SIM_THREADS", "abc")
        only_checks(rydcomb.checks.check_quantizer_exhaustive)
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.endswith("all checks passed\n")

    def test_broken_quantizer_detected(self, capsys, monkeypatch,
                                       only_checks):
        def broken(phase, bits):
            return 0.0
        monkeypatch.setattr(rydcomb.optimizer, "quantize_phase", broken)
        only_checks(rydcomb.checks.check_quantizer_exhaustive)
        assert validate_command() != 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if l.startswith("quantizer-exhaustive"))
        assert "FAIL" in line

    @staticmethod
    def factored_line(out):
        return next(l for l in out.splitlines()
                    if l.startswith("factored-reference"))

    def test_stacked_sample_unequal_to_its_block_detected(
            self, capsys, monkeypatch, only_checks):
        # one ulp on one stacked sample's W_opt, only in blocks of several
        # draws: no dense tolerance sees it, the one-draw blocks do
        stage = rydcomb.channel.block_references

        def off_by_one_ulp(*args):
            stacks = stage(*args)
            for w_opt, _ in stacks.values():
                if len(w_opt) > 1:
                    x = w_opt[1, 0, 0]
                    w_opt[1, 0, 0] = complex(np.nextafter(x.real, np.inf),
                                             x.imag)
            return stacks

        monkeypatch.setattr(rydcomb.channel, "block_references",
                            off_by_one_ulp)
        only_checks(rydcomb.checks.check_factored_reference)
        assert validate_command() != 0
        line = self.factored_line(capsys.readouterr().out)
        assert "FAIL" in line
        assert "unequal to their one-draw blocks: 3 of 30" in line

    def test_scaled_singular_values_detected(self, capsys, monkeypatch,
                                             only_checks):
        # Sigma off by 1e-6 relative, in every block alike: the one-draw
        # blocks agree, the dense SVD does not
        stage = rydcomb.channel.block_references

        def scaled(*args):
            return {geometry: (w_opt, sigma * (1 + 1e-6))
                    for geometry, (w_opt, sigma) in stage(*args).items()}

        monkeypatch.setattr(rydcomb.channel, "block_references", scaled)
        only_checks(rydcomb.checks.check_factored_reference)
        assert validate_command() != 0
        line = self.factored_line(capsys.readouterr().out)
        assert "FAIL" in line
        assert "unequal to their one-draw blocks: 0 of 30" in line
        deviation = float(line.split("dense SVD: ")[1].split(",")[0])
        assert 5e-7 < deviation < 2e-6

    def test_depth_sweep_config_checks(self, capsys, configs_dir,
                                       only_checks):
        # a sweep-depth config: one equivalence check per lo_depth value
        # and architecture entry, after the default equivalence check
        only_checks(rydcomb.checks.check_proportional_equivalence)
        assert main(["validate", "--config", str(
            configs_dir.parent / "tests/configs/depth.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = lines[1:-1]  # after the default check
        assert [l.split()[1] for l in checks] == [
            "PASS", "SKIP", "PASS", "SKIP", "PASS", "PASS"]
        assert all(l.startswith("proportional-equivalence") for l in checks)
        assert lines[-1] == "all checks passed"

    def test_cell_path_checked(self, capsys, monkeypatch, only_checks):
        # cell means off by 1e-8 relative wherever a cell holds 2 or more
        # rows: only the kernel's own alternating pass sees it
        means = rydcomb.optimizer._cell_means

        def scaled(target, classes):
            cells, spread = means(target, classes)
            if any(g >= 2 for g, *_ in classes):
                cells = cells * (1 + 1e-8)
            return cells, spread

        monkeypatch.setattr(rydcomb.optimizer, "_cell_means", scaled)
        only_checks(rydcomb.checks.check_phase_update_grid)
        assert validate_command() == 1
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("phase-update-grid"))
        assert "FAIL" in line
        deviation = float(line.split("|W_BB - pinv| = ")[1].split(",")[0])
        assert 5e-9 < deviation < 1e-7

    def test_convergence_config_without_snr_points(self, tmp_path, capsys,
                                                    configs_dir, only_checks):
        # convergence runs it at snr_db 0; sweep-snr needs the points, so
        # validate parses it as convergence
        doc = json.loads((configs_dir / "convergence.json").read_text())
        del doc["snr_db"]
        path = write_doc(tmp_path, doc)
        assert main(["convergence", "--config", str(path), "--trials", "2",
                     "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        only_checks(rydcomb.checks.check_proportional_equivalence)
        assert main(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[:2] for l in lines[1:-1]] == [
            ["proportional-equivalence", "SKIP"]] * 4
        assert lines[-1] == "all checks passed"

    def test_config_with_one_chain_checks(self, tmp_path, capsys,
                                          only_checks):
        # one block of lo_depth 2 and apd_depth 2 has one chain, so its
        # check combines one stream, as a run of it does
        doc = smoke_doc(n_blocks=1, n_streams=1, architectures=[
            {"lo_depth": 2, "apd_depth": 2}])
        path = write_doc(tmp_path, doc)
        assert main(["sweep-snr", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 0
        capsys.readouterr()
        only_checks(rydcomb.checks.check_proportional_equivalence)
        assert main(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[:2] for l in lines[1:-1]] == [
            ["proportional-equivalence", "PASS"]]

    def test_checks_draw_on_the_units_geometry(self, tmp_path, capsys,
                                               monkeypatch, only_checks):
        # block_spacing 0.7 and intra_spacing 0.1: each architecture's
        # check draws its channel on its own unit's geometry, and the
        # default check on the default 36x6 array
        drawn = []
        generate = rydcomb.checks.generate_channel

        def recording(params, geometry, rng):
            drawn.append(geometry)
            return generate(params, geometry, rng)

        monkeypatch.setattr(rydcomb.checks, "generate_channel", recording)
        only_checks(rydcomb.checks.check_proportional_equivalence)
        doc = smoke_doc(channel={"n_tx": 16, "n_clusters": 2, "n_rays": 3,
                                 "block_spacing": 0.7, "intra_spacing": 0.1},
                        architectures=[{"lo_depth": 2, "apd_depth": 2},
                                       {"lo_depth": 4, "apd_depth": 2}])
        assert main(["validate", "--config",
                     str(write_doc(tmp_path, doc))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[:2] for l in lines[1:-1]] == [
            ["proportional-equivalence", "PASS"]] * 2
        assert drawn[0] == ArrayGeometry(36, 6)
        assert drawn[-2:] == [ArrayGeometry(4, lo, 0.7, 0.1) for lo in (2, 4)]

    def test_non_proportional_config_skips(self, capsys, configs_dir,
                                           only_checks):
        only_checks(rydcomb.checks.check_proportional_equivalence)
        assert validate_command(configs_dir / "fig8.json") == 0
        out = capsys.readouterr().out
        assert "SKIP" in out
        assert "not proportional" in out

    def test_sweep_config_uses_its_command(self, capsys, configs_dir,
                                           only_checks):
        # fig10 sweeps n_chains with PC baselines, so it must be parsed as
        # sweep-chains; one equivalence line per swept architecture
        only_checks(rydcomb.checks.check_proportional_equivalence)
        assert main(["validate", "--config",
                     str(configs_dir / "fig10.json")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("proportional-equivalence")]
        assert len(lines) == 1 + 9
        # the default check, then proportional only at 36 and 72 chains
        # (apd_depth 4 and 2 | 4)
        assert sum("PASS" in l for l in lines) == 1 + 2
        assert sum("SKIP" in l for l in lines) == 7

    def test_config_keeps_the_default_checks(self, capsys, configs_dir):
        # fig10's first architecture is not proportional; the default
        # 36/6/3 equivalence check must still run and pass
        assert main(["validate"]) == 0
        default = capsys.readouterr().out.splitlines()[:-1]
        assert main(["validate", "--config",
                     str(configs_dir / "fig10.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:len(default)] == default
        assert any(l.startswith("proportional-equivalence") and "PASS" in l
                   for l in default)

    def test_raising_check_reported_as_fail(self, capsys, monkeypatch):
        def explode(t):
            raise RuntimeError("synthetic breakdown")
        monkeypatch.setattr(rydcomb.optimizer, "_trace_phase", explode)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if l.startswith("phase-update-grid"))
        assert "FAIL" in line and "RuntimeError" in line
        # the oracle and the solver both take the phase of a block trace
        # through _trace_phase, so the solver check fails with its oracle
        # and the other four still pass
        line = next(l for l in out.splitlines()
                    if l.startswith("proportional-equivalence"))
        assert "FAIL" in line and "RuntimeError" in line
        assert out.count("PASS") == 4
