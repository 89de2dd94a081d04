"""Command-line interface: argument handling, file outputs, formatting rules,
and worker-count invariance."""

import csv
import io
import json
import os

import pytest

from levynet import cli
from levynet.reporting import ExperimentReport


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


SMALL = {"widths": [50], "models": ["deterministic"]}


def _run(tmp_path, sub, *extra, config=None):
    out = tmp_path / f"out_{len(os.listdir(tmp_path))}"
    argv = [sub, "--seed", "3", "--replicates", "40", "--out", str(out)]
    if config is not None:
        cfg_file = out.parent / f"cfg_{out.name}.json"
        cfg_file.write_text(json.dumps(config))
        argv += ["--config", str(cfg_file)]
    argv += list(extra)
    code = cli.main(argv)
    return code, out


def test_csv_outputs_and_manifest(tmp_path):
    code, out = _run(tmp_path, "output_corr", config=SMALL)
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "output_corr_checks.csv",
                     "output_corr_correlation.csv",
                     "output_corr_estimates.csv"]
    text = _read(out / "output_corr_correlation.csv")
    lines = text.strip().split("\n")
    assert lines[0] == "model,width,sq_output_corr"
    assert len(lines) == 2 and lines[1].startswith("deterministic,50,")
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["command"] == "output_corr"
    assert manifest["master_seed"] == 3
    assert manifest["replicates"] == 40
    assert manifest["format"] == "csv"
    assert manifest["config"] == {"widths": [50], "models": ["deterministic"]}
    assert sorted(manifest["files"]) == [n for n in names
                                         if n != "manifest.json"]
    assert manifest["version"]
    # no stray temporary files
    assert not [n for n in names if n.endswith(".tmp")]


def test_json_format(tmp_path):
    code, out = _run(tmp_path, "output_corr", "--format", "json",
                     config=SMALL)
    assert code == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "output_corr.json"]
    rep = json.loads(_read(out / "output_corr.json"))
    assert rep["name"] == "output_corr" and rep["master_seed"] == 3
    assert "correlation" in rep["tables"]


def test_worker_invariance_byte_identical(tmp_path):
    _, out1 = _run(tmp_path, "output_corr", "--workers", "1", config=SMALL)
    _, out8 = _run(tmp_path, "output_corr", "--workers", "8", config=SMALL)
    for name in os.listdir(out1):
        assert _read(out1 / name) == _read(out8 / name)


@pytest.mark.parametrize("command, config", [
    ("output_dist", {"width": 100, "models": ["beta", "horseshoe"]}),
    ("output_corr", {"widths": [50, 100], "models": ["beta"]}),
])
def test_multi_chunk_worker_invariance(tmp_path, command, config):
    # 1200 replicates are three chunks, each keyed by its own stream
    _, out1 = _run(tmp_path, command, "--workers", "1",
                   "--replicates", "1200", config=config)
    _, out3 = _run(tmp_path, command, "--workers", "3",
                   "--replicates", "1200", config=config)
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out3))
    for name in os.listdir(out1):
        with open(out1 / name, "rb") as f1, open(out3 / name, "rb") as f3:
            assert f1.read() == f3.read()


@pytest.mark.parametrize("command, replicates, config", [
    ("compressibility", 40, {"widths": [100, 400],
                             "models": ["beta", "generalized_bfry"]}),
    ("max_weight", 1200, {"widths": [50, 200],
                          "models": ["beta", "generalized_bfry"]}),
    ("output_dist", 1200, {"width": 100,
                           "models": ["generalized_bfry", "inverse_gamma"]}),
    ("output_corr", 1200, {"widths": [50, 100],
                           "models": ["deterministic", "horseshoe"]}),
    ("verify", 200, None),
])
def test_cell_fanout_worker_invariance(tmp_path, command, replicates, config):
    # the experiment's (model, width) cells or replicate chunks run on 1 or
    # 3 threads; every output file must come out the same
    _, out1 = _run(tmp_path, command, "--workers", "1",
                   "--replicates", str(replicates), config=config)
    _, out3 = _run(tmp_path, command, "--workers", "3",
                   "--replicates", str(replicates), config=config)
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out3))
    for name in os.listdir(out1):
        with open(out1 / name, "rb") as f1, open(out3 / name, "rb") as f3:
            assert f1.read() == f3.read(), name


def test_kernel_realizations_worker_invariance_at_large_beta(tmp_path):
    # beta(1000, 500) layers: about 16 000 atoms per draw and lazily cached
    # atom floors and inverse tails, which the draws share
    config = {"betas": [1000.0], "n_rho": 5}
    _, out1 = _run(tmp_path, "kernel_realizations", "--workers", "1",
                   "--replicates", "6", config=config)
    _, out2 = _run(tmp_path, "kernel_realizations", "--workers", "2",
                   "--replicates", "6", config=config)
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
    for name in os.listdir(out1):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read()


def test_config_file_values_and_flag_override(tmp_path):
    out = tmp_path / "cfgrun"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 11, "replicates": 30,
                                    "widths": [50],
                                    "models": ["deterministic"]}))
    assert cli.main(["output_corr", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["master_seed"] == 11 and manifest["replicates"] == 30
    # flags override config values
    out2 = tmp_path / "cfgrun2"
    assert cli.main(["output_corr", "--config", str(cfg_file),
                     "--seed", "12", "--out", str(out2)]) == 0
    assert json.loads(_read(out2 / "manifest.json"))["master_seed"] == 12


def test_flags_win_over_config_for_workers_out_and_format(tmp_path,
                                                        monkeypatch):
    workers = []
    run = cli.run_experiment

    def spy(*args, worker_count=1):
        workers.append(worker_count)
        return run(*args, worker_count=worker_count)

    monkeypatch.setattr(cli, "run_experiment", spy)
    cfg_out, flag_out = tmp_path / "from_config", tmp_path / "from_flag"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 11, "replicates": 30,
                                    "widths": [50],
                                    "models": ["deterministic"],
                                    "format": "json", "out": str(cfg_out),
                                    "workers": 2}))
    # without flags the config values apply
    assert cli.main(["output_corr", "--config", str(cfg_file)]) == 0
    assert sorted(os.listdir(cfg_out)) == ["manifest.json", "output_corr.json"]
    # explicit flags win over them
    assert cli.main(["output_corr", "--config", str(cfg_file),
                     "--format", "csv", "--out", str(flag_out),
                     "--workers", "1"]) == 0
    manifest = json.loads(_read(flag_out / "manifest.json"))
    assert manifest["format"] == "csv"
    assert all(f.endswith(".csv") for f in manifest["files"])
    assert sorted(os.listdir(cfg_out)) == ["manifest.json", "output_corr.json"]
    assert workers == [2, 1]


def test_config_format_is_checked_like_the_flag(tmp_path, capsys):
    for argv, config in ((["--format", "xml"], None),
                         ([], {"format": "xml", **SMALL})):
        with pytest.raises(SystemExit) as err:
            _run(tmp_path, "output_corr", *argv, config=config)
        assert err.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
    # nothing was run or written
    assert not any(name.startswith("out_") for name in os.listdir(tmp_path))


def test_config_integers_are_checked_like_the_flags(tmp_path, capsys):
    # a config value that is not a JSON integer is refused, not truncated
    out = tmp_path / "out"
    for key, value in (("seed", 0.9), ("replicates", 200.7),
                       ("workers", "2"), ("seed", True)):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 0, key: value}))
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--config", str(cfg_file), "--out", str(out)])
        assert err.value.code == 2
        assert (f"argument --{key}: invalid int value: {value!r}"
                in capsys.readouterr().err)
    # nothing was run or written
    assert not out.exists()


def test_missing_seed_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--out", str(tmp_path / "x")])


def test_default_replicates_applied(tmp_path):
    out = tmp_path / "defaults"
    assert cli.main(["kernel_realizations", "--seed", "1", "--out", str(out),
                     "--config", str(_write_cfg(tmp_path,
                                                {"betas": [10.0],
                                                 "n_rho": 3}))]) == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["replicates"] == cli.DEFAULT_REPLICATES[
        "kernel_realizations"]


def _write_cfg(tmp_path, cfg):
    path = tmp_path / "kcfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cell_formatting_rules():
    assert cli._format_cell(0.5) == "0.5"
    assert cli._format_cell(0.0) == "0"
    # magnitudes below 1e-4 switch to scientific notation
    small = cli._format_cell(1.2345e-7)
    assert "e-07" in small and float(small) == 1.2345e-7
    big = cli._format_cell(123456.75)
    assert float(big) == 123456.75
    assert cli._format_cell(float("nan")) == "nan"
    assert cli._format_cell(None) == ""
    assert cli._format_cell(True) == "true"
    assert cli._format_cell("beta") == "beta"
    # round-trip precision for a double
    v = 0.1 + 0.2
    assert float(cli._format_cell(v)) == v


def test_csv_quotes_cells_containing_commas():
    text = cli._csv_text(["label", "value"],
                         [["inverse_tail_roundtrip/stable(0.5,1)", 0.5],
                          ['say "hi"', 1.0], ["plain", None]])
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["label", "value"],
                    ["inverse_tail_roundtrip/stable(0.5,1)", "0.5"],
                    ['say "hi"', "1"], ["plain", ""]]
    # cells without a comma or quote are written as before
    assert text.splitlines()[3] == "plain,"


def test_verify_exit_code_on_failed_check(tmp_path, monkeypatch):
    rep = ExperimentReport("verify", config={})
    rep.add_check("forced_failure", 1.0, 0.0, 0.1)
    rep.master_seed = 1
    rep.replicate_count = 1

    monkeypatch.setattr(cli, "run_experiment",
                        lambda *a, **k: rep)
    assert cli.main(["verify", "--seed", "1",
                     "--out", str(tmp_path / "v")]) == 1
    # the same failing report under a non-verify command still exits 0
    rep2 = ExperimentReport("output_corr", config={})
    rep2.add_check("forced_failure", 1.0, 0.0, 0.1)
    rep2.master_seed = 1
    rep2.replicate_count = 1
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: rep2)
    assert cli.main(["output_corr", "--seed", "1",
                     "--out", str(tmp_path / "v2")]) == 0


def test_verify_passes_end_to_end(tmp_path, capsys):
    out = tmp_path / "verify"
    assert cli.main(["verify", "--seed", "2", "--replicates", "200",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[pass]" in printed and "[FAIL]" not in printed
    checks = _read(out / "verify_checks.csv").strip().split("\n")
    assert checks[0] == "label,value,target,tolerance,status"
    assert all(line.endswith(",pass") for line in checks[1:])
    rows = list(csv.reader(io.StringIO(_read(out / "verify_checks.csv"))))
    assert all(len(r) == 5 for r in rows)
    assert "inverse_tail_roundtrip/stable(0.5,1)" in [r[0] for r in rows]
