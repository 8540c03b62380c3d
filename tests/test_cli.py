import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgcrn import model as M
from dgcrn import serialize as S
from dgcrn import training as TR
from dgcrn.cli import _THREAD_VARS, _setup_threads, main
from dgcrn.commands import _load_series
from dgcrn.config import AppConfig
from dgcrn.data import NormStats, SpeedSeries
from dgcrn.graphs import StaticGraph

from csvfiles import load_report_csv, load_training_log, write_speed_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny generated dataset and config shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    gen_cfg = root / "gen.yaml"
    gen_cfg.write_text("data:\n  n_nodes: 6\n  n_days: 3\n", encoding="utf-8")
    rc = main(["gen-data", "--config", str(gen_cfg), "--seed", "3",
               "--out", str(data_dir)])
    assert rc == 0
    train_cfg = root / "train.yaml"
    train_cfg.write_text(
        """
model:
  hidden: 4
  emb_dim: 3
  hyper_dim: 3
  hops: 1
  hyper_hops: 1
  input_len: 4
  output_len: 2
train:
  batch_size: 32
  max_epochs: 1
  step_size: 10
data:
  speeds: %s
  distances: %s
  split: ratio
  train: 0.5
  val: 0.25
  test: 0.25
eval:
  horizons: [1, 2]
"""
        % (data_dir / "speeds.bin", data_dir / "distances.csv"),
        encoding="utf-8",
    )
    return {"root": root, "data": data_dir, "cfg": str(train_cfg)}


def _train(workdir, out, *extra):
    return main(["train", "--config", workdir["cfg"], "--seed", "1",
                 "--out", str(out), "--quiet", *extra])


def _weights(path):
    params, _, _ = S.load_checkpoint(path)
    return M.named_parameters(params)


def _log_sans_seconds(path):
    return [r[:5] + r[6:] for r in load_training_log(path)]


def test_setup_threads_defaults_and_respects_existing(monkeypatch):
    for var in ("DGCRN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    assert _setup_threads() is None
    assert os.environ["OMP_NUM_THREADS"] == "7"  # explicit caps win
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("DGCRN_THREADS", "0")
    assert "positive integer" in _setup_threads()
    monkeypatch.setenv("DGCRN_THREADS", "abc")
    assert "positive integer" in _setup_threads()


def test_numpy_loads_only_after_thread_caps():
    # main sets the BLAS caps from DGCRN_THREADS, so importing the CLI must
    # not load numpy (nor yaml, which the config loader brings in)
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, dgcrn.cli; print(sorted({'numpy', 'yaml'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.strip() == "[]", done
    env["DGCRN_THREADS"] = "2"
    done = subprocess.run([sys.executable, "-m", "dgcrn.cli", "gradcheck"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_help_lists_config_keys(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for key in ("model.hidden", "train.learning_rate", "data.split",
                "eval.horizons", "w/o-dg"):
        assert key in out


def test_subcommand_help_lists_config_keys(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "model.hidden" in out
    assert "train.learning_rate" in out


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_gen_data_outputs_and_manifest(workdir):
    d = workdir["data"]
    assert (d / "speeds.bin").exists()
    assert (d / "distances.csv").exists()
    doc = json.loads((d / "gen-data.manifest.json").read_text())
    assert doc["command"] == "gen-data"
    assert doc["seed"] == 3
    assert doc["config"]["data"]["n_nodes"] == 6
    assert sorted(doc["outputs"]) == ["distances.csv", "speeds.bin"]
    assert doc["started"] <= doc["finished"]
    assert doc["version"]
    series = S.load_speed_bin(str(d / "speeds.bin"))
    assert series.n_nodes == 6
    assert series.n_steps == 3 * 288


def test_gen_data_deterministic(workdir, tmp_path):
    cfg = str(workdir["root"] / "gen.yaml")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", cfg, "--seed", "5", "--out", str(a)]) == 0
    assert main(["gen-data", "--config", cfg, "--seed", "5", "--out", str(b)]) == 0
    assert (a / "speeds.bin").read_bytes() == (b / "speeds.bin").read_bytes()
    assert (a / "distances.csv").read_bytes() == (b / "distances.csv").read_bytes()


def test_build_graph(workdir, tmp_path, capsys):
    src = str(workdir["data"] / "distances.csv")
    rc = main(["build-graph", src, "--out", str(tmp_path)])
    assert rc == 0
    assert "directed edges" in capsys.readouterr().out
    graph = S.load_graph_bin(str(tmp_path / "graph.bin"))
    assert graph.n_nodes == 6
    assert (tmp_path / "build-graph.manifest.json").exists()


def test_build_graph_missing_file(tmp_path, capsys):
    rc = main(["build-graph", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_build_graph_no_source(tmp_path, capsys):
    assert main(["build-graph", "--out", str(tmp_path)]) == 1
    assert "distance" in capsys.readouterr().err


def test_cached_graph_of_another_kappa_is_one_error_line(workdir, tmp_path, capsys):
    built = tmp_path / "built.yaml"
    built.write_text("data:\n  kappa: 0.5\n", encoding="utf-8")
    assert main(["build-graph", str(workdir["data"] / "distances.csv"),
                 "--config", str(built), "--out", str(tmp_path / "g")]) == 0
    graph = tmp_path / "g" / "graph.bin"
    capsys.readouterr()

    def analyze(kappa):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("data:\n  speeds: %s\n  distances: %s\n  kappa: %r\n"
                       % (workdir["data"] / "speeds.bin", graph, kappa), encoding="utf-8")
        return main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "an")])

    assert analyze(0.1) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: %s: graph was built with kappa 0.5 but data.kappa is 0.1" % graph]
    assert analyze(0.5) == 0
    # a graph file that records no kappa loads whatever data.kappa says
    S.save_graph_bin(graph, S.load_graph_bin(graph))
    assert analyze(0.1) == 0


def test_train_writes_artifacts(workdir, tmp_path):
    out = tmp_path / "run"
    assert _train(workdir, out) == 0
    assert (out / "checkpoint.ckpt").exists()
    rows = load_training_log(str(out / "training_log.csv"))
    assert len(rows) == 1
    doc = json.loads((out / "train.manifest.json").read_text())
    assert doc["command"] == "train"
    assert doc["seed"] == 1
    params, stats, extra = S.load_checkpoint(str(out / "checkpoint.ckpt"))
    assert params.hp.hidden == 4
    assert extra["ablation"] == ""
    assert extra["epochs"] == 1
    assert stats.std > 0


def test_train_deterministic_modulo_clock(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(workdir, a) == 0
    assert _train(workdir, b) == 0
    assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
    assert _log_sans_seconds(str(a / "training_log.csv")) == \
        _log_sans_seconds(str(b / "training_log.csv"))


def test_ablation_flag_equals_config_switch(workdir, tmp_path):
    flagged = tmp_path / "flagged"
    assert _train(workdir, flagged, "--ablation", "w/o-dg") == 0
    spelled_cfg = tmp_path / "spelled.yaml"
    base = Path(workdir["cfg"]).read_text(encoding="utf-8")
    spelled_cfg.write_text(base.replace("model:\n", "model:\n  beta_mix: 0.0\n"),
                           encoding="utf-8")
    spelled = tmp_path / "spelled"
    assert main(["train", "--config", str(spelled_cfg), "--seed", "1",
                 "--out", str(spelled), "--quiet"]) == 0
    left = _weights(str(flagged / "checkpoint.ckpt"))
    right = _weights(str(spelled / "checkpoint.ckpt"))
    assert [n for n, _ in left] == [n for n, _ in right]
    for (_, t1), (_, t2) in zip(left, right):
        assert np.array_equal(t1.data, t2.data)
    assert _log_sans_seconds(str(flagged / "training_log.csv")) == \
        _log_sans_seconds(str(spelled / "training_log.csv"))


def test_unknown_ablation_lists_names(workdir, tmp_path, capsys):
    rc = _train(workdir, tmp_path, "--ablation", "w/o-everything")
    assert rc == 1
    assert "w/o-dg" in capsys.readouterr().err


def test_train_precision_64(workdir, tmp_path):
    out = tmp_path / "r64"
    assert _train(workdir, out, "--precision", "64") == 0
    params, _, _ = S.load_checkpoint(str(out / "checkpoint.ckpt"))
    assert params.readout[0].data.dtype == np.float64


def test_bad_config_key(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model:\n  hiden: 4\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "hiden" in capsys.readouterr().err


def test_eval_roundtrip(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(workdir, run) == 0
    out = tmp_path / "ev"
    rc = main(["eval", str(run / "checkpoint.ckpt"), "--config", workdir["cfg"],
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "model" in text and "horizon" in text
    assert "overall" in text
    rows = load_report_csv(str(out / "report.csv"))
    assert [r[1] for r in rows] == [1, 2]
    assert all(r[0] == "DGCRN" for r in rows)
    assert (out / "eval.manifest.json").exists()

    only1 = tmp_path / "ev1"
    rc = main(["eval", str(run / "checkpoint.ckpt"), "--config", workdir["cfg"],
               "--out", str(only1), "--horizons", "1"])
    assert rc == 0
    capsys.readouterr()
    assert [r[1] for r in load_report_csv(str(only1 / "report.csv"))] == [1]


def test_eval_names_model_after_ablation(workdir, tmp_path, capsys):
    run = tmp_path / "ab"
    assert _train(workdir, run, "--ablation", "w/o-cl") == 0
    rc = main(["eval", str(run / "checkpoint.ckpt"), "--config", workdir["cfg"],
               "--out", str(tmp_path / "ev")])
    assert rc == 0
    capsys.readouterr()
    rows = load_report_csv(str(tmp_path / "ev" / "report.csv"))
    assert all(r[0] == "w/o-cl" for r in rows)


def test_eval_bad_horizons(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(workdir, run) == 0
    ckpt = str(run / "checkpoint.ckpt")
    assert main(["eval", ckpt, "--config", workdir["cfg"],
                 "--out", str(tmp_path), "--horizons", "99"]) == 1
    assert "horizon" in capsys.readouterr().err
    assert main(["eval", ckpt, "--config", workdir["cfg"],
                 "--out", str(tmp_path), "--horizons", "a,b"]) == 1


def test_eval_missing_checkpoint(workdir, tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "nope.ckpt"), "--config", workdir["cfg"],
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, match", [
    ("hp.hidden", "4", r"hp\.hidden must be an integer"),
    ("hp.hops", 2.0, r"hp\.hops must be an integer"),
    ("hp.share_embeddings", 1, r"hp\.share_embeddings must be true or false"),
    ("dtype", "int8", "dtype must be float32 or float64"),
    ("dtype", "float16", "dtype must be float32 or float64"),
    ("n_nodes", 6.7, "n_nodes must be an integer"),
    ("norm_std", float("nan"), "std > 0"),
    ("extra", [], "extra must be a mapping"),
    # read fine, then rejected by init_model's checks
    ("hp.alpha_sat", float("nan"), "alpha_sat must be positive"),
    ("n_nodes", 1, "at least 2 nodes"),
], ids=["hidden-str", "hops-float", "share-int", "dtype-int8", "dtype-float16",
        "n_nodes-float", "std-nan", "extra-list", "alpha_sat-nan", "n_nodes-1"])
def test_eval_rejects_forged_checkpoint(workdir, tmp_path, capsys, key, value, match):
    # a checkpoint eval would score, with one metadata value forged
    hp = M.HyperParams(hidden=4, emb_dim=3, hyper_dim=3, hops=1, hyper_hops=1,
                       input_len=4, output_len=2)
    ckpt = tmp_path / "forged.ckpt"
    S.save_checkpoint(ckpt, M.init_model(hp, 6, seed=0), NormStats(50.0, 10.0))
    records = S.read_container(ckpt, S.MAGIC_CHECKPOINT)
    meta = json.loads(records[0][1])
    section = meta["hp"] if key.startswith("hp.") else meta
    section[key.split(".")[-1]] = value
    records[0] = (records[0][0], json.dumps(meta).encode("utf-8"))
    S.write_container(ckpt, S.MAGIC_CHECKPOINT, records)
    rc = main(["eval", str(ckpt), "--config", workdir["cfg"], "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: %s: " % ckpt), err
    assert re.search(match, lines[0]), err


def _forge_record_name(path):
    ckpt = path / "forged.ckpt"
    hp = M.HyperParams(hidden=4, emb_dim=3, hyper_dim=3, hops=1, hyper_hops=1,
                       input_len=4, output_len=2)
    S.save_checkpoint(ckpt, M.init_model(hp, 6, seed=0), NormStats(50.0, 10.0))
    whole = ckpt.read_bytes()
    at = whole.index(b"__meta__")
    ckpt.write_bytes(whole[:at - 2] + struct.pack("<H", 2) + b"\xff\xfe" + whole[at + 8:])
    return ckpt


def _forge_speeds(path):
    v = np.full((600, 6), 50.0)
    v[5, 1] = np.inf
    S.save_speed_bin(path / "speeds.bin", SpeedSeries(v, 300, 0))
    return path / "speeds.bin"


def _forge_graph(path):
    a = np.eye(6)
    a[0, 1] = np.nan
    S.save_graph_bin(path / "graph.bin", StaticGraph(a))
    return path / "graph.bin"


def _forge_graph_record(adjacency):
    def forge(path):
        meta = json.dumps({"format": 1, "n_nodes": len(adjacency)}).encode("utf-8")
        S.write_container(path / "graph.bin", S.MAGIC_GRAPH,
                          [("__meta__", meta), ("adjacency", adjacency)])
        return path / "graph.bin"
    return forge


def _forge_speed_header(n_nodes, dt):
    def forge(path):
        header = struct.pack("<IIIq", n_nodes, 5, dt, 0)
        values = np.full((5, n_nodes), 50.0, dtype="<f4").tobytes()
        (path / "speeds.bin").write_bytes(S.MAGIC_SPEED + header + values)
        return path / "speeds.bin"
    return forge


@pytest.mark.parametrize("forge, key, match", [
    (_forge_record_name, None, "is not UTF-8"),
    (_forge_speeds, "speeds", "speed must be finite"),
    (_forge_graph, "distances", "must be finite and >= 0"),
    (_forge_graph_record(np.zeros((6, 6))), "distances", "row 0 has non-positive sum"),
    (_forge_graph_record(np.ones((2, 3))), "distances", r"must be square; got shape \(2, 3\)"),
    (_forge_speed_header(0, 300), "speeds", r"T,N >= 1; got \(5, 0\)"),
    (_forge_speed_header(6, 0), "speeds", "dt_seconds must be positive; got 0"),
], ids=["ckpt-record-name", "speeds-bin-inf", "graph-bin-nan", "graph-bin-zero-row",
        "graph-bin-not-square", "speeds-bin-no-nodes", "speeds-bin-zero-dt"])
def test_forged_binary_is_one_error_line(workdir, tmp_path, capsys, forge, key, match):
    forged = forge(tmp_path)
    if key is None:
        argv = ["eval", str(forged), "--config", workdir["cfg"]]
    else:
        cfg = tmp_path / "run.yaml"
        files = {"speeds": workdir["data"] / "speeds.bin",
                 "distances": workdir["data"] / "distances.csv", key: forged}
        cfg.write_text("data:\n  speeds: %(speeds)s\n  distances: %(distances)s\n" % files,
                       encoding="utf-8")
        argv = ["analyze", "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: %s: " % forged), err
    assert re.search(match, err[0]), err


def test_load_series_zero_as_missing(tmp_path):
    # the 0.0-as-missing sentinel applies alike to both speed file kinds
    series = SpeedSeries(np.array([[0.0, 4.0], [5.0, 6.0]]), 300, 0)
    write_speed_csv(series, tmp_path / "speeds.csv")
    S.save_speed_bin(tmp_path / "speeds.bin", series)
    cfg = AppConfig()
    for name in ("speeds.csv", "speeds.bin"):
        cfg.data.speeds = str(tmp_path / name)
        cfg.data.zero_as_missing = False
        assert np.array_equal(_load_series(cfg).values, series.values), name
        cfg.data.zero_as_missing = True
        masked = _load_series(cfg).values
        assert np.isnan(masked[0, 0]), name
        assert np.array_equal(masked.ravel()[1:], [4.0, 5.0, 6.0]), name


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "7"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


def test_bench_reports_three_models(workdir, tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--config", workdir["cfg"], "--seed", "1",
               "--out", str(out), "--quiet"])
    assert rc == 0
    assert "persistence" in capsys.readouterr().out
    rows = load_report_csv(str(out / "report.csv"))
    assert {r[0] for r in rows} == {"DGCRN", "HA", "persistence"}
    assert (out / "bench.manifest.json").exists()
    assert (out / "checkpoint.ckpt").exists()
    assert (out / "training_log.csv").exists()


def test_bench_trains_like_train(workdir, tmp_path):
    trained, benched = tmp_path / "train", tmp_path / "bench"
    assert _train(workdir, trained) == 0
    assert main(["bench", "--config", workdir["cfg"], "--seed", "1",
                 "--out", str(benched), "--quiet"]) == 0
    assert (trained / "checkpoint.ckpt").read_bytes() == \
        (benched / "checkpoint.ckpt").read_bytes()
    assert _log_sans_seconds(str(trained / "training_log.csv")) == \
        _log_sans_seconds(str(benched / "training_log.csv"))


def test_bench_rejects_bad_horizons_before_training(workdir, tmp_path, monkeypatch, capsys):
    def no_fit(*args, **kwargs):
        raise AssertionError("bench trained before checking --horizons")

    monkeypatch.setattr(TR, "fit", no_fit)
    out = tmp_path / "bench"
    assert main(["bench", "--config", workdir["cfg"], "--seed", "1",
                 "--out", str(out), "--quiet", "--horizons", "99"]) == 1
    assert "horizon 99 outside 1..2" in capsys.readouterr().err
    assert not (out / "checkpoint.ckpt").exists()


def test_bench_rejects_weekless_clock_before_training(workdir, tmp_path, monkeypatch, capsys):
    # the weekly baseline needs a clock that divides a week; 13 s does not
    def no_fit(*args, **kwargs):
        raise AssertionError("bench trained before checking the clock")

    monkeypatch.setattr(TR, "fit", no_fit)
    values = np.random.default_rng(0).uniform(20.0, 70.0, (200, 6))
    speeds = tmp_path / "speeds.csv"
    write_speed_csv(SpeedSeries(values, 13, 0), speeds)
    cfg = tmp_path / "bench.yaml"
    cfg.write_text((workdir["root"] / "train.yaml").read_text(encoding="utf-8").replace(
        str(workdir["data"] / "speeds.bin"), str(speeds)), encoding="utf-8")
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--seed", "1",
                 "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: dt_seconds must divide a week; got 13"]
    assert not (out / "checkpoint.ckpt").exists()


def test_eval_of_bench_checkpoint_matches_bench_report(workdir, tmp_path, capsys):
    benched, evaluated = tmp_path / "bench", tmp_path / "ev"
    assert main(["bench", "--config", workdir["cfg"], "--seed", "1",
                 "--out", str(benched), "--quiet"]) == 0
    assert main(["eval", str(benched / "checkpoint.ckpt"), "--config", workdir["cfg"],
                 "--out", str(evaluated)]) == 0
    capsys.readouterr()
    bench_rows = [r for r in load_report_csv(str(benched / "report.csv"))
                  if r[0] == "DGCRN"]
    assert [r[1] for r in bench_rows] == [1, 2]
    assert load_report_csv(str(evaluated / "report.csv")) == bench_rows


def test_analyze(workdir, tmp_path, capsys):
    out = tmp_path / "an"
    rc = main(["analyze", "--config", workdir["cfg"], "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "speed histogram" in text
    assert "adjacent pairs" in text
    lines = (out / "analysis.csv").read_text().splitlines()
    assert lines[0] == "kind,bin_lo,bin_hi,count"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"speed", "correlation"}


def test_analyze_bad_speed_cell(tmp_path, capsys):
    speeds = tmp_path / "speeds.csv"
    speeds.write_text("timestamp,0,1\n2024-01-01T00:00:00,50.0,60.0\n"
                      "2024-01-01T00:05:00,n/a,61.0\n", encoding="utf-8")
    dists = tmp_path / "distances.csv"
    dists.write_text("from,to,distance\n0,1,1.0\n1,0,1.0\n", encoding="utf-8")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("data:\n  speeds: %s\n  distances: %s\n" % (speeds, dists),
                   encoding="utf-8")
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "an")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: %s:3: could not convert string to float: 'n/a'" % speeds]


@pytest.mark.parametrize("command", ["gen-data", "build-graph", "train", "eval",
                                     "bench", "analyze"])
def test_manifest_fields(workdir, tmp_path, capsys, command):
    speeds = str(workdir["data"] / "speeds.bin")
    dists = str(workdir["data"] / "distances.csv")
    ckpt = str(tmp_path / "run" / "checkpoint.ckpt")
    out = str(tmp_path / "out")
    cfg = ["--config", workdir["cfg"], "--out", out]
    argv, seed, inputs, outputs = {
        "gen-data": (["gen-data", "--config", str(workdir["root"] / "gen.yaml"),
                      "--seed", "3", "--out", out],
                     3, [], ["speeds.bin", "distances.csv"]),
        "build-graph": (["build-graph", dists, "--out", out],
                        None, [dists], ["graph.bin"]),
        "train": (["train", *cfg, "--seed", "1", "--quiet"],
                  1, [speeds, dists], ["checkpoint.ckpt", "training_log.csv"]),
        "eval": (["eval", ckpt, *cfg],
                 None, [ckpt, speeds, dists], ["report.csv"]),
        "bench": (["bench", *cfg, "--seed", "1", "--quiet"],
                  1, [speeds, dists], ["checkpoint.ckpt", "training_log.csv", "report.csv"]),
        "analyze": (["analyze", *cfg],
                    None, [speeds, dists], ["analysis.csv"]),
    }[command]
    if command == "eval":
        assert _train(workdir, tmp_path / "run") == 0
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "out" / (command + ".manifest.json")).read_text())
    assert sorted(doc) == ["command", "config", "finished", "inputs", "outputs",
                           "seed", "started", "version"]
    assert doc["command"] == command
    assert doc["seed"] == seed
    assert doc["inputs"] == inputs
    assert doc["outputs"] == outputs
    assert doc["started"] <= doc["finished"]
    for name in outputs:
        assert (tmp_path / "out" / name).exists()
