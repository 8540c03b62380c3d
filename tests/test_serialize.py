"""Binary container, checkpoint, speed tensor, and graph cache round trips."""
import json
import struct

import numpy as np
import pytest

from dgcrn import serialize as S
from dgcrn.data import NormStats, SpeedSeries
from dgcrn.errors import ConfigError
from dgcrn.graphs import StaticGraph, build_adjacency
from dgcrn.model import HyperParams, init_model, named_parameters


def _tiny_hp(**kw):
    base = dict(hidden=4, emb_dim=3, hyper_dim=2, hops=2, hyper_hops=1,
                input_len=2, output_len=2)
    base.update(kw)
    return HyperParams(**base)


# -- generic container -------------------------------------------------------------


def test_container_round_trip(tmp_path):
    path = tmp_path / "box.bin"
    records = [
        ("meta", json.dumps({"k": 1}).encode()),
        ("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
        ("b", np.linspace(0.0, 1.0, 4)),         # float64
        ("empty", np.zeros((0, 5), dtype=np.float32)),
    ]
    S.write_container(path, S.MAGIC_GRAPH, records)
    back = S.read_container(path, S.MAGIC_GRAPH)
    assert [name for name, _ in back] == ["meta", "a", "b", "empty"]
    assert back[0][1] == records[0][1]
    for i in (1, 2, 3):
        assert back[i][1].dtype == records[i][1].dtype
        assert np.array_equal(back[i][1], records[i][1])


def test_container_write_is_deterministic(tmp_path):
    records = [("x", np.ones((3, 3), dtype=np.float32))]
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    S.write_container(p1, S.MAGIC_GRAPH, records)
    S.write_container(p2, S.MAGIC_GRAPH, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "box.bin"
    S.write_container(path, S.MAGIC_GRAPH, [("x", np.zeros(2, dtype=np.float32))])
    with pytest.raises(ConfigError):
        S.read_container(path, S.MAGIC_CHECKPOINT)


def test_container_rejects_truncation_and_trailing(tmp_path):
    path = tmp_path / "box.bin"
    S.write_container(path, S.MAGIC_GRAPH, [("x", np.zeros((4, 4), dtype=np.float64))])
    whole = path.read_bytes()
    path.write_bytes(whole[:-3])
    with pytest.raises(ConfigError, match="truncated"):
        S.read_container(path, S.MAGIC_GRAPH)
    path.write_bytes(whole + b"\x00")
    with pytest.raises(ConfigError, match="trailing"):
        S.read_container(path, S.MAGIC_GRAPH)


def test_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ConfigError):
        S.write_container(tmp_path / "box.bin", S.MAGIC_GRAPH,
                          [("x", np.zeros(3, dtype=np.int32))])


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    hp = _tiny_hp()
    params = init_model(hp, n_nodes=5, seed=3)
    # move weights away from their init so the overwrite is visible
    rng = np.random.default_rng(0)
    for _, t in named_parameters(params):
        t.data = t.data + rng.standard_normal(t.data.shape).astype(t.data.dtype)
    stats = NormStats(mean=42.5, std=7.25)
    path = tmp_path / "model.ckpt"
    S.save_checkpoint(path, params, stats, extra={"epoch": 9})
    loaded, st2, extra = S.load_checkpoint(path)
    assert st2.mean == stats.mean and st2.std == stats.std
    assert extra == {"epoch": 9}
    assert loaded.hp == params.hp
    assert loaded.n_nodes == 5
    want = dict(named_parameters(params))
    got = dict(named_parameters(loaded))
    assert set(want) == set(got)
    for name in want:
        assert got[name].data.dtype == want[name].data.dtype
        assert np.array_equal(got[name].data, want[name].data), name


def test_checkpoint_round_trip_float64_and_ablations(tmp_path):
    for hp in (
        _tiny_hp(beta_mix=0.0),                    # no generator at all
        _tiny_hp(filter_mode="frozen"),
        _tiny_hp(hypernet="affine"),
        _tiny_hp(share_embeddings=True, readout_hidden=3),
    ):
        params = init_model(hp, n_nodes=4, seed=1, dtype=np.float64)
        path = tmp_path / "m.ckpt"
        S.save_checkpoint(path, params, NormStats(1.0, 2.0))
        loaded, _, _ = S.load_checkpoint(path)
        want = dict(named_parameters(params))
        got = dict(named_parameters(loaded))
        assert set(want) == set(got)
        for name in want:
            assert np.array_equal(got[name].data, want[name].data)
            assert got[name].data.dtype == np.float64


def test_checkpoint_save_is_deterministic(tmp_path):
    params = init_model(_tiny_hp(), n_nodes=4, seed=2)
    stats = NormStats(3.0, 4.0)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    S.save_checkpoint(p1, params, stats, extra={"epoch": 1})
    S.save_checkpoint(p2, params, stats, extra={"epoch": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_renamed_parameter(tmp_path):
    params = init_model(_tiny_hp(), n_nodes=4, seed=0)
    path = tmp_path / "m.ckpt"
    S.save_checkpoint(path, params, NormStats(0.0, 1.0))
    records = S.read_container(path, S.MAGIC_CHECKPOINT)
    name, arr = records[1]
    records[1] = (name + "_oops", arr)
    S.write_container(path, S.MAGIC_CHECKPOINT, records)
    with pytest.raises(ConfigError):
        S.load_checkpoint(path)


def test_checkpoint_rejects_missing_meta(tmp_path):
    path = tmp_path / "m.ckpt"
    S.write_container(path, S.MAGIC_CHECKPOINT, [("w", np.zeros(2, dtype=np.float32))])
    with pytest.raises(ConfigError, match="metadata"):
        S.load_checkpoint(path)


def test_checkpoint_rejects_shape_change(tmp_path):
    params = init_model(_tiny_hp(), n_nodes=4, seed=0)
    path = tmp_path / "m.ckpt"
    S.save_checkpoint(path, params, NormStats(0.0, 1.0))
    records = S.read_container(path, S.MAGIC_CHECKPOINT)
    name, arr = records[1]
    records[1] = (name, arr.reshape(1, *arr.shape))
    S.write_container(path, S.MAGIC_CHECKPOINT, records)
    with pytest.raises(ConfigError, match="shape"):
        S.load_checkpoint(path)


def test_checkpoint_rejects_invalid_hyperparameters(tmp_path):
    # init_model validates the stored architecture before any weight is read
    params = init_model(_tiny_hp(), n_nodes=4, seed=0)
    path = tmp_path / "m.ckpt"
    S.save_checkpoint(path, params, NormStats(0.0, 1.0))
    records = S.read_container(path, S.MAGIC_CHECKPOINT)
    meta = json.loads(records[0][1])
    meta["hp"]["alpha_sat"] = -1
    records[0] = (records[0][0], json.dumps(meta).encode("utf-8"))
    S.write_container(path, S.MAGIC_CHECKPOINT, records)
    with pytest.raises(ConfigError, match="alpha_sat"):
        S.load_checkpoint(path)


# -- speed tensor ------------------------------------------------------------------


def test_speed_bin_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    v = rng.uniform(10.0, 70.0, (50, 7)).astype(np.float32).astype(np.float64)
    v[3, 2] = np.nan
    series = SpeedSeries(v, dt_seconds=600, start_epoch=1700000000)
    path = tmp_path / "speeds.bin"
    S.save_speed_bin(path, series)
    back = S.load_speed_bin(path)
    assert back.dt_seconds == 600
    assert back.start_epoch == 1700000000
    assert np.isnan(back.values[3, 2])
    finite = np.isfinite(v)
    assert np.array_equal(back.values[finite], v[finite])


def test_speed_bin_rounds_to_float32(tmp_path):
    v = np.array([[1.0 + 1e-12, 2.0]])
    path = tmp_path / "speeds.bin"
    S.save_speed_bin(path, SpeedSeries(v, 300, 0))
    back = S.load_speed_bin(path)
    assert back.values[0, 0] == float(np.float32(1.0 + 1e-12))


def test_speed_bin_rejects_corruption(tmp_path):
    path = tmp_path / "speeds.bin"
    S.save_speed_bin(path, SpeedSeries(np.ones((4, 2)), 300, 0))
    whole = path.read_bytes()
    path.write_bytes(whole[:-2])
    with pytest.raises(ConfigError, match="truncated"):
        S.load_speed_bin(path)
    path.write_bytes(b"NOTMAGIC" + whole[8:])
    with pytest.raises(ConfigError, match="magic"):
        S.load_speed_bin(path)
    # a header claiming 2^18 steps of 2^20 nodes (1 TiB) over 32 bytes of values
    path.write_bytes(S.MAGIC_SPEED + struct.pack("<IIIq", 2**20, 2**18, 300, 0)
                     + whole[-32:])
    with pytest.raises(ConfigError, match="truncated"):
        S.load_speed_bin(path)


@pytest.mark.parametrize("cell", [np.inf, -np.inf, -3.5])
def test_speed_bin_rejects_bad_speeds(tmp_path, cell):
    # the cells the speed CSV rejects; NaN stays the missing marker
    v = np.full((4, 2), 50.0)
    v[1, 0] = np.nan
    v[2, 1] = cell
    path = tmp_path / "speeds.bin"
    S.save_speed_bin(path, SpeedSeries(v, 300, 0))
    with pytest.raises(ConfigError, match=r"speeds\.bin: step 2 node 1: .*%s" % cell):
        S.load_speed_bin(path)


# -- graph cache -------------------------------------------------------------------


def test_graph_bin_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 10, (6, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    graph = build_adjacency(d, kappa=0.2)
    path = tmp_path / "graph.bin"
    S.save_graph_bin(path, graph, kappa=0.2)
    back = S.load_graph_bin(path)
    assert np.array_equal(back.adjacency, graph.adjacency)
    assert np.array_equal(back.forward_norm, graph.forward_norm)
    assert np.array_equal(back.backward_norm, graph.backward_norm)


def test_graph_bin_missing_record(tmp_path):
    path = tmp_path / "graph.bin"
    S.write_container(path, S.MAGIC_GRAPH, [("meta", b"{}")])
    with pytest.raises(ConfigError, match="adjacency"):
        S.load_graph_bin(path)


@pytest.mark.parametrize("meta, match", [
    ({"format": 2, "n_nodes": 3}, "format"),
    ({"format": 1, "n_nodes": 5}, "nodes"),
    (None, "metadata"),
])
def test_graph_bin_checks_metadata(tmp_path, meta, match):
    path = tmp_path / "graph.bin"
    records = [("adjacency", np.eye(3))]
    if meta is not None:
        records.insert(0, ("__meta__", json.dumps(meta).encode("utf-8")))
    S.write_container(path, S.MAGIC_GRAPH, records)
    with pytest.raises(ConfigError, match=match):
        S.load_graph_bin(path)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -0.5])
def test_graph_bin_rejects_bad_weights(tmp_path, weight):
    a = np.eye(2)
    a[0, 1] = weight
    path = tmp_path / "graph.bin"
    S.write_container(path, S.MAGIC_GRAPH, [
        ("__meta__", json.dumps({"format": 1, "n_nodes": 2}).encode("utf-8")),
        ("adjacency", a)])
    with pytest.raises(ConfigError, match=r"graph\.bin: adjacency weights"):
        S.load_graph_bin(path)


@pytest.mark.parametrize("dims", [
    (2**31, 2**31),   # 2^65 bytes: more than one read() call can take
    (2**20, 2**18),   # 2 TiB: an allocation that cannot succeed
    (2**16,) * 4,     # 2^64 elements, which an int64 product wraps to 0
], ids=["overflow", "memory", "int64-wrap"])
def test_graph_bin_rejects_oversized_header(tmp_path, dims):
    path = tmp_path / "graph.bin"
    S.save_graph_bin(path, StaticGraph(np.ones((3, 3))))
    whole = path.read_bytes()
    # the adjacency record is last: name, tag, ndim, dims, then 3 x 3 float64
    header = struct.pack("<H", 9) + b"adjacency" + struct.pack("<BB", 2, 2)
    at = whole.rindex(header)
    forged = (header[:-1] + struct.pack("<B%dI" % len(dims), len(dims), *dims)
              + whole[at + len(header) + 8:])
    path.write_bytes(whole[:at] + forged)
    with pytest.raises(ConfigError, match="truncated"):
        S.load_graph_bin(path)
