"""Binary file formats: checkpoint container, speed tensor, graph cache.

All integers are little-endian. The shared container layout is

    magic (10 bytes)
    u32 record count
    per record: u16 name length, UTF-8 name, u8 dtype tag, u8 ndim,
                u32 * ndim dims, raw values

Dtype tags: 1 = float32, 2 = float64, 3 = UTF-8 JSON payload (ndim 1,
length in bytes). Record order is fixed by the writer, so two identical
runs produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .config import coerce, read_section
from .data import NormStats, SpeedSeries
from .errors import ConfigError, DegenerateInputError, DimensionError
from .graphs import StaticGraph
from .model import HyperParams, ModelParams, init_model, named_parameters

MAGIC_CHECKPOINT = b"DGCRNCKPT\x01"
MAGIC_SPEED = b"DGCRNDAT\x01"
MAGIC_GRAPH = b"DGCRNGRF\x01"

_TAG_F32 = 1
_TAG_F64 = 2
_TAG_JSON = 3
_TAG_TO_DTYPE = {_TAG_F32: np.dtype("<f4"), _TAG_F64: np.dtype("<f8")}
_META_NAME = "__meta__"


def _need(fh, n: int, path) -> bytes:
    # check before reading: a corrupt header may claim more than memory holds
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ConfigError("%s: truncated file" % path)
    return fh.read(n)


def _write_record(fh, name: str, payload):
    raw_name = name.encode("utf-8")
    if len(raw_name) > 0xFFFF:
        raise ConfigError("record name too long: %r" % name[:40])
    fh.write(struct.pack("<H", len(raw_name)))
    fh.write(raw_name)
    if isinstance(payload, bytes):
        fh.write(struct.pack("<BB", _TAG_JSON, 1))
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        return
    arr = np.asarray(payload)
    if arr.dtype == np.float32:
        tag = _TAG_F32
    elif arr.dtype == np.float64:
        tag = _TAG_F64
    else:
        raise ConfigError(
            "record %r has unsupported dtype %s (float32/float64 only)" % (name, arr.dtype)
        )
    if arr.ndim > 0xFF:
        raise DimensionError("record %r has too many dims" % name)
    fh.write(struct.pack("<BB", tag, arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def write_container(path, magic: bytes, records):
    """records: ordered (name, array-or-json-bytes) pairs."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(records)))
        for name, payload in records:
            _write_record(fh, name, payload)


def read_container(path, magic: bytes):
    """Returns ordered (name, array-or-json-bytes) pairs."""
    records = []
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise ConfigError(
                "%s: bad magic %r (expected %r)" % (path, got[:12], magic)
            )
        (count,) = struct.unpack("<I", _need(fh, 4, path))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _need(fh, 2, path))
            raw_name = _need(fh, name_len, path)
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise ConfigError("%s: record name %r is not UTF-8" % (path, raw_name)) from None
            tag, ndim = struct.unpack("<BB", _need(fh, 2, path))
            if tag == _TAG_JSON:
                (nbytes,) = struct.unpack("<I", _need(fh, 4, path))
                records.append((name, _need(fh, nbytes, path)))
                continue
            if tag not in _TAG_TO_DTYPE:
                raise ConfigError("%s: record %r has unknown dtype tag %d" % (path, name, tag))
            dims = struct.unpack("<%dI" % ndim, _need(fh, 4 * ndim, path)) if ndim else ()
            dtype = _TAG_TO_DTYPE[tag]
            raw = _need(fh, math.prod(dims) * dtype.itemsize, path)
            arr = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
            records.append((name, arr))
        if fh.read(1):
            raise ConfigError("%s: trailing bytes after last record" % path)
    return records


def _read_meta(path, records) -> dict:
    """The JSON metadata every checkpoint and graph file starts with."""
    if not records or records[0][0] != _META_NAME or not isinstance(records[0][1], bytes):
        raise ConfigError("%s: missing metadata record" % path)
    try:
        meta = json.loads(records[0][1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError("%s: corrupt metadata: %s" % (path, e)) from None
    if not isinstance(meta, dict):
        raise ConfigError("%s: corrupt metadata: not a JSON object" % path)
    if meta.get("format") != 1:
        raise ConfigError("%s: unsupported format %r" % (path, meta.get("format")))
    return meta


# -- checkpoints -------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams, stats: NormStats, extra: dict | None = None):
    """Model weights plus everything needed to rebuild and denormalize."""
    named = named_parameters(params)
    dtype = named[0][1].data.dtype if named else np.dtype(np.float32)
    meta = {
        "format": 1,
        "hp": asdict(params.hp),
        "n_nodes": params.n_nodes,
        "dtype": np.dtype(dtype).name,
        "norm_mean": stats.mean,
        "norm_std": stats.std,
        "extra": extra or {},
    }
    records = [(_META_NAME, json.dumps(meta, sort_keys=True).encode("utf-8"))]
    for name, t in named:
        records.append((name, t.data))
    write_container(path, MAGIC_CHECKPOINT, records)


def load_checkpoint(path):
    """Returns (params, stats, extra). Reads the metadata like a config
    section, rebuilds the module tree, then overwrites every parameter
    array, insisting on an exact name match."""
    records = read_container(path, MAGIC_CHECKPOINT)
    meta = _read_meta(path, records)
    hp = read_section("%s: hp" % path, HyperParams(), meta.get("hp"))
    n_nodes = coerce("%s: n_nodes" % path, int, meta.get("n_nodes"))
    dtype = coerce("%s: dtype" % path, str, meta.get("dtype"))
    if dtype not in ("float32", "float64"):
        raise ConfigError("%s: dtype must be float32 or float64; got %r" % (path, dtype))
    stats = NormStats(mean=coerce("%s: norm_mean" % path, float, meta.get("norm_mean")),
                      std=coerce("%s: norm_std" % path, float, meta.get("norm_std")))
    if not (math.isfinite(stats.mean) and math.isfinite(stats.std) and stats.std > 0):
        raise ConfigError("%s: norm stats must be finite with std > 0; got mean %r, std %r"
                          % (path, stats.mean, stats.std))
    extra = meta.get("extra", {})
    if not isinstance(extra, dict):
        raise ConfigError("%s: extra must be a mapping; got %r" % (path, extra))
    try:
        params = init_model(hp, n_nodes, seed=0, dtype=dtype)
    except ConfigError as e:  # HyperParams.validate or the node count
        raise ConfigError("%s: %s" % (path, e)) from None
    stored = dict(records[1:])
    if len(stored) != len(records) - 1:
        raise ConfigError("%s: duplicate record names" % path)
    for name, t in named_parameters(params):
        if name not in stored:
            raise ConfigError("%s: missing parameter %r" % (path, name))
        arr = stored.pop(name)
        if isinstance(arr, bytes):
            raise ConfigError("%s: parameter %r stored as metadata" % (path, name))
        if arr.shape != t.data.shape:
            raise ConfigError(
                "%s: parameter %r has shape %r, expected %r"
                % (path, name, arr.shape, t.data.shape)
            )
        t.data = arr.astype(dtype, copy=True)
    if stored:
        raise ConfigError("%s: unexpected record %r" % (path, sorted(stored)[0]))
    return params, stats, extra


# -- speed tensor ------------------------------------------------------------------


def save_speed_bin(path, series: SpeedSeries):
    """Compact float32 speed tensor; NaN marks missing readings."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_SPEED)
        fh.write(struct.pack("<IIIq", series.n_nodes, series.n_steps,
                             series.dt_seconds, series.start_epoch))
        fh.write(np.ascontiguousarray(series.values, dtype="<f4").tobytes())


def load_speed_bin(path) -> SpeedSeries:
    with open(path, "rb") as fh:
        got = fh.read(len(MAGIC_SPEED))
        if got != MAGIC_SPEED:
            raise ConfigError("%s: bad magic %r (expected %r)" % (path, got[:12], MAGIC_SPEED))
        n, t, dt, start = struct.unpack("<IIIq", _need(fh, 20, path))
        raw = _need(fh, 4 * n * t, path)
        if fh.read(1):
            raise ConfigError("%s: trailing bytes" % path)
    values = np.frombuffer(raw, dtype="<f4").reshape(t, n).astype(np.float64)
    bad = np.argwhere((values < 0.0) | np.isinf(values))  # NaN marks a missing reading
    if bad.size:
        step, node = bad[0]
        raise ConfigError("%s: step %d node %d: speed must be finite and >= 0; got %r"
                          % (path, step, node, float(values[step, node])))
    try:
        return SpeedSeries(values, dt, start)
    except (ConfigError, DimensionError) as e:  # no nodes or steps, or a zero clock step
        raise ConfigError("%s: %s" % (path, e)) from None


# -- graph cache -------------------------------------------------------------------


def save_graph_bin(path, graph: StaticGraph, kappa: float | None = None):
    meta = {"format": 1, "n_nodes": graph.n_nodes}
    if kappa is not None:
        meta["kappa"] = float(kappa)
    records = [
        (_META_NAME, json.dumps(meta, sort_keys=True).encode("utf-8")),
        ("adjacency", graph.adjacency),
    ]
    write_container(path, MAGIC_GRAPH, records)


def load_graph_bin(path, kappa: float | None = None) -> StaticGraph:
    """The cached graph; given `kappa`, a file built with another one fails."""
    records = read_container(path, MAGIC_GRAPH)
    named = dict(records)
    if "adjacency" not in named or isinstance(named["adjacency"], bytes):
        raise ConfigError("%s: missing adjacency record" % path)
    meta = _read_meta(path, records)
    # written so that a NaN weight fails it
    if not np.all((named["adjacency"] >= 0.0) & (named["adjacency"] < np.inf)):
        raise ConfigError("%s: adjacency weights must be finite and >= 0" % path)
    try:
        graph = StaticGraph(named["adjacency"])
    except (DegenerateInputError, DimensionError) as e:  # not square, or a zero row
        raise ConfigError("%s: %s" % (path, e)) from None
    if meta.get("n_nodes") != graph.n_nodes:
        raise ConfigError("%s: metadata says %r nodes but the adjacency has %d"
                          % (path, meta.get("n_nodes"), graph.n_nodes))
    built = meta.get("kappa")
    if kappa is not None and built is not None and built != kappa:
        raise ConfigError("%s: graph was built with kappa %r but data.kappa is %r"
                          % (path, built, kappa))
    return graph
