"""Dataset plumbing: speed series, Z-score stats, windows, splits,
forward-fill imputation, and the synthetic congestion generator.

NaN is the canonical missing sentinel everywhere inside the package; files
that mark missing readings as 0.0 are converted at load time. Z-score
statistics are always fit on the training split only, over observed entries.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError

DAY_SECONDS = 86400
WEEK_SECONDS = 7 * DAY_SECONDS


@dataclass
class SpeedSeries:
    """T x N speed readings on a uniform clock grid."""

    values: np.ndarray
    dt_seconds: int = 300
    start_epoch: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionError("values must be T x N with T,N >= 1; got %r" % (v.shape,))
        if self.dt_seconds <= 0:
            raise ConfigError("dt_seconds must be positive; got %r" % (self.dt_seconds,))
        self.values = v
        self.dt_seconds = int(self.dt_seconds)
        self.start_epoch = int(self.start_epoch)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    def timestamps(self) -> np.ndarray:
        return self.start_epoch + np.arange(self.n_steps, dtype=np.int64) * self.dt_seconds

    def time_of_day(self) -> np.ndarray:
        """Scalar channel in [0,1): seconds since midnight over a day."""
        return (self.timestamps() % DAY_SECONDS) / float(DAY_SECONDS)

    def slice_steps(self, start: int, stop: int) -> "SpeedSeries":
        return SpeedSeries(
            self.values[start:stop].copy(),
            self.dt_seconds,
            self.start_epoch + start * self.dt_seconds,
        )


def mask_zero_sentinel(values: np.ndarray) -> np.ndarray:
    """Convert the 0.0-as-missing convention to NaN."""
    v = np.asarray(values, dtype=np.float64).copy()
    v[v == 0.0] = np.nan
    return v


# -- normalization ---------------------------------------------------------------


@dataclass
class NormStats:
    mean: float
    std: float

    @classmethod
    def fit(cls, values) -> "NormStats":
        v = np.asarray(values, dtype=np.float64)
        obs = v[np.isfinite(v)]
        if obs.size == 0:
            raise DegenerateInputError("cannot fit normalization: no observed entries")
        std = float(obs.std())
        if std == 0.0:
            raise DegenerateInputError("cannot fit normalization: zero variance")
        return cls(mean=float(obs.mean()), std=std)


def normalize(x, stats: NormStats) -> np.ndarray:
    """Z-score transform; NaN sentinels pass through untouched."""
    x = np.asarray(x, dtype=np.float64)
    return (x - stats.mean) / stats.std


# -- splitting ----------------------------------------------------------------------


def split(series: SpeedSeries, kind: str, train, val, test):
    """Chronological train/val/test segments.

    kind='ratio': fractions summing to 1, floor arithmetic, remainder to
    test. kind='days': whole-day counts that must tile the series exactly.
    The config loader has checked kind and that each share is positive.
    """
    t_total = series.n_steps
    if kind == "ratio":
        fracs = (float(train), float(val), float(test))
        if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError("split ratios must be nonnegative and sum to 1; got %r" % (fracs,))
        n_train = int(t_total * fracs[0])
        n_val = int(t_total * fracs[1])
        n_test = t_total - n_train - n_val
    else:  # days
        if DAY_SECONDS % series.dt_seconds != 0:
            raise ConfigError(
                "day split needs dt_seconds dividing a day; got %d" % series.dt_seconds
            )
        spd = DAY_SECONDS // series.dt_seconds
        days = (int(train), int(val), int(test))
        want = sum(days) * spd
        if want != t_total:
            raise ConfigError(
                "day split %r covers %d steps but the series has %d (%.2f days)"
                % (days, want, t_total, t_total / spd)
            )
        n_train, n_val, n_test = (d * spd for d in days)
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            "split produces an empty segment (train=%d val=%d test=%d)"
            % (n_train, n_val, n_test)
        )
    a = series.slice_steps(0, n_train)
    b = series.slice_steps(n_train, n_train + n_val)
    c = series.slice_steps(n_train + n_val, t_total)
    return a, b, c


# -- windowing ---------------------------------------------------------------------


@dataclass
class SampleSet:
    """Model-ready windows for one contiguous segment.

    x, y and mask are read-only stride-1 window views over one per-step
    array each, so they cost T x N memory, not S x window x N; index or
    slice them to get a batch, and copy before writing. The mask is bool,
    one byte per step and node.
    """

    x: np.ndarray          # S x P x N x 2, speed channel normalized
    y: np.ndarray          # S x Q x N raw units, missing -> 0.0
    tod: np.ndarray        # S x Q target time-of-day in [0,1)
    mask: np.ndarray       # S x Q x N bool, True observed / False missing
    target_ts: np.ndarray  # S x Q epoch seconds

    def __len__(self) -> int:
        return self.x.shape[0]


def _sliding(arr: np.ndarray, window: int) -> np.ndarray:
    # (T, ...) -> (T-window+1, window, ...), a read-only view of arr
    view = np.lib.stride_tricks.sliding_window_view(arr, window, axis=0)
    return np.moveaxis(view, -1, 1)


def make_windows(series: SpeedSeries, input_len: int, output_len: int,
                 stats: NormStats, filled: np.ndarray) -> SampleSet:
    """Stride-1 windows: P input steps then Q label steps; the series holds
    at least P+Q steps (`build_dataset` checks).

    filled (T x N) supplies the imputed values for the input channel;
    labels and masks always come from the raw series so imputed entries
    never count as observed.
    """
    raw = series.values
    t_total, n = raw.shape
    count = t_total - input_len - output_len + 1
    tod_all = series.time_of_day()
    ts_all = series.timestamps()

    # one T x N x 2 step array; each window is a view of P consecutive steps
    steps = np.empty((t_total, n, 2))
    steps[..., 0] = normalize(filled, stats)
    steps[..., 1] = tod_all[:, None]
    x = _sliding(steps, input_len)[:count]
    labels = slice(input_len, input_len + count)
    y = _sliding(np.nan_to_num(raw, nan=0.0), output_len)[labels]
    mask = _sliding(np.isfinite(raw), output_len)[labels]
    tod = _sliding(tod_all, output_len)[labels].copy()
    target_ts = _sliding(ts_all, output_len)[labels].copy()
    return SampleSet(x=x, y=y, tod=tod, mask=mask, target_ts=target_ts)


# -- imputation --------------------------------------------------------------------


def impute_last(series: SpeedSeries, lead_fill: np.ndarray) -> SpeedSeries:
    """Forward-fill missing entries per node; leading gaps take lead_fill,
    one value per node (the node's training-period mean)."""
    v = series.values
    t_total, n = v.shape
    valid = np.isfinite(v)
    dead = np.flatnonzero(~np.isfinite(lead_fill))
    if dead.size:
        raise DegenerateInputError(
            "node %d has no observed values to impute from" % int(dead[0])
        )
    idx = np.where(valid, np.arange(t_total)[:, None], -1)
    idx = np.maximum.accumulate(idx, axis=0)
    gathered = v[np.maximum(idx, 0), np.arange(n)[None, :]]
    out = np.where(idx >= 0, gathered, lead_fill[None, :])
    return SpeedSeries(out, series.dt_seconds, series.start_epoch)


# -- dataset orchestration ------------------------------------------------------------


@dataclass
class WindowedDataset:
    train: SampleSet
    val: SampleSet
    test: SampleSet
    stats: NormStats
    input_len: int
    output_len: int
    n_nodes: int


def build_dataset(series: SpeedSeries, input_len: int, output_len: int,
                  split_kind: str, split_train, split_val, split_test,
                  stats: NormStats | None = None) -> WindowedDataset:
    """Split, fit stats on train, impute, and window each segment; each
    segment must hold at least P+Q steps."""
    seg_train, seg_val, seg_test = split(series, split_kind, split_train, split_val, split_test)
    if stats is None:
        stats = NormStats.fit(seg_train.values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train_means = np.nanmean(seg_train.values, axis=0)
    sets = []
    for name, seg in zip(("train", "val", "test"), (seg_train, seg_val, seg_test)):
        if seg.n_steps < input_len + output_len:
            raise ConfigError("%s split has %d steps, fewer than P+Q=%d; no windows"
                              % (name, seg.n_steps, input_len + output_len))
        filled = impute_last(seg, lead_fill=train_means).values
        sets.append(make_windows(seg, input_len, output_len, stats, filled))
    return WindowedDataset(
        train=sets[0], val=sets[1], test=sets[2], stats=stats,
        input_len=input_len, output_len=output_len, n_nodes=series.n_nodes,
    )


# -- synthetic data -------------------------------------------------------------------


def synth_distances(n_nodes: int, seed: int) -> np.ndarray:
    """Euclidean distances between uniform random points in a 10 x 10 box."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 10.0, (n_nodes, 2))
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return d


def synth_generate(n_nodes: int, n_days: int, graph, seed: int,
                   congestion_rate: float = 0.002, noise_std: float = 1.0,
                   dt_seconds: int = 300) -> SpeedSeries:
    """Free-flow 60 with a per-node daily sinusoid dip, plus congestion
    events that pull speed toward 15 and spread to out-neighbors with a
    one-step lag and damping 0.6, from epoch 0. Deterministic per seed.
    graph has n_nodes nodes; the config loader checks n_days and the rate.
    """
    rng = np.random.default_rng(seed)
    spd = DAY_SECONDS // dt_seconds
    t_total = n_days * spd
    n = n_nodes

    tod = ((np.arange(t_total) * dt_seconds) % DAY_SECONDS) / DAY_SECONDS
    amp = rng.uniform(6.0, 12.0, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    base = 60.0 - amp[None, :] * (0.5 + 0.5 * np.sin(2.0 * np.pi * tod[:, None] + phase[None, :]))

    # congestion sources: event start cells with random plateau durations;
    # each T x N table is released once used and the speed is built in place
    starts = rng.random((t_total, n)) < congestion_rate
    durations = rng.integers(6, 25, size=(t_total, n))
    c_src = np.zeros((t_total, n), dtype=bool)
    for t, v in np.argwhere(starts):
        c_src[t:t + durations[t, v], v] = True
    del starts, durations

    # spread along directed edges with one-step lag and damping 0.6; the
    # damping sits in the edge weights, which is exact: c >= 0 and rounding
    # is monotone, so max(0.6 * c) == 0.6 * max(c) bit for bit
    damped = np.where((graph.adjacency > 0.0) & ~np.eye(n, dtype=bool), 0.6, 0.0)
    c = np.zeros((t_total, n))
    c[0] = c_src[0]
    for t in range(1, t_total):
        np.maximum(c_src[t], (damped * c[t - 1, :, None]).max(axis=0), out=c[t])
    del c_src

    # base - c*(base - 15) + noise_std*noise, with the same roundings; the
    # product is formed inside c one day of rows at a time
    for lo in range(0, t_total, spd):
        c[lo:lo + spd] *= base[lo:lo + spd] - 15.0
    np.subtract(base, c, out=base)
    del c
    noise = rng.standard_normal((t_total, n))
    noise *= noise_std
    base += noise
    return SpeedSeries(base, dt_seconds)


# -- text file interface ----------------------------------------------------------------


def read_csv(path, header, convert) -> list:
    """Rows of a UTF-8 CSV file, each turned into a value by `convert`.

    header(names) is given the first line's names, stripped of spaces, and
    raises ValueError saying what it expected. Blank lines are skipped;
    every other line must have as many fields as the header, and
    convert(fields) raises ValueError on a value it rejects. Each error is
    a ConfigError naming the file and, for a row, its line.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = [h.strip() for h in next(reader, [])]
            header(names)
            for row in reader:  # reader.line_num: the line the row ends on
                if not row:
                    continue
                if len(row) != len(names):
                    raise ConfigError("%s:%d: expected %d fields, got %d"
                                      % (path, reader.line_num, len(names), len(row)))
                try:
                    rows.append(convert(row))
                except ValueError as e:
                    raise ConfigError("%s:%d: %s" % (path, reader.line_num, e)) from None
        except (ValueError, csv.Error) as e:  # header rule, UTF-8 decoder or csv module
            raise ConfigError("%s: %s" % (path, e)) from None
    return rows


def exact_header(names):
    """Header rule for a file whose first line is exactly `names`."""
    def check(got):
        if got != names:
            raise ValueError("expected header %s, got %r" % (",".join(names), ",".join(got)))
    return check


def write_csv(path, header, rows):
    """Write `header` then `rows` as UTF-8 CSV lines."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _from_iso(text: str) -> int:
    try:
        d = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError("bad timestamp %r" % text) from None
    if d.tzinfo is None:
        d = d.replace(tzinfo=timezone.utc)
    return int(d.timestamp())


def _speed_header(names):
    if len(names) < 2 or names[0] != "timestamp":
        raise ValueError("expected header 'timestamp,<node columns>'")


def _speed_cell(cell: str) -> float:
    # an empty cell is the one missing marker; a written speed is finite and >= 0
    if cell.strip() == "":
        return np.nan
    v = float(cell)
    if not 0.0 <= v < np.inf:
        raise ValueError("speed must be finite and >= 0; got %r" % cell)
    return v


def load_speed_csv(path) -> SpeedSeries:
    rows = read_csv(path, _speed_header,
                    lambda row: (_from_iso(row[0]), [_speed_cell(f) for f in row[1:]]))
    if not rows:
        raise DegenerateInputError("%s: no data rows" % path)
    stamps, cells = zip(*rows)
    stamps = np.asarray(stamps, dtype=np.int64)
    if len(stamps) > 1:
        deltas = np.diff(stamps)
        if np.any(deltas != deltas[0]) or deltas[0] <= 0:
            raise ConfigError("%s: timestamps must increase by a constant step" % path)
        dt = int(deltas[0])
    else:
        dt = 300
    return SpeedSeries(np.asarray(cells, dtype=np.float64), dt, int(stamps[0]))
