"""Evaluation: masked error metrics, reference baselines, dataset analysis.

All metrics average over observed entries only (mask true); horizons with an
empty mask produce no row rather than a NaN row. MAPE is reported in
percent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .data import WEEK_SECONDS, SpeedSeries, write_csv
from .errors import ConfigError, DegenerateInputError, DimensionError


def masked_sums(pred, truth, mask):
    """4 x rows sums along the last (node) axis over mask > 0, rows being
    the leading shape: the count, sum |e|, sum e^2 and sum |e/truth| for
    e = pred - truth. Unobserved entries enter no arithmetic: e is written
    only where the mask holds, into a zero-filled buffer, so they add zeros
    to each sum, and a row's sums read only that row. Past the mask it holds
    one float64 buffer."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    m = np.asarray(mask) > 0
    if pred.shape != truth.shape or pred.shape != m.shape:
        raise DimensionError("pred %r, truth %r, mask %r must share a shape"
                             % (pred.shape, truth.shape, m.shape))
    buf = np.subtract(pred, truth, out=np.zeros(m.shape), where=m)
    np.absolute(buf, out=buf)
    err = np.add.reduce(buf, axis=-1)
    np.divide(buf, truth, out=buf, where=m)
    np.absolute(buf, out=buf)
    ratio = np.add.reduce(buf, axis=-1)
    np.subtract(pred, truth, out=buf, where=m)
    np.square(buf, out=buf)
    sq = np.add.reduce(buf, axis=-1)
    return np.stack([np.count_nonzero(m, axis=-1), err, sq, ratio])


def metrics_from_sums(sums):
    """(mae, rmse, mape_percent, n_observed) of all `masked_sums` rows,
    totalled exactly by `math.fsum`, or None if none is observed."""
    count, err, sq, ratio = map(math.fsum, sums.reshape(4, -1))
    if count == 0:
        return None
    return err / count, math.sqrt(sq / count), 100.0 * (ratio / count), int(count)


def masked_metrics(pred, truth, mask):
    """(mae, rmse, mape_percent, n_observed) over mask > 0, or None if empty."""
    return metrics_from_sums(masked_sums(pred, truth, mask))


def batch_metrics(model_name: str, batches):
    """(overall, per-horizon rows) of (pred, truth, mask) batches, each
    S_i x Q x N. Each batch is reduced to its `masked_sums` and dropped
    before the next is drawn, so one batch's arrays are held at a time.
    overall is as in `metrics_from_sums`; a row is (model, horizon, mae,
    rmse, mape, n), one per horizon (1-based) with an observed entry. The
    totals are exact, so they do not depend on how the samples are batched."""
    sums = np.concatenate(list(starmap(masked_sums, batches)), axis=1)
    rows = []
    for q in range(sums.shape[2]):
        got = metrics_from_sums(sums[:, :, q])
        if got is not None:
            rows.append((model_name, q + 1) + got)
    return metrics_from_sums(sums), rows


# -- baselines ---------------------------------------------------------------------


@dataclass
class HistoricalAverage:
    """Weekly profile baseline: one mean per node per time-of-week slot."""

    dt_seconds: int
    profile: np.ndarray  # week slots x N

    @classmethod
    def fit(cls, series: SpeedSeries) -> "HistoricalAverage":
        """The profile of `series`, on its clock, which must divide a week."""
        dt = series.dt_seconds
        if WEEK_SECONDS % dt != 0:
            raise ConfigError("dt_seconds must divide a week; got %r" % (dt,))
        v = series.values
        n_slots, n = WEEK_SECONDS // dt, series.n_nodes
        slots = (series.timestamps() % WEEK_SECONDS) // dt
        sums = np.zeros((n_slots, n))
        counts = np.zeros((n_slots, n))
        obs = np.isfinite(v)
        np.add.at(sums, slots, np.where(obs, v, 0.0))
        np.add.at(counts, slots, obs.astype(np.float64))
        node_n = obs.sum(axis=0)
        if np.any(node_n == 0):
            raise DegenerateInputError(
                "node %d has no observations to average" % int(np.argmin(node_n))
            )
        node_mean = np.where(obs, v, 0.0).sum(axis=0) / node_n
        with np.errstate(invalid="ignore"):
            prof = sums / counts
        # slots never seen in training fall back to the node's global mean
        return cls(dt, np.where(counts > 0, prof, node_mean[None, :]))

    def predict_at(self, timestamps) -> np.ndarray:
        """timestamps: any int64 shape; returns shape + (n_nodes,)."""
        ts = np.asarray(timestamps, dtype=np.int64)
        slots = (ts % WEEK_SECONDS) // self.dt_seconds
        return self.profile[slots]


def persistence_forecast(x, stats, output_len: int) -> np.ndarray:
    """Repeat the last input reading: x is S x P x N x 2 with a normalized
    speed channel; returns S x Q x N in raw units."""
    last = x[:, -1, :, 0] * stats.std + stats.mean
    return np.repeat(last[:, None, :], output_len, axis=1)


# -- dataset analysis ---------------------------------------------------------------


def _pairwise_correlations(values):
    """Pearson r per node pair over jointly observed steps.

    Returns (r values, (i,j) pairs, skipped pair count). Pairs with under 3
    shared observations or zero variance on the overlap are skipped.
    """
    t_total, n = values.shape
    obs = np.isfinite(values)
    rs = []
    pairs = []
    skipped = 0
    for i in range(n):
        for j in range(i + 1, n):
            both = obs[:, i] & obs[:, j]
            if both.sum() < 3:
                skipped += 1
                continue
            a = values[both, i]
            b = values[both, j]
            sa, sb = a.std(), b.std()
            if sa == 0.0 or sb == 0.0:
                skipped += 1
                continue
            rs.append(float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb)))
            pairs.append((i, j))
    return np.asarray(rs), pairs, skipped


def analyze_dataset(series: SpeedSeries, graph=None) -> dict:
    """Summary statistics used by the analyze command."""
    if graph is not None and graph.n_nodes != series.n_nodes:
        raise DimensionError("graph has %d nodes, series has %d"
                             % (graph.n_nodes, series.n_nodes))
    v = series.values
    obs = np.isfinite(v)
    observed = v[obs]
    if observed.size == 0:
        raise DegenerateInputError("no observed values to analyze")
    lo, hi = float(observed.min()), float(observed.max())
    edges = np.linspace(lo, hi if hi > lo else lo + 1.0, 13)
    hist, _ = np.histogram(observed, bins=edges)
    report = {
        "n_nodes": series.n_nodes,
        "n_steps": series.n_steps,
        "dt_seconds": series.dt_seconds,
        "missing_fraction": float(1.0 - obs.mean()),
        "speed_min": lo,
        "speed_max": hi,
        "speed_mean": float(observed.mean()),
        "speed_std": float(observed.std()),
        "speed_hist_edges": edges.tolist(),
        "speed_hist_counts": hist.tolist(),
    }
    rs, pairs, skipped = _pairwise_correlations(v)
    report["corr_pairs"] = int(rs.size)
    report["corr_pairs_skipped"] = skipped
    if rs.size:
        corr_edges = np.linspace(-1.0, 1.0, 9)
        chist, _ = np.histogram(rs, bins=corr_edges)
        report["corr_hist_edges"] = corr_edges.tolist()
        report["corr_hist_counts"] = chist.tolist()
        report["corr_mean"] = float(rs.mean())
    if graph is not None and rs.size:
        adj_r, far_r = [], []
        for r, (i, j) in zip(rs, pairs):
            linked = graph.adjacency[i, j] > 0.0 or graph.adjacency[j, i] > 0.0
            (adj_r if linked else far_r).append(r)
        if adj_r:
            report["corr_adjacent_mean"] = float(np.mean(adj_r))
            report["corr_adjacent_pairs"] = len(adj_r)
        if far_r:
            report["corr_nonadjacent_mean"] = float(np.mean(far_r))
            report["corr_nonadjacent_pairs"] = len(far_r)
    return report


def _bar(count: int, peak: int, width: int = 60) -> str:
    if count <= 0 or peak <= 0:
        return ""
    return "#" * max(1, round(width * count / peak))


def render_analysis(report: dict) -> str:
    lines = []
    lines.append("nodes %d, steps %d, dt %ds, missing %.2f%%" % (
        report["n_nodes"], report["n_steps"], report["dt_seconds"],
        100.0 * report["missing_fraction"]))
    lines.append("speed: min %.2f  mean %.2f  max %.2f  std %.2f" % (
        report["speed_min"], report["speed_mean"], report["speed_max"],
        report["speed_std"]))
    lines.append("speed histogram:")
    edges = report["speed_hist_edges"]
    peak = max(report["speed_hist_counts"])
    for c, a, b in zip(report["speed_hist_counts"], edges, edges[1:]):
        lines.append("  [%7.2f, %7.2f) %6d %s" % (a, b, c, _bar(c, peak)))
    if report.get("corr_pairs"):
        lines.append("node-pair correlation over %d pairs (skipped %d):" % (
            report["corr_pairs"], report["corr_pairs_skipped"]))
        edges = report["corr_hist_edges"]
        peak = max(report["corr_hist_counts"])
        for c, a, b in zip(report["corr_hist_counts"], edges, edges[1:]):
            lines.append("  [%5.2f, %5.2f) %6d %s" % (a, b, c, _bar(c, peak)))
        if "corr_adjacent_mean" in report:
            lines.append("mean r, adjacent pairs:     %+.4f (%d pairs)" % (
                report["corr_adjacent_mean"], report["corr_adjacent_pairs"]))
        if "corr_nonadjacent_mean" in report:
            lines.append("mean r, non-adjacent pairs: %+.4f (%d pairs)" % (
                report["corr_nonadjacent_mean"], report["corr_nonadjacent_pairs"]))
    elif report.get("corr_pairs_skipped"):
        lines.append("no usable node pairs for correlation (skipped %d)" %
                     report["corr_pairs_skipped"])
    return "\n".join(lines)


def write_analysis_csv(path, report: dict):
    """Histogram bins as CSV rows: kind, bin_lo, bin_hi, count."""
    rows = []
    for kind, key in (("speed", "speed_hist"), ("correlation", "corr_hist")):
        if key + "_edges" in report:
            edges = report[key + "_edges"]
            rows += [[kind, repr(float(a)), repr(float(b)), c]
                     for c, a, b in zip(report[key + "_counts"], edges, edges[1:])]
    write_csv(path, ["kind", "bin_lo", "bin_hi", "count"], rows)


# -- report output ------------------------------------------------------------------


def write_report_csv(path, rows):
    write_csv(path, ["model", "horizon", "mae", "rmse", "mape", "n_observed"],
              ([model, horizon, repr(float(mae)), repr(float(rmse)), repr(float(mape)), n]
               for model, horizon, mae, rmse, mape, n in rows))


def format_report_table(rows) -> str:
    """Fixed-width table, one row per (model, horizon); MAPE to two decimals."""
    header = ("model", "horizon", "mae", "rmse", "mape%", "n")
    body = [
        (model, str(h), "%.4f" % mae, "%.4f" % rmse, "%.2f" % mape, str(n))
        for model, h, mae, rmse, mape, n in rows
    ]
    widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines = [fmt % header, fmt % tuple("-" * w for w in widths)]
    lines += [fmt % r for r in body]
    return "\n".join(lines)
