"""Masked metrics, weekly-average and persistence baselines, analysis, reports."""
import tracemalloc
import weakref

import numpy as np
import pytest

from dgcrn import metrics as M
from dgcrn.data import NormStats, SpeedSeries, make_windows
from dgcrn.errors import ConfigError, DegenerateInputError, DimensionError
from dgcrn.graphs import StaticGraph

from csvfiles import load_report_csv
from oracles import masked_metrics_ref


# -- masked metrics ----------------------------------------------------------------


def test_masked_metrics_hand_values():
    pred = np.array([3.0, 5.0, 99.0])
    truth = np.array([1.0, 5.0, 7.0])
    mask = np.array([1.0, 1.0, 0.0])
    mae, rmse, mape, n = M.masked_metrics(pred, truth, mask)
    assert n == 2
    assert mae == pytest.approx(1.0)
    assert rmse == pytest.approx(np.sqrt(2.0))
    assert mape == pytest.approx(100.0)  # (200% + 0%) / 2


def test_masked_metrics_matches_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(25):
        shape = tuple(rng.integers(1, 5, size=3))
        pred = rng.uniform(10.0, 70.0, shape)
        truth = rng.uniform(10.0, 70.0, shape)
        mask = (rng.random(shape) < 0.7).astype(np.float64)
        got = M.masked_metrics(pred, truth, mask)
        want = masked_metrics_ref(pred, truth, mask > 0)
        if want is None:
            assert got is None
            continue
        for g, w in zip(got[:3], want[:3]):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
        assert got[3] == want[3]


def test_masked_sums_of_split_rows_are_bitwise_the_whole():
    # a row's sums read only that row: batches joined along the sample axis,
    # and horizon slices, give the sums of the whole array bit for bit
    rng = np.random.default_rng(6)
    for trial in range(10):
        shape = (23, 3, 11)
        truth = rng.uniform(10.0, 70.0, shape)
        if trial % 2:
            truth *= rng.choice([-1.0, 1.0], shape)  # |e/t| whatever t's sign
        pred = truth + rng.normal(0.0, 5.0, shape)  # errors of both signs
        observed = rng.random(shape) < rng.uniform(0.2, 0.9)
        truth[~observed] = 0.0  # as in the windows: never divided by
        whole = M.masked_sums(pred, truth, observed)
        assert whole.shape == (4, 23, 3) and whole.dtype == np.float64
        assert np.array_equal(whole[0], observed.sum(axis=-1))
        assert M.masked_sums(pred, truth, observed.astype(np.float64)).tobytes() == \
            whole.tobytes()
        for b in (1, 7, 64):
            joined = np.concatenate([M.masked_sums(pred[lo:lo + b], truth[lo:lo + b],
                                                   observed[lo:lo + b])
                                     for lo in range(0, shape[0], b)], axis=1)
            assert joined.tobytes() == whole.tobytes(), b
        for q in range(shape[1]):
            got = M.masked_sums(pred[:, q], truth[:, q], observed[:, q])
            assert got.tobytes() == whole[:, :, q].tobytes(), q


def test_masked_sums_holds_one_buffer():
    # past the bool mask it holds one float64 buffer of the input's size
    rng = np.random.default_rng(7)
    size = 10**6
    pred = rng.uniform(10.0, 70.0, size)
    truth = rng.uniform(10.0, 70.0, size)
    for mask in (rng.random(size) < 0.9, (rng.random(size) < 0.9).astype(np.float64)):
        tracemalloc.start()
        try:
            M.masked_sums(pred, truth, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * size + size + 128 * 1024, (mask.dtype, peak)


def test_masked_metrics_empty_and_mismatch():
    assert M.masked_metrics(np.ones(3), np.ones(3), np.zeros(3)) is None
    with pytest.raises(DimensionError):
        M.masked_metrics(np.ones(3), np.ones(4), np.ones(3))


def test_per_horizon_rows_skip_empty():
    s, q, n = 4, 3, 2
    rng = np.random.default_rng(1)
    pred = rng.uniform(10, 60, (s, q, n))
    truth = rng.uniform(10, 60, (s, q, n))
    mask = np.ones((s, q, n))
    mask[:, 1] = 0.0  # horizon 2 has nothing observed
    _, rows = M.batch_metrics("model", [(pred, truth, mask)])
    assert [r[1] for r in rows] == [1, 3]
    assert all(r[0] == "model" for r in rows)
    mae1, _, _, n1 = M.masked_metrics(pred[:, 0], truth[:, 0], mask[:, 0])
    assert rows[0][2] == mae1
    assert rows[0][5] == n1


# -- weekly average baseline ---------------------------------------------------------


def _weekly_series():
    # dt one hour, two weeks; value = slot + 10*node + 2*(week index)
    dt = 3600
    slots = 7 * 24
    t_total = 2 * slots
    slot_idx = np.arange(t_total) % slots
    week_idx = np.arange(t_total) // slots
    v = slot_idx[:, None] + 10.0 * np.arange(3)[None, :] + 2.0 * week_idx[:, None]
    return SpeedSeries(v.astype(np.float64), dt_seconds=dt, start_epoch=0), dt, slots


def test_weekly_average_profile():
    series, dt, slots = _weekly_series()
    ha = M.HistoricalAverage.fit(series)
    assert ha.profile.shape == (slots, 3)
    # mean over the two weeks: slot + 10*node + 1
    want = np.arange(slots)[:, None] + 10.0 * np.arange(3)[None, :] + 1.0
    np.testing.assert_allclose(ha.profile, want)
    # predictions wrap by week: week 5, slot 7
    ts = np.array([5 * 7 * 86400 + 7 * dt], dtype=np.int64)
    np.testing.assert_allclose(ha.predict_at(ts)[0], want[7])


def test_weekly_average_missing_and_empty_buckets():
    series, dt, slots = _weekly_series()
    v = series.values
    v[5, 0] = np.nan              # week 1 only -> bucket mean is week-2 value
    v[3, 1] = np.nan
    v[slots + 3, 1] = np.nan      # both weeks -> bucket empty, global mean
    ha = M.HistoricalAverage.fit(SpeedSeries(v, dt, 0))
    assert ha.profile[5, 0] == pytest.approx(5.0 + 2.0)
    node1 = v[:, 1]
    assert ha.profile[3, 1] == pytest.approx(node1[np.isfinite(node1)].mean())


def test_weekly_average_validation():
    with pytest.raises(ConfigError, match="divide a week"):
        M.HistoricalAverage.fit(SpeedSeries(np.ones((10, 2)), 13, 0))
    dead = SpeedSeries(np.full((10, 2), np.nan), 3600, 0)
    dead.values[:, 0] = 1.0
    with pytest.raises(DegenerateInputError):
        M.HistoricalAverage.fit(dead)


# -- persistence baseline ------------------------------------------------------------


def test_persistence_repeats_last_input():
    rng = np.random.default_rng(2)
    v = rng.uniform(20.0, 60.0, (20, 4))
    series = SpeedSeries(v, 300, 0)
    stats = NormStats.fit(v)
    got = make_windows(series, 3, 2, stats, v)
    fc = M.persistence_forecast(got.x, stats, 2)
    assert fc.shape == (len(got), 2, 4)
    for s in range(len(got)):
        np.testing.assert_allclose(fc[s, 0], v[s + 2], atol=1e-12)
        np.testing.assert_allclose(fc[s, 1], v[s + 2], atol=1e-12)


# -- analysis ----------------------------------------------------------------------


def test_analyze_dataset_correlations():
    t = np.arange(30.0)
    v = np.stack([t, 2.0 * t, -t, np.full(30, 5.0)], axis=1)
    v[4, 0] = np.nan
    series = SpeedSeries(v, 300, 0)
    report = M.analyze_dataset(series)
    # node 3 is constant: its 3 pairs are skipped, the other 3 survive
    assert report["corr_pairs"] == 3
    assert report["corr_pairs_skipped"] == 3
    assert report["corr_mean"] == pytest.approx((1.0 + (-1.0) + (-1.0)) / 3.0)
    assert report["missing_fraction"] == pytest.approx(1.0 / 120.0)
    assert sum(report["speed_hist_counts"]) == 119


def test_analyze_dataset_adjacency_split():
    t = np.arange(40.0)
    v = np.stack([t, 2.0 * t, -t], axis=1)
    series = SpeedSeries(v, 300, 0)
    adj = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    report = M.analyze_dataset(series, StaticGraph(adj))
    # linked pair (0,1) has r=1; unlinked pairs (0,2) and (1,2) have r=-1
    assert report["corr_adjacent_pairs"] == 1
    assert report["corr_adjacent_mean"] == pytest.approx(1.0)
    assert report["corr_nonadjacent_pairs"] == 2
    assert report["corr_nonadjacent_mean"] == pytest.approx(-1.0)


def test_analyze_dataset_degenerate():
    with pytest.raises(DegenerateInputError):
        M.analyze_dataset(SpeedSeries(np.full((5, 2), np.nan), 300, 0))


def test_analyze_dataset_rejects_graph_of_other_size():
    # checked where the graph enters, also when no node pair is usable
    t = np.arange(30.0)
    for v in (t[:, None], np.stack([t, 2.0 * t], axis=1)):
        with pytest.raises(DimensionError, match="graph has 5 nodes, series has %d"
                           % v.shape[1]):
            M.analyze_dataset(SpeedSeries(v, 300, 0), StaticGraph(np.eye(5)))


def test_render_analysis_smoke():
    rng = np.random.default_rng(3)
    series = SpeedSeries(rng.uniform(20, 60, (50, 4)), 300, 0)
    text = M.render_analysis(M.analyze_dataset(series))
    assert "speed histogram" in text
    assert "node-pair correlation" in text
    assert "nodes 4, steps 50" in text


# -- report files -------------------------------------------------------------------


def test_report_csv_round_trip(tmp_path):
    rows = [
        ("dgcrn", 3, 2.5, 4.25, 6.125, 1200),
        ("persistence", 3, 3.75, 5.5, 9.0, 1200),
    ]
    path = tmp_path / "report.csv"
    M.write_report_csv(path, rows)
    back = load_report_csv(path)
    assert back == rows
    (tmp_path / "bad.csv").write_text("model,mae\n")
    with pytest.raises(ConfigError):
        load_report_csv(tmp_path / "bad.csv")


@pytest.mark.parametrize("row, match", [
    ("dgcrn,6,2.5", r"report\.csv:3: expected 6 fields, got 3"),
    ("dgcrn,x,2.5,4.25,6.125,1200", r"report\.csv:3: .*'x'"),
], ids=["short-row", "bad-value"])
def test_load_report_csv_rejects_bad_rows(tmp_path, row, match):
    path = tmp_path / "report.csv"
    M.write_report_csv(path, [("dgcrn", 3, 2.5, 4.25, 6.125, 1200)])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ConfigError, match=match):
        load_report_csv(path)


def test_batch_metrics_is_the_same_at_any_batching():
    rng = np.random.default_rng(8)
    shape = (50, 3, 7)
    truth = rng.uniform(10.0, 70.0, shape)
    pred = truth + rng.normal(0.0, 5.0, shape)
    mask = rng.random(shape) < 0.8
    overall, rows = M.batch_metrics("m", [(pred, truth, mask)])
    assert overall == M.masked_metrics(pred, truth, mask)
    assert rows == [("m", q + 1) + M.masked_metrics(pred[:, q], truth[:, q], mask[:, q])
                    for q in range(3)]
    for b in (1, 7, 64):
        got = M.batch_metrics("m", ((pred[lo:lo + b], truth[lo:lo + b], mask[lo:lo + b])
                                    for lo in range(0, 50, b)))
        assert got == (overall, rows), b


def test_batch_metrics_drops_each_batch_before_drawing_the_next():
    rng = np.random.default_rng(9)
    alive = []

    def draw():
        assert all(ref() is None for ref in alive), "previous batch still held"
        truth = rng.uniform(10.0, 70.0, (4, 2, 5))
        batch = (truth + 1.0, truth, truth > 20.0)
        alive[:] = [weakref.ref(a) for a in batch]
        return batch

    overall, rows = M.batch_metrics("m", (draw() for _ in range(5)))
    assert overall[3] > 0 and [r[1] for r in rows] == [1, 2]


def test_format_report_table_alignment():
    rows = [("dgcrn", 1, 1.0, 2.0, 3.0, 10), ("longer-name", 12, 4.0, 5.0, 6.0, 999)]
    text = M.format_report_table(rows)
    lines = text.splitlines()
    assert len(lines) == 4
    assert len({len(line) for line in lines}) == 1  # every line same width
    assert lines[0].startswith("model")
    assert "longer-name" in lines[3]


def test_masked_metrics_perfect_prediction_is_zero():
    rng = np.random.default_rng(6)
    truth = rng.uniform(10, 60, (5, 3, 2))
    mask = np.ones_like(truth)
    _, rows = M.batch_metrics("oracle", [(truth, truth, mask)])
    assert len(rows) == 3
    for _, _, mae, rmse, mape, _ in rows:
        assert mae == 0.0 and rmse == 0.0 and mape == 0.0


def test_masked_metrics_ignores_masked_values():
    truth = np.array([4.0, 4.0])
    pred = np.array([4.0, 4.0])
    mask = np.array([1.0, 0.0])
    base = M.masked_metrics(pred, truth, mask)
    wild = pred.copy()
    wild[1] = 1e9
    assert M.masked_metrics(wild, truth, mask) == base


def test_rmse_at_least_mae_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pred = rng.normal(40, 10, n)
        truth = rng.normal(40, 10, n)
        mask = (rng.random(n) < 0.8).astype(float)
        got = M.masked_metrics(pred, truth, mask)
        if got is None:
            continue
        mae, rmse, _, _ = got
        assert rmse >= mae - 1e-12


def test_persistence_on_linear_ramp():
    # slope 1 per step: horizon-k error is exactly k
    t = np.arange(30.0)
    v = np.stack([t, t + 5.0], axis=1)
    series = SpeedSeries(v, 300, 0)
    stats = NormStats.fit(v)
    got = make_windows(series, 4, 3, stats, v)
    fc = M.persistence_forecast(got.x, stats, 3)
    _, rows = M.batch_metrics("persistence", [(fc, got.y, got.mask)])
    for k, (_, h, mae, rmse, _, _) in enumerate(rows, start=1):
        assert h == k
        assert mae == pytest.approx(k, abs=1e-9)
        assert rmse == pytest.approx(k, abs=1e-9)


def test_weekly_average_nails_pure_daily_signal():
    # noise-free, event-free synthetic data repeats every day, so the weekly
    # profile learned on train predicts val/test almost exactly
    from dgcrn.data import build_dataset, split, synth_distances, synth_generate
    from dgcrn.graphs import build_adjacency

    graph = build_adjacency(synth_distances(4, seed=3), kappa=0.1)
    series = synth_generate(4, 10, graph, seed=3, congestion_rate=0.0, noise_std=0.0)
    train, _, test = split(series, "days", 7, 1, 2)
    ha = M.HistoricalAverage.fit(train)
    pred = ha.predict_at(test.timestamps())
    mask = np.isfinite(test.values).astype(float)
    mae, _, _, _ = M.masked_metrics(pred, test.values, mask)
    assert mae < 1e-9


def test_write_analysis_csv(tmp_path):
    t = np.arange(30.0)
    v = np.stack([t, 2.0 * t, -t], axis=1)
    report = M.analyze_dataset(SpeedSeries(v, 300, 0))
    path = tmp_path / "analysis.csv"
    M.write_analysis_csv(path, report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,bin_lo,bin_hi,count"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"speed", "correlation"}
    speed_total = sum(int(line.split(",")[3]) for line in lines[1:]
                      if line.split(",")[0] == "speed")
    assert speed_total == 90
