"""Series container, normalization, splits, windows, imputation, synth data."""
import re
import warnings

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from dgcrn import data as D
from dgcrn import graphs as G
from dgcrn.errors import ConfigError, DegenerateInputError, DimensionError
from dgcrn.graphs import StaticGraph, build_adjacency

from csvfiles import load_report_csv, load_training_log, write_speed_csv
from oracles import ffill_ref, windows_ref


def _series(t=24, n=3, dt=300, start=0, seed=0):
    rng = np.random.default_rng(seed)
    return D.SpeedSeries(rng.uniform(20.0, 70.0, (t, n)), dt, start)


# -- container ------------------------------------------------------------------


def test_series_validation():
    with pytest.raises(DimensionError):
        D.SpeedSeries(np.zeros(5))
    with pytest.raises(ConfigError):
        D.SpeedSeries(np.zeros((4, 2)), dt_seconds=0)


def test_timestamps_and_time_of_day():
    s = D.SpeedSeries(np.zeros((4, 2)), dt_seconds=900, start_epoch=86400 - 900)
    assert list(s.timestamps()) == [85500, 86400, 87300, 88200]
    # wraps at midnight
    tod = s.time_of_day()
    assert tod[0] == pytest.approx(85500 / 86400)
    assert tod[1] == 0.0
    assert tod[2] == pytest.approx(900 / 86400)


def test_slice_steps_keeps_clock():
    s = _series(t=10, dt=300, start=1000)
    part = s.slice_steps(4, 8)
    assert part.n_steps == 4
    assert part.start_epoch == 1000 + 4 * 300
    assert np.array_equal(part.values, s.values[4:8])


def test_mask_zero_sentinel():
    v = np.array([[0.0, 3.0], [5.0, 0.0]])
    out = D.mask_zero_sentinel(v)
    assert np.isnan(out[0, 0]) and np.isnan(out[1, 1])
    assert out[0, 1] == 3.0 and out[1, 0] == 5.0
    # input untouched
    assert v[0, 0] == 0.0


# -- normalization --------------------------------------------------------------


def test_norm_stats_ignore_missing():
    v = np.array([[1.0, np.nan], [3.0, np.nan]])
    st = D.NormStats.fit(v)
    assert st.mean == 2.0
    assert st.std == 1.0


def test_norm_stats_degenerate():
    with pytest.raises(DegenerateInputError):
        D.NormStats.fit(np.full((3, 2), np.nan))
    with pytest.raises(DegenerateInputError):
        D.NormStats.fit(np.full((3, 2), 7.0))


def test_normalize_round_trip_and_sentinel():
    st = D.NormStats(mean=10.0, std=4.0)
    x = np.array([10.0, 14.0, np.nan])
    z = D.normalize(x, st)
    assert z[0] == 0.0 and z[1] == 1.0 and np.isnan(z[2])
    back = z * st.std + st.mean
    assert back[0] == 10.0 and back[1] == 14.0 and np.isnan(back[2])


# -- splits ----------------------------------------------------------------------


def test_split_ratio_floor_remainder_to_test():
    s = _series(t=10)
    a, b, c = D.split(s, "ratio", 0.7, 0.1, 0.2)
    assert (a.n_steps, b.n_steps, c.n_steps) == (7, 1, 2)
    joined = np.concatenate([a.values, b.values, c.values], axis=0)
    assert np.array_equal(joined, s.values)


def test_split_ratio_validation():
    s = _series(t=10)
    with pytest.raises(ConfigError):
        D.split(s, "ratio", 0.7, 0.2, 0.2)
    with pytest.raises(ConfigError):
        D.split(s, "ratio", 0.98, 0.01, 0.01)  # empty val segment


def test_split_days_alignment():
    spd = 86400 // 300
    s = _series(t=5 * spd)
    a, b, c = D.split(s, "days", 3, 1, 1)
    assert (a.n_steps, b.n_steps, c.n_steps) == (3 * spd, spd, spd)
    # segments start at midnight boundaries
    assert b.start_epoch % 86400 == 0
    assert c.start_epoch % 86400 == 0
    with pytest.raises(ConfigError):
        D.split(s, "days", 3, 1, 2)  # 6 days asked, 5 present
    with pytest.raises(ConfigError):
        D.split(D.SpeedSeries(np.ones((10, 2)), dt_seconds=7), "days", 1, 1, 1)


# -- windows ---------------------------------------------------------------------


def test_make_windows_against_loop_reference():
    s = _series(t=30, n=4, dt=300, start=7200, seed=3)
    st = D.NormStats.fit(s.values)
    got = D.make_windows(s, 5, 3, st, s.values)
    x, y, tod, mask, ts = windows_ref(
        s.values, s.time_of_day(), s.timestamps(), 5, 3, st.mean, st.std
    )
    assert got.x.shape == (30 - 5 - 3 + 1, 5, 4, 2)
    np.testing.assert_allclose(got.x, x, rtol=0, atol=0)
    np.testing.assert_allclose(got.y, y, rtol=0, atol=0)
    np.testing.assert_allclose(got.tod, tod, rtol=0, atol=0)
    assert got.mask.dtype == bool
    assert np.array_equal(got.mask, mask)  # True == 1.0, False == 0.0
    assert np.array_equal(got.target_ts, ts)


def test_make_windows_missing_labels_masked():
    v = np.arange(12.0).reshape(6, 2)
    v[2, 1] = np.nan
    v[4, 1] = np.nan
    s = D.SpeedSeries(v)
    st = D.NormStats(mean=0.0, std=1.0)
    filled = np.nan_to_num(v, nan=-1.0)
    out = D.make_windows(s, 2, 2, st, filled=filled)
    # sample 0 labels are rows 2,3: (2,1) missing -> mask 0, y 0
    assert out.mask[0][0, 1] == 0.0
    assert out.y[0][0, 1] == 0.0
    # sample 1 labels are rows 3,4: (4,1) missing
    assert out.mask[1][1, 1] == 0.0
    assert out.y[1][1, 1] == 0.0
    # sample 2 inputs are rows 2,3: the imputed value feeds the speed channel
    assert out.x[2][0, 1, 0] == -1.0


def test_make_windows_are_read_only():
    s = _series(t=30, n=4)
    out = D.make_windows(s, 5, 3, D.NormStats(40.0, 10.0), s.values)
    for arr in (out.x, out.y, out.mask):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_make_windows_share_one_step_array():
    t, n, p, q = 200, 3, 12, 12
    s = _series(t=t, n=n, seed=4)
    s.values[7, 1] = np.nan
    out = D.make_windows(s, p, q, D.NormStats.fit(s.values), s.values)
    count = len(out)
    for arr in (out.x, out.y, out.mask):
        # window i+1 is window i moved one step along the same memory
        assert np.shares_memory(arr[0, 1:], arr[1, :-1])
        assert np.array_equal(arr[0, 1:], arr[1, :-1], equal_nan=True)
    # each view spans one per-step array: T x N x 2 floats for x, T x N floats
    # for y and T x N bools for the mask
    spans = {}
    for name in ("x", "y", "mask"):
        lo, hi = byte_bounds(getattr(out, name))
        spans[name] = hi - lo
    assert spans["x"] <= t * n * 2 * 8
    assert spans["y"] <= t * n * 8 and spans["mask"] <= t * n
    copied = count * ((2 * p + q) * 8 + q) * n  # bytes of x, y and mask as copies
    assert sum(spans.values()) * 5 < copied


def test_make_windows_count_boundary():
    s = _series(t=8)
    out = D.make_windows(s, 4, 4, D.NormStats(0.0, 1.0), s.values)
    assert len(out) == 1


# -- imputation ------------------------------------------------------------------


def test_impute_forward_fill_matches_reference():
    rng = np.random.default_rng(11)
    v = rng.uniform(10.0, 60.0, (40, 5))
    v[rng.random(v.shape) < 0.3] = np.nan
    v[:, 2] = np.nan
    v[10, 2] = 33.0  # single observation; leading gap before it
    s = D.SpeedSeries(v)
    lead = np.nanmean(v, axis=0)
    out = D.impute_last(s, lead)
    expect = ffill_ref(v, lead)
    np.testing.assert_allclose(out.values, expect, rtol=0, atol=0)
    assert np.all(np.isfinite(out.values))


def test_impute_lead_fill_override():
    v = np.array([[np.nan, 1.0], [2.0, np.nan]])
    out = D.impute_last(D.SpeedSeries(v), lead_fill=np.array([9.0, 9.0]))
    assert out.values[0, 0] == 9.0      # leading gap -> supplied mean
    assert out.values[1, 1] == 1.0      # interior gap -> last observation


def test_impute_dead_node_rejected():
    v = np.array([[np.nan, 1.0], [np.nan, 2.0]])
    with pytest.raises(DegenerateInputError, match="node 0"):
        D.impute_last(D.SpeedSeries(v), lead_fill=np.array([np.nan, 1.5]))
    # a finite lead value rescues the dead node
    out = D.impute_last(D.SpeedSeries(v), lead_fill=np.array([5.0, 0.0]))
    assert np.all(out.values[:, 0] == 5.0)


# -- orchestration -----------------------------------------------------------------


def test_build_dataset_stats_from_train_only():
    rng = np.random.default_rng(5)
    v = rng.uniform(20.0, 40.0, (40, 3))
    v[35:] += 100.0  # shift the tail; must not leak into stats
    s = D.SpeedSeries(v)
    ds = D.build_dataset(s, 2, 2, "ratio", 0.7, 0.1, 0.2)
    st = D.NormStats.fit(v[:28])
    assert ds.stats.mean == st.mean
    assert ds.stats.std == st.std
    assert len(ds.train) == 28 - 4 + 1
    assert len(ds.test) == 8 - 4 + 1


def test_build_dataset_short_split_rejected():
    # one error naming the split, before any window is made: no warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^val split has 2 steps, fewer than P\+Q=12"):
            D.build_dataset(_series(t=20), 6, 6, "ratio", 0.7, 0.1, 0.2)
        with pytest.raises(ConfigError, match=r"^test split has 8 steps, fewer than P\+Q=12"):
            D.build_dataset(_series(t=80), 6, 6, "ratio", 0.7, 0.2, 0.1)


# -- synthetic data ----------------------------------------------------------------


def _synth_graph(n, seed=0):
    return build_adjacency(D.synth_distances(n, seed=seed), kappa=0.1)


def test_synth_distances_properties():
    d = D.synth_distances(6, seed=4)
    assert d.shape == (6, 6)
    assert np.all(np.diagonal(d) == 0.0)
    assert np.allclose(d, d.T)
    assert np.array_equal(d, D.synth_distances(6, seed=4))
    assert not np.array_equal(d, D.synth_distances(6, seed=5))


def test_synth_deterministic_per_seed():
    g = _synth_graph(4)
    a = D.synth_generate(4, 1, g, seed=7)
    b = D.synth_generate(4, 1, g, seed=7)
    c = D.synth_generate(4, 1, g, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n_steps == 86400 // 300
    assert a.dt_seconds == 300


def test_synth_quiet_day_is_periodic_sinusoid():
    g = _synth_graph(3)
    s = D.synth_generate(3, 2, g, seed=1, congestion_rate=0.0, noise_std=0.0)
    spd = 86400 // 300
    # no events, no noise: pure daily cycle, bitwise periodic
    assert np.array_equal(s.values[:spd], s.values[spd:])
    assert s.values.max() <= 60.0
    assert s.values.min() >= 60.0 - 12.0


def test_synth_congestion_dips_toward_floor():
    g = _synth_graph(5)
    s = D.synth_generate(5, 1, g, seed=2, congestion_rate=0.05, noise_std=0.0)
    assert s.values.min() >= 15.0
    assert s.values.min() < 20.0  # at least one full-depth event


def test_synth_congestion_propagates_with_lag():
    # hand graph: directed edge 0 -> 1 only (self-loops keep rows normalizable)
    g = StaticGraph(np.array([[1.0, 1.0], [0.0, 1.0]]))
    found = False
    for seed in range(40):
        s = D.synth_generate(2, 1, g, seed=seed, congestion_rate=0.003, noise_std=0.0)
        quiet = D.synth_generate(2, 1, g, seed=seed, congestion_rate=0.0, noise_std=0.0)
        c = (quiet.values - s.values) / (quiet.values - 15.0)
        # a source event at node 0 with node 1 quiet the step before
        hits = np.flatnonzero((c[:-1, 0] > 0.9) & (c[:-1, 1] < 1e-12))
        if hits.size:
            t = int(hits[0])
            assert c[t + 1, 1] == pytest.approx(0.6 * c[t, 0])
            found = True
            break
    assert found, "no isolated source event in 40 seeds; loosen the search"


# -- text files --------------------------------------------------------------------


def test_speed_csv_round_trip(tmp_path):
    s = _series(t=10, n=3, dt=300, start=1700000100, seed=9)
    s.values[3, 1] = np.nan
    path = tmp_path / "speeds.csv"
    write_speed_csv(s, path)
    back = D.load_speed_csv(path)
    assert back.dt_seconds == 300
    assert back.start_epoch == 1700000100
    assert np.isnan(back.values[3, 1])
    finite = np.isfinite(s.values)
    np.testing.assert_allclose(back.values[finite], s.values[finite], rtol=0, atol=0)


def test_speed_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,0,1\n")
    with pytest.raises(ConfigError):
        D.load_speed_csv(p)
    p.write_text("timestamp,0,1\n2024-01-01T00:00:00,1.0\n")
    with pytest.raises(ConfigError):
        D.load_speed_csv(p)
    p.write_text("timestamp,0,1\nnot-a-date,1.0,2.0\n")
    with pytest.raises(ConfigError):
        D.load_speed_csv(p)
    # a speed cell that is no number names the file and line
    p.write_text("timestamp,0,1\n2024-01-01T00:00:00,1.0,2.0\n2024-01-01T00:05:00,n/a,2.0\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:3: .*'n/a'"):
        D.load_speed_csv(p)
    # so does a speed that is infinite, NaN or negative: an empty cell is the
    # only missing marker
    for cell in ("inf", "-inf", "nan", "NaN", "-3.5", "1e400"):
        p.write_text("timestamp,0,1\n2024-01-01T00:00:00,1.0,2.0\n"
                     "2024-01-01T00:05:00,%s,2.0\n" % cell)
        with pytest.raises(ConfigError, match=r"bad\.csv:3: speed .*%r" % cell):
            D.load_speed_csv(p)
    p.write_text("timestamp,0,1\n")
    with pytest.raises(DegenerateInputError):
        D.load_speed_csv(p)
    p.write_text(
        "timestamp,0,1\n2024-01-01T00:00:00,1.0,2.0\n"
        "2024-01-01T00:05:00,1.0,2.0\n2024-01-01T00:15:00,1.0,2.0\n"
    )
    with pytest.raises(ConfigError):
        D.load_speed_csv(p)


# per reader: header, two good rows, a short row, a row with a bad value
_CSV_FORMATS = {
    "speed": (D.load_speed_csv, "timestamp,0,1",
              ["2024-01-01T00:00:00,1.0,2.0", "2024-01-01T00:05:00,1.5,2.5"],
              "2024-01-01T00:10:00,1.0", "2024-01-01T00:10:00,x,2.0"),
    "distance": (G.load_distance_csv, "from,to,distance",
                 ["0,1,1.5", "1,0,2.5"], "0,1", "0,x,1.0"),
    "report": (load_report_csv, "model,horizon,mae,rmse,mape,n_observed",
               ["dgcrn,3,2.5,4.25,6.125,1200", "ha,3,3.0,4.0,5.0,1200"],
               "dgcrn,3", "dgcrn,3,2.5,x,6.125,1200"),
    "log": (load_training_log,
            "epoch,train_mae,val_mae,val_rmse,val_mape,seconds,horizon_i,ss_prob",
            ["1,2.0,3.0,4.0,5.0,6.0,1,0.5", "2,1.5,2.5,3.5,4.5,5.5,2,0.25"],
            "1,2.0", "2,1.5,2.5,3.5,4.5,5.5,two,0.25"),
}


def _comparable(loaded):
    if isinstance(loaded, D.SpeedSeries):
        return loaded.values.tolist(), loaded.dt_seconds, loaded.start_epoch
    return np.asarray(loaded, dtype=object).tolist()


@pytest.mark.parametrize("fmt", sorted(_CSV_FORMATS))
def test_csv_readers_share_rules(tmp_path, fmt):
    read, header, good, short, bad = _CSV_FORMATS[fmt]
    path = tmp_path / ("%s.csv" % fmt)
    where = re.escape(str(path))

    def rejects(text, match):
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ConfigError, match=match):
            read(path)

    rejects("wrong,header\n" + "\n".join(good) + "\n", "^%s: expected header" % where)
    rejects("\n".join([header, good[0], short]) + "\n", "^%s:3: expected %d fields, got %d"
            % (where, header.count(",") + 1, short.count(",") + 1))
    rejects("\n".join([header, good[0], bad]) + "\n", "^%s:3: " % where)
    rejects(("\n".join([header, good[0]]) + "\n").encode("utf-8") + b"\xff,\xfe\n",
            "^%s: .*utf-8" % where)
    rejects("\n".join([header, good[0], "9" * 200000]) + "\n", "^%s: field larger" % where)
    path.write_text("\n".join([header] + good) + "\n", encoding="utf-8")
    plain = read(path)
    path.write_text("\n".join([header, good[0], "", good[1], ""]) + "\n\n", encoding="utf-8")
    assert _comparable(read(path)) == _comparable(plain)


def test_synth_lag1_correlation_follows_edges():
    # congestion spreads along directed edges with a one-step lag, so the
    # lag-1 cross-correlation of the congestion component is higher for
    # adjacent pairs than for non-adjacent ones
    g = _synth_graph(8, seed=6)
    busy = D.synth_generate(8, 4, g, seed=10, congestion_rate=0.01, noise_std=0.0)
    quiet = D.synth_generate(8, 4, g, seed=10, congestion_rate=0.0, noise_std=0.0)
    c = quiet.values - busy.values  # congestion-induced slowdown only

    def lag1(i, j):
        a, b = c[:-1, i], c[1:, j]
        sa, sb = a.std(), b.std()
        if sa == 0.0 or sb == 0.0:
            return None
        return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))

    adj, non = [], []
    n = g.n_nodes
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = lag1(i, j)
            if r is None:
                continue
            (adj if g.adjacency[i, j] > 0 else non).append(r)
    assert adj and non
    assert np.mean(adj) > np.mean(non)
