"""Command bodies of the batch CLI.

This module loads numpy, so `cli.main` imports it only after `_setup_threads`
has turned DGCRN_THREADS into the BLAS thread caps; everything it needs is
imported once, here at the top. Each `_cmd_*(args, cfg, out)` does only its
own work and returns the manifest's `(seed, inputs, outputs)`; loading the
config, creating `--out` and writing the manifest are `cli.main`'s.
"""
from __future__ import annotations

import os
import time

import numpy as np

from . import data as D
from . import graphs as G
from . import metrics as MT
from . import model as M
from . import serialize as S
from . import tensor as T
from . import training as TR
from .errors import ConfigError, DimensionError, NumericError

GRADCHECK_TOL = 1e-4


def _load_series(cfg):
    path = cfg.data.speeds
    if not path:
        raise ConfigError("data.speeds is not set; point it at a speed file")
    series = S.load_speed_bin(path) if path.endswith(".bin") else D.load_speed_csv(path)
    if cfg.data.zero_as_missing:
        series.values = D.mask_zero_sentinel(series.values)
    return series


def _load_graph(cfg):
    path = cfg.data.distances
    if not path:
        raise ConfigError("data.distances is not set; point it at a distance "
                          "CSV or a cached graph .bin")
    if path.endswith(".bin"):
        return S.load_graph_bin(path, cfg.data.kappa)
    return G.build_adjacency(G.load_distance_csv(path), cfg.data.kappa)


def _resolve_horizons(arg, cfg_list, output_len):
    """Horizons to report: explicit ones are checked, defaults are clipped."""
    if arg:
        try:
            horizons = [int(h) for h in arg.split(",") if h.strip()]
        except ValueError:
            raise ConfigError("--horizons must be comma-separated integers; "
                              "got %r" % arg) from None
        if not horizons:
            raise ConfigError("--horizons is empty")
        for h in horizons:
            if not 1 <= h <= output_len:
                raise ConfigError("horizon %d outside 1..%d" % (h, output_len))
        return horizons
    horizons = [h for h in cfg_list if 1 <= h <= output_len]
    return horizons or list(range(1, output_len + 1))


def _progress(row):
    epoch, train_mae, val_mae, val_rmse, val_mape, seconds, horizon, sp = row
    print("epoch %3d  train %.4f  val %.4f  rmse %.4f  mape %.2f%%  "
          "(%.1fs, horizon %d, ss %.3f)"
          % (epoch, train_mae, val_mae, val_rmse, val_mape, seconds, horizon, sp))


def _fit_run(cfg, args, series):
    """Load the graph, build the dataset from `series`, init the model and fit it."""
    graph = _load_graph(cfg)
    dataset = D.build_dataset(series, cfg.model.input_len, cfg.model.output_len,
                              cfg.data.split, cfg.data.train, cfg.data.val,
                              cfg.data.test)
    params = M.init_model(cfg.model, dataset.n_nodes, seed=cfg.train.seed,
                          dtype=np.float64 if args.precision == 64 else np.float32)
    history, best_val = TR.fit(params, graph, dataset, cfg.train,
                               progress=None if args.quiet else _progress)
    return graph, dataset, params, history, best_val


def _save_run(out, ablation, params, dataset, history, best_val):
    """Write checkpoint.ckpt and training_log.csv; returns both paths."""
    ckpt_path = os.path.join(out, "checkpoint.ckpt")
    log_path = os.path.join(out, "training_log.csv")
    S.save_checkpoint(ckpt_path, params, dataset.stats,
                      extra={"ablation": ablation,
                             "best_val_mae": best_val,
                             "epochs": len(history)})
    TR.write_training_log(log_path, history)
    return ckpt_path, log_path


def _write_report(out, horizons, rows):
    """Write the requested horizons' rows to report.csv, print them, return the path."""
    rows = [r for r in rows if r[1] in horizons]
    report_path = os.path.join(out, "report.csv")
    MT.write_report_csv(report_path, rows)
    print(MT.format_report_table(rows))
    return report_path


def _cmd_gen_data(args, cfg, out):
    seed = args.seed if args.seed is not None else 0
    d = cfg.data
    distances = D.synth_distances(d.n_nodes, seed)
    graph = G.build_adjacency(distances, d.kappa)
    # separate stream for the series so graph layout and traffic do not share draws
    series = D.synth_generate(d.n_nodes, d.n_days, graph, seed + 1,
                              congestion_rate=d.congestion_rate,
                              noise_std=d.noise_std, dt_seconds=d.dt_seconds)
    speeds_path = os.path.join(out, "speeds.bin")
    dist_path = os.path.join(out, "distances.csv")
    S.save_speed_bin(speeds_path, series)
    G.write_distance_csv(dist_path, distances)
    missing = 1.0 - float(np.isfinite(series.values).mean())
    print("wrote %s (%d nodes, %d steps, %.1f%% missing) and %s"
          % (speeds_path, series.n_nodes, series.n_steps, 100 * missing, dist_path))
    return seed, [], [speeds_path, dist_path]


def _cmd_build_graph(args, cfg, out):
    src = args.distances or cfg.data.distances
    if not src:
        raise ConfigError("no distance file: pass one or set data.distances")
    graph = G.build_adjacency(G.load_distance_csv(src), cfg.data.kappa)
    path = os.path.join(out, "graph.bin")
    S.save_graph_bin(path, graph, cfg.data.kappa)
    off_diag = graph.adjacency.copy()
    np.fill_diagonal(off_diag, 0.0)
    print("wrote %s (%d nodes, %d directed edges, kappa %g)"
          % (path, graph.n_nodes, int(np.count_nonzero(off_diag)), cfg.data.kappa))
    return None, [src], [path]


def _cmd_train(args, cfg, out):
    _, dataset, params, history, best_val = _fit_run(cfg, args, _load_series(cfg))
    ckpt_path, log_path = _save_run(out, args.ablation or "", params, dataset, history, best_val)
    print("best val MAE %.4f after %d epochs; wrote %s"
          % (best_val, len(history), ckpt_path))
    return cfg.train.seed, [cfg.data.speeds, cfg.data.distances], [ckpt_path, log_path]


def _cmd_eval(args, cfg, out):
    params, stats, extra = S.load_checkpoint(args.checkpoint)
    horizons = _resolve_horizons(args.horizons, cfg.eval.horizons, params.hp.output_len)
    series = _load_series(cfg)
    graph = _load_graph(cfg)
    if graph.n_nodes != params.n_nodes:
        raise DimensionError("graph has %d nodes but checkpoint expects %d"
                             % (graph.n_nodes, params.n_nodes))
    dataset = D.build_dataset(series, params.hp.input_len, params.hp.output_len,
                              cfg.data.split, cfg.data.train, cfg.data.val,
                              cfg.data.test, stats=stats)
    samples = getattr(dataset, cfg.eval.split)
    name = extra.get("ablation") or "DGCRN"
    overall, rows = TR.evaluate(params, graph, samples, stats,
                                batch_size=cfg.eval.batch_size, model_name=name)
    report_path = _write_report(out, horizons, rows)
    print("%s split overall: MAE %.4f  RMSE %.4f  MAPE %.2f%%  (n=%d)"
          % (cfg.eval.split, overall[0], overall[1], overall[2], overall[3]))
    return None, [args.checkpoint, cfg.data.speeds, cfg.data.distances], [report_path]


def run_gradcheck(seed: int = 0):
    """End-to-end finite-difference check on a tiny 64-bit model.

    Differentiates `training.batch_loss`, the loss `train_step` backpropagates,
    on a random batch over three decoder steps with coins (False, True): step 2
    is fed step 1's forecast and step 3 the label. Returns (max relative error
    against a central difference, parameter tensors checked).
    """
    hp = M.HyperParams(hidden=4, emb_dim=3, hyper_dim=3, hops=2, hyper_hops=2,
                       input_len=2, output_len=3)
    n_nodes, batch = 3, 2
    rng = np.random.default_rng(seed)
    graph = G.build_adjacency(D.synth_distances(n_nodes, seed), kappa=0.1)
    params = M.init_model(hp, n_nodes, seed=seed, dtype=np.float64)
    x = rng.normal(0.0, 1.0, (batch, hp.input_len, n_nodes, 2))
    tod = rng.uniform(0.0, 1.0, (batch, hp.output_len))
    y_raw = rng.uniform(20.0, 60.0, (batch, hp.output_len, n_nodes))
    mask = np.ones(y_raw.shape, dtype=bool)
    mask[0, 0, 1] = False
    stats = D.NormStats(mean=40.0, std=12.0)

    def loss():
        return TR.batch_loss(params, graph, (x, y_raw, tod, mask), stats,
                             hp.output_len, (False, True))

    M.zero_grads(params)
    loss().backward()
    named = M.named_parameters(params)
    analytic = {name: p.grad.copy() for name, p in named}
    worst = 0.0
    for name, p in named:
        fd = T.finite_diff_grad(lambda _: loss(), p)
        worst = max(worst, T.max_rel_err(analytic[name], fd))
    return worst, len(named)


def _cmd_gradcheck(args):
    seed = args.seed if args.seed is not None else 0
    t0 = time.monotonic()
    worst, n_params = run_gradcheck(seed)
    seconds = time.monotonic() - t0
    print("max relative gradient error %.3e over %d parameter tensors (%.1fs)"
          % (worst, n_params, seconds))
    if not worst < GRADCHECK_TOL:
        raise NumericError("gradient check failed: %.3e >= %g"
                           % (worst, GRADCHECK_TOL))


def _cmd_bench(args, cfg, out):
    # a bad --horizons, or a clock the weekly baseline cannot use, must fail
    # before training, not after it
    horizons = _resolve_horizons(args.horizons, cfg.eval.horizons, cfg.model.output_len)
    series = _load_series(cfg)
    seg_train, _, _ = D.split(series, cfg.data.split, cfg.data.train,
                              cfg.data.val, cfg.data.test)
    ha = MT.HistoricalAverage.fit(seg_train)
    graph, dataset, params, history, best_val = _fit_run(cfg, args, series)
    samples = getattr(dataset, cfg.eval.split)
    _, rows = TR.evaluate(params, graph, samples, dataset.stats,
                          batch_size=cfg.eval.batch_size, model_name="DGCRN")
    # the baselines are forecast and scored one batch of samples at a time
    bs = cfg.eval.batch_size
    batches = [slice(lo, lo + bs) for lo in range(0, len(samples), bs)]
    for name, forecast in (("HA", lambda r: ha.predict_at(samples.target_ts[r])),
                           ("persistence", lambda r: MT.persistence_forecast(
                               samples.x[r], dataset.stats, dataset.output_len))):
        rows += MT.batch_metrics(name, ((forecast(r), samples.y[r], samples.mask[r])
                                        for r in batches))[1]

    report_path = _write_report(out, horizons, rows)
    ckpt_path, log_path = _save_run(out, "", params, dataset, history, best_val)
    return (cfg.train.seed, [cfg.data.speeds, cfg.data.distances],
            [ckpt_path, log_path, report_path])


def _cmd_analyze(args, cfg, out):
    series = _load_series(cfg)
    graph = _load_graph(cfg) if cfg.data.distances else None
    report = MT.analyze_dataset(series, graph)
    path = os.path.join(out, "analysis.csv")
    MT.write_analysis_csv(path, report)
    inputs = [cfg.data.speeds] + ([cfg.data.distances] if cfg.data.distances else [])
    print(MT.render_analysis(report))
    print("wrote %s" % path)
    return None, inputs, [path]
