"""Batch command-line front end.

Commands: gen-data, build-graph, train, eval, gradcheck, bench, analyze.
Exit codes: 0 success, 1 validation or usage error, 2 numeric failure.

`main` loads the config, creates `--out` and writes `<command>.manifest.json`
for every command that reads a config, recording the command, the resolved
config, the seed, input and output paths, and start/end timestamps, so any
artifact can be traced back to the exact invocation that produced it. Each
`_cmd_*(args, cfg, out)` does only its own work and returns the manifest's
`(seed, inputs, outputs)`.

Only the standard library is imported at module scope: DGCRN_THREADS must
be translated into the BLAS thread caps before numpy first loads.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

GRADCHECK_TOL = 1e-4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _setup_threads():
    """Propagate DGCRN_THREADS (default 1) to the BLAS thread caps.

    Must run before numpy is imported anywhere in the process; existing
    explicit caps are left alone. Returns an error message or None.
    """
    raw = os.environ.get("DGCRN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        return "DGCRN_THREADS must be a positive integer; got %r" % raw
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))
    return None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # numeric failures, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_dir, command, cfg, seed, inputs, outputs, started):
    from . import __version__

    doc = {
        "command": command,
        "config": asdict(cfg),
        "seed": seed,
        "inputs": list(inputs),
        "outputs": [os.path.basename(p) for p in outputs],
        "started": started,
        "finished": _now(),
        "version": __version__,
    }
    path = os.path.join(out_dir, command + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_cfg(args):
    from .config import apply_ablation, load_config

    cfg = load_config(args.config)
    name = getattr(args, "ablation", None)
    if name:
        apply_ablation(cfg, name)
    if getattr(args, "seed", None) is not None:
        cfg.train.seed = args.seed
    cfg.validate()
    return cfg


def _dtype(args):
    import numpy as np

    return np.float64 if getattr(args, "precision", 32) == 64 else np.float32


def _load_series(cfg):
    from . import data as D
    from . import serialize as S
    from .errors import ConfigError

    path = cfg.data.speeds
    if not path:
        raise ConfigError("data.speeds is not set; point it at a speed file")
    series = S.load_speed_bin(path) if path.endswith(".bin") else D.load_speed_csv(path)
    if cfg.data.zero_as_missing:
        series.values = D.mask_zero_sentinel(series.values)
    return series


def _load_graph(cfg):
    from . import graphs as G
    from . import serialize as S
    from .errors import ConfigError

    path = cfg.data.distances
    if not path:
        raise ConfigError("data.distances is not set; point it at a distance "
                          "CSV or a cached graph .bin")
    if path.endswith(".bin"):
        return S.load_graph_bin(path)
    return G.build_adjacency(G.load_distance_csv(path), cfg.data.kappa)


def _resolve_horizons(arg, cfg_list, output_len):
    """Horizons to report: explicit ones are checked, defaults are clipped."""
    from .errors import ConfigError

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


# -- commands -------------------------------------------------------------------------


def _cmd_gen_data(args, cfg, out):
    import numpy as np

    from . import data as D
    from . import graphs as G
    from . import serialize as S

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
    import numpy as np

    from . import graphs as G
    from . import serialize as S
    from .errors import ConfigError

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


def _fit_run(cfg, args, series):
    """Load the graph, build the dataset from `series`, init the model and fit it."""
    from . import model as M
    from . import training as TR
    from .data import build_dataset

    graph = _load_graph(cfg)
    dataset = build_dataset(series, cfg.model.input_len, cfg.model.output_len,
                            cfg.data.split, cfg.data.train, cfg.data.val,
                            cfg.data.test)
    params = M.init_model(cfg.model, dataset.n_nodes, seed=cfg.train.seed,
                          dtype=_dtype(args))
    history, best_val = TR.fit(params, graph, dataset, cfg.train,
                               progress=None if args.quiet else _progress)
    return graph, dataset, params, history, best_val


def _save_run(out, ablation, params, dataset, history, best_val):
    """Write checkpoint.ckpt and training_log.csv; returns both paths."""
    from . import serialize as S
    from . import training as TR

    ckpt_path = os.path.join(out, "checkpoint.ckpt")
    log_path = os.path.join(out, "training_log.csv")
    S.save_checkpoint(ckpt_path, params, dataset.stats,
                      extra={"ablation": ablation,
                             "best_val_mae": best_val,
                             "epochs": len(history)})
    TR.write_training_log(log_path, history)
    return ckpt_path, log_path


def _cmd_train(args, cfg, out):
    _, dataset, params, history, best_val = _fit_run(cfg, args, _load_series(cfg))
    ckpt_path, log_path = _save_run(out, args.ablation or "", params, dataset, history, best_val)
    print("best val MAE %.4f after %d epochs; wrote %s"
          % (best_val, len(history), ckpt_path))
    return cfg.train.seed, [cfg.data.speeds, cfg.data.distances], [ckpt_path, log_path]


def _write_report(out, horizons, rows):
    """Write the requested horizons' rows to report.csv, print them, return the path."""
    from . import metrics as MT

    rows = [r for r in rows if r[1] in horizons]
    report_path = os.path.join(out, "report.csv")
    MT.write_report_csv(report_path, rows)
    print(MT.format_report_table(rows))
    return report_path


def _cmd_eval(args, cfg, out):
    from . import serialize as S
    from . import training as TR
    from .data import build_dataset
    from .errors import DimensionError

    params, stats, extra = S.load_checkpoint(args.checkpoint)
    horizons = _resolve_horizons(args.horizons, cfg.eval.horizons, params.hp.output_len)
    series = _load_series(cfg)
    graph = _load_graph(cfg)
    if graph.n_nodes != params.n_nodes:
        raise DimensionError("graph has %d nodes but checkpoint expects %d"
                             % (graph.n_nodes, params.n_nodes))
    dataset = build_dataset(series, params.hp.input_len, params.hp.output_len,
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

    Pushes a random batch through encoder, decoder and masked-MAE loss,
    then compares every parameter's backpropagated gradient against a
    central difference. Returns (max relative error, parameters checked).
    """
    import numpy as np

    from . import tensor as T
    from .data import NormStats, synth_distances
    from .graphs import build_adjacency
    from .model import HyperParams, encode, decode, init_model, named_parameters, zero_grads
    from .training import masked_mae_loss

    hp = HyperParams(hidden=4, emb_dim=3, hyper_dim=3, hops=2, hyper_hops=2,
                     input_len=2, output_len=2)
    n_nodes, batch = 3, 2
    rng = np.random.default_rng(seed)
    graph = build_adjacency(synth_distances(n_nodes, seed), kappa=0.1)
    params = init_model(hp, n_nodes, seed=seed, dtype=np.float64)
    x = T.Tensor(rng.normal(0.0, 1.0, (batch, hp.input_len, n_nodes, 2)))
    tq = T.Tensor(rng.uniform(0.0, 1.0, (batch, hp.output_len, n_nodes, 1)))
    y_raw = rng.uniform(20.0, 60.0, (batch, hp.output_len, n_nodes))
    mask = np.ones_like(y_raw)
    mask[0, 0, 1] = 0.0
    stats = NormStats(mean=40.0, std=12.0)

    def forward():
        h = encode(x, graph, params)
        pred = decode(h, tq, graph, params)
        return masked_mae_loss(pred, y_raw, mask, stats)

    loss = forward()
    zero_grads(params)
    loss.backward()
    named = named_parameters(params)
    analytic = {name: p.grad.copy() for name, p in named}
    worst = 0.0
    for name, p in named:
        fd = T.finite_diff_grad(lambda _: forward(), p)
        worst = max(worst, T.max_rel_err(analytic[name], fd))
    return worst, len(named)


def _cmd_gradcheck(args):
    from .errors import NumericError

    seed = args.seed if args.seed is not None else 0
    t0 = time.monotonic()
    worst, n_params = run_gradcheck(seed)
    seconds = time.monotonic() - t0
    print("max relative gradient error %.3e over %d parameter tensors (%.1fs)"
          % (worst, n_params, seconds))
    if not worst < GRADCHECK_TOL:
        raise NumericError("gradient check failed: %.3e >= %g"
                           % (worst, GRADCHECK_TOL))
    return EXIT_OK


def _cmd_bench(args, cfg, out):
    from . import metrics as MT
    from . import training as TR
    from .data import split

    # a bad --horizons, or a clock the weekly baseline cannot use, must fail
    # before training, not after it
    horizons = _resolve_horizons(args.horizons, cfg.eval.horizons, cfg.model.output_len)
    series = _load_series(cfg)
    seg_train, _, _ = split(series, cfg.data.split, cfg.data.train,
                            cfg.data.val, cfg.data.test)
    ha = MT.HistoricalAverage.fit(seg_train)
    graph, dataset, params, history, best_val = _fit_run(cfg, args, series)
    samples = getattr(dataset, cfg.eval.split)
    _, rows = TR.evaluate(params, graph, samples, dataset.stats,
                          batch_size=cfg.eval.batch_size, model_name="DGCRN")
    rows += MT.per_horizon_metrics("HA", ha.predict_at(samples.target_ts),
                                   samples.y, samples.mask)
    rows += MT.per_horizon_metrics(
        "persistence",
        MT.persistence_forecast(samples.x, dataset.stats, dataset.output_len),
        samples.y, samples.mask)

    report_path = _write_report(out, horizons, rows)
    ckpt_path, log_path = _save_run(out, "", params, dataset, history, best_val)
    return (cfg.train.seed, [cfg.data.speeds, cfg.data.distances],
            [ckpt_path, log_path, report_path])


def _cmd_analyze(args, cfg, out):
    from . import metrics as MT

    series = _load_series(cfg)
    graph = _load_graph(cfg) if cfg.data.distances else None
    report = MT.analyze_dataset(series, graph)
    path = os.path.join(out, "analysis.csv")
    MT.write_analysis_csv(path, report)
    inputs = [cfg.data.speeds] + ([cfg.data.distances] if cfg.data.distances else [])
    print(MT.render_analysis(report))
    print("wrote %s" % path)
    return None, inputs, [path]


# -- wiring ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .config import config_help_text

    epilog = config_help_text()
    parser = _Parser(
        prog="dgcrn",
        description="Traffic-speed forecasting with dynamic graph "
                    "convolutional recurrent networks.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True, parser_class=_Parser)

    def add(name, help_text, func, config=True, seed=False, out=True,
            ablation=False, precision=False, horizons=False, quiet=False):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        if config:
            p.add_argument("--config", metavar="PATH",
                           help="YAML config file (defaults apply when omitted)")
        if seed:
            p.add_argument("--seed", type=int, metavar="U64",
                           help="seed for every random draw in this run")
        if out:
            p.add_argument("--out", metavar="DIR", default=".",
                           help="output directory (default: current)")
        if ablation:
            p.add_argument("--ablation", metavar="NAME",
                           help="named single-switch model variant")
        if precision:
            p.add_argument("--precision", type=int, choices=(32, 64),
                           default=32, help="float width (default 32)")
        if horizons:
            p.add_argument("--horizons", metavar="LIST",
                           help="comma-separated horizons to report, e.g. 3,6,12")
        if quiet:
            p.add_argument("--quiet", action="store_true",
                           help="suppress per-epoch progress lines")
        # a command that reads a config runs inside main's manifest step
        p.set_defaults(func=func, manifest=config)
        return p

    add("gen-data", "synthesize a speed dataset plus sensor distances",
        _cmd_gen_data, seed=True)
    p = add("build-graph", "cache a static graph built from a distance CSV",
            _cmd_build_graph)
    p.add_argument("distances", nargs="?", metavar="DISTANCES",
                   help="distance CSV (default: data.distances from config)")
    add("train", "train a model and write checkpoint plus training log",
        _cmd_train, seed=True, ablation=True, precision=True, quiet=True)
    p = add("eval", "score a checkpoint on a data split", _cmd_eval,
            horizons=True)
    p.add_argument("checkpoint", metavar="CHECKPOINT", help="checkpoint file")
    add("gradcheck", "finite-difference check of the whole gradient path",
        _cmd_gradcheck, config=False, seed=True, out=False)
    add("bench", "train and score the model against HA and persistence",
        _cmd_bench, seed=True, precision=True, horizons=True, quiet=True)
    add("analyze", "summary statistics of a speed dataset", _cmd_analyze)
    return parser


def main(argv=None) -> int:
    err = _setup_threads()
    if err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    from .errors import (ConfigError, DegenerateInputError, DimensionError,
                         NumericError)

    try:
        if not args.manifest:
            return args.func(args)
        cfg = _load_cfg(args)
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        started = _now()
        seed, inputs, outputs = args.func(args, cfg, out)
        _write_manifest(out, args.command, cfg, seed, inputs, outputs, started)
        return EXIT_OK
    except NumericError as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DimensionError, DegenerateInputError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
