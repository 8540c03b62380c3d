"""Batch command-line front end.

Commands: gen-data, build-graph, train, eval, gradcheck, bench, analyze.
Exit codes: 0 success, 1 validation or usage error, 2 numeric failure.

`main` loads the config, creates `--out` and writes `<command>.manifest.json`
for every command that reads a config, recording the command, the resolved
config, the seed, input and output paths, and start/end timestamps, so any
artifact can be traced back to the exact invocation that produced it. The
command bodies live in `dgcrn.commands`.

This module holds only what must run before numpy loads: BLAS reads its
thread caps once, when numpy first loads it, so DGCRN_THREADS must be copied
into them before then. Nothing imported at module scope loads numpy, and
`main` imports `commands` and `config` (the modules that do) only after
`_setup_threads` has run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .errors import ConfigError, DegenerateInputError, DimensionError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

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


def build_parser(commands, epilog: str) -> argparse.ArgumentParser:
    """The `dgcrn` parser over `commands`, the module of command bodies."""
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
        commands._cmd_gen_data, seed=True)
    p = add("build-graph", "cache a static graph built from a distance CSV",
            commands._cmd_build_graph)
    p.add_argument("distances", nargs="?", metavar="DISTANCES",
                   help="distance CSV (default: data.distances from config)")
    add("train", "train a model and write checkpoint plus training log",
        commands._cmd_train, seed=True, ablation=True, precision=True, quiet=True)
    p = add("eval", "score a checkpoint on a data split", commands._cmd_eval,
            horizons=True)
    p.add_argument("checkpoint", metavar="CHECKPOINT", help="checkpoint file")
    add("gradcheck", "finite-difference check of the whole gradient path",
        commands._cmd_gradcheck, config=False, seed=True, out=False)
    add("bench", "train and score the model against HA and persistence",
        commands._cmd_bench, seed=True, precision=True, horizons=True, quiet=True)
    add("analyze", "summary statistics of a speed dataset", commands._cmd_analyze)
    return parser


def main(argv=None) -> int:
    err = _setup_threads()
    if err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    # numpy and yaml load here, after the thread caps are set
    from . import commands, config

    try:
        args = build_parser(commands, config.config_help_text()).parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if not args.manifest:
            args.func(args)
            return EXIT_OK
        cfg = config.load_config(args.config)
        if getattr(args, "ablation", None):
            config.apply_ablation(cfg, args.ablation)
        if getattr(args, "seed", None) is not None:
            cfg.train.seed = args.seed
        cfg.validate()
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
