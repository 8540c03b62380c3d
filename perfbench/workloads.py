"""The dgcrn benchmark workloads: set-up, a timed closed loop, output checks.

Each workload drives one public entry point of the library from a single
caller that waits on every call (closed loop, one client):

- train-small / train-metrla: ``training.train_step`` on random batches,
  full horizon (``curriculum: false``), so every step runs P+Q cell steps.
- infer-metrla: no-grad ``training.predict`` one test batch at a time.
- fit-quickstart: ``training.fit`` for a fixed number of epochs, then
  ``save_checkpoint`` and ``write_training_log`` (the work of
  ``dgcrn train`` without process start-up), then a checkpoint reload.

Inputs come from the workload seed: the speed series and the batch order.
The sensor layout, the weights and the training rng use one fixed seed, so
that ``mae`` compares like with like across workload seeds: weight draws and
graph density each move the quick-start validation MAE by tens of percent.
Nothing here calls
``gc.collect()`` or ``gc.disable()``: a step's autodiff graph is a reference
cycle that only Python's cyclic collector frees, and that is how the
program behaves for its users.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import statistics
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from dgcrn import data, graphs, metrics, model, serialize, training
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 7       # setup_s is the median of these
WARMUP_STEPS = 5        # untimed: the heap grows to its plateau over the first steps
# Timed steps run at least; peak RSS is read after them and mae averages the
# loss over them and the warm-up, enough windows to hold it steady at B=2.
TRAIN_MIN_STEPS = 30
FIXED_SEED = 0          # sensor layout, weights, training rng, fit's shuffling
REPLAY_STEPS = 2        # steps re-run from a fresh model to check determinism
INFER_MIN_BATCHES = 2   # timed batches; peak RSS is read after, mae covers them
F64_SAMPLES = 4         # first-batch samples re-predicted in float64
# Max |float32 - float64| forecast gap in speed units. The measured gap at
# the paper shape is ~3e-6; a numeric fault moves forecasts by whole units.
F64_TOL = 1e-3
CHECK_SAMPLES = 64      # test windows predicted from the reloaded checkpoint

# Forward matmuls per cell step with hops = hyper_hops = 2: six gate
# convolutions of 1 + 2*3 products, two hyper-net convolutions of 1 + 2*2
# plus their projections, and two in the adjacency.
MATMULS_PER_CELL_STEP = 6 * 7 + 2 * 5 + 2 + 2


@dataclass(frozen=True)
class Shape:
    n: int
    hidden: int
    emb: int
    hyper: int
    p: int
    q: int
    batch: int
    days: tuple     # train, val, test whole days of 5-minute steps
    epochs: int = 0


# Batches are drawn at random from several days, so that mae averages over
# many congestion events: from a single day it spreads by ~20% across seeds.
WORKLOADS = {
    "train-small": ("train", Shape(50, 32, 16, 16, 12, 12, 16, (4, 1, 1))),
    "train-metrla": ("train", Shape(207, 64, 40, 16, 12, 12, 2, (6, 1, 1))),
    "infer-metrla": ("infer", Shape(207, 64, 40, 16, 12, 12, 64, (1, 1, 4))),
    "fit-quickstart": ("fit", Shape(20, 16, 8, 8, 6, 3, 64, (14, 2, 4), epochs=3)),
}
# Toy shapes for the self-test keep P, Q and the hop counts, so the call
# counts asserted in a traced run are the same as at full size.
TOY = {
    "train-small": dict(n=6, hidden=4, emb=3, hyper=3, batch=2, days=(1, 1, 1)),
    "train-metrla": dict(n=7, hidden=4, emb=3, hyper=3, batch=2, days=(1, 1, 1)),
    "infer-metrla": dict(n=8, hidden=4, emb=3, hyper=3, batch=4, days=(1, 1, 1)),
    "fit-quickstart": dict(n=5, hidden=4, emb=2, hyper=2, days=(2, 1, 1), epochs=1),
}


def forward_calls(enc_steps: int, dec_steps: int) -> dict:
    """Calls one forward pass makes into each traced layer.

    At P=Q=12 this is 24 generate, 72 dual_dgconv, 144 + 48 dgconv_forward,
    12 readout and 1,356 matmul calls.
    """
    cs = enc_steps + dec_steps
    return {
        "model.cell_step": cs,
        "generator.generate": cs,
        "conv.dual_dgconv": 3 * cs,
        "conv.dgconv_forward@gate": 6 * cs,
        "conv.dgconv_forward@hyper": 2 * cs,
        "model.readout": dec_steps,
        "tensor.matmul": MATMULS_PER_CELL_STEP * cs + dec_steps,
    }


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples above it. With ten samples or fewer none qualifies, and the
    maximum is reported as the 100th percentile."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(op, seconds: float, min_ops: int):
    """Call op() until one more call of median length would pass `seconds`.

    op returns the duration it measured. Returns (durations, wall seconds).
    """
    times = []
    start = perf_counter()
    while True:
        times.append(op())
        elapsed = perf_counter() - start
        if len(times) >= min_ops and elapsed + statistics.median(times) > seconds:
            return times, elapsed


def environment() -> dict:
    """Git SHA, source digest, numpy/BLAS build and CPU count."""
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "dgcrn").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """One workload run: its inputs, checks and measurements."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, toy: bool):
        self.name = name
        self.kind, shape = WORKLOADS[name]
        self.shape = replace(shape, **TOY[name]) if toy else shape
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup_tracer = Tracer()
        self.tracer = Tracer()
        self.rss_mb = None
        self.info = {}

    def check(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def setup(self):
        """Graph, series, windowed dataset and initial weights, SETUP_REPEATS times."""
        s = self.shape
        times = []
        traced = self.setup_tracer.installed() if self.trace else contextlib.nullcontext()
        with traced:
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                graph = graphs.build_adjacency(data.synth_distances(s.n, FIXED_SEED))
                series = data.synth_generate(s.n, sum(s.days), graph, self.seed)
                ds = data.build_dataset(series, s.p, s.q, "days", *s.days)
                hp = model.HyperParams(hidden=s.hidden, emb_dim=s.emb, hyper_dim=s.hyper,
                                       input_len=s.p, output_len=s.q)
                params = model.init_model(hp, s.n, seed=FIXED_SEED, dtype=np.float32)
                times.append(perf_counter() - t0)
        self.setup_s = statistics.median(times)
        return graph, ds, params

    def measure(self, op, min_ops: int, expect):
        """Untraced closed loop; in a traced run, half untraced, half traced.

        expect() gives the layer calls one op must make; every traced op is
        checked against it, so a patch that misses its callers fails.
        """
        seconds = self.seconds / 2 if self.trace else self.seconds
        times, wall = closed_loop(op, seconds, min_ops)
        if not self.trace:
            return times, wall
        tr = self.tracer

        def traced_op():
            before = tr.snapshot()
            d = op()
            got = tr.snapshot()
            got.subtract(before)
            wrong = {k: (got[k], v) for k, v in expect().items() if got[k] != v}
            self.check(not wrong, "traced op: calls (seen, expected) %r" % (wrong,))
            return d

        with tr.installed():
            traced, _ = closed_loop(traced_op, seconds, 1)
        self.traced_ops = len(traced)
        self.overhead_s = statistics.median(traced) - statistics.median(times)
        return times, wall

    def rss_mark(self, done: int, at: int):
        if done == at:
            self.rss_mb = peak_rss_mb()


# -- workloads ---------------------------------------------------------------------


def run_train(run: Run):
    s = run.shape
    graph, ds, params = run.setup()
    cfg = training.TrainConfig(batch_size=s.batch, curriculum=False, seed=FIXED_SEED)
    n_train = len(ds.train)
    pick = np.random.default_rng(run.seed + 1)
    batches = []    # index arrays, replayed by the determinism check

    def batch(i):
        while len(batches) <= i:
            batches.append(pick.choice(n_train, s.batch, replace=False))
        tr, idx = ds.train, batches[i]
        return tr.x[idx], tr.y[idx], tr.tod[idx], tr.mask[idx]

    def trainer(p):
        opt = training.Adam(model.named_parameters(p), lr=cfg.learning_rate,
                            beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
        state = training.TrainState(rng=np.random.default_rng(FIXED_SEED))
        return lambda b: training.train_step(p, graph, b, ds.stats, opt, cfg, state)[0]

    step = trainer(params)
    losses = []

    def op():
        b = batch(len(losses))
        t0 = perf_counter()
        loss = step(b)
        d = perf_counter() - t0
        losses.append(loss)
        run.check(math.isfinite(loss), "train_step %d: loss %r" % (len(losses), loss))
        run.rss_mark(len(losses), WARMUP_STEPS + TRAIN_MIN_STEPS)
        return d

    for _ in range(WARMUP_STEPS):
        op()
    expect = dict(forward_calls(s.p, s.q), **{"tensor.backward": 1, "training.adam": 1})
    times, wall = run.measure(op, TRAIN_MIN_STEPS, lambda: expect)

    replay = trainer(model.init_model(params.hp, s.n, seed=FIXED_SEED, dtype=np.float32))
    again = [replay(batch(i)) for i in range(REPLAY_STEPS)]
    run.check(again == losses[:REPLAY_STEPS],
              "replayed losses %r differ from %r" % (again, losses[:REPLAY_STEPS]))
    run.samples_per_s = s.batch * len(times) / wall
    run.mae = float(np.mean(losses[:WARMUP_STEPS + TRAIN_MIN_STEPS]))
    return times


def run_infer(run: Run):
    s = run.shape
    graph, ds, params = run.setup()
    test = ds.test
    n_batches = len(test) // s.batch
    order = np.random.default_rng(run.seed + 1).permutation(len(test))
    first = []      # forecasts of the first INFER_MIN_BATCHES batches

    def predict(p, idx):
        return training.predict(p, graph, test.x[idx], test.tod[idx], ds.stats,
                                batch_size=s.batch)

    done = [0]

    def op():
        lo = (done[0] % n_batches) * s.batch
        idx = order[lo:lo + s.batch]
        t0 = perf_counter()
        out = predict(params, idx)
        d = perf_counter() - t0
        done[0] += 1
        run.check(np.isfinite(out).all(), "predict batch %d: non-finite forecast" % done[0])
        if len(first) < INFER_MIN_BATCHES:
            first.append(out)
        run.rss_mark(done[0], INFER_MIN_BATCHES)
        return d

    predict(params, order[:F64_SAMPLES])    # warm-up, untimed
    times, wall = run.measure(op, INFER_MIN_BATCHES, lambda: forward_calls(s.p, s.q))

    p64 = model.init_model(params.hp, s.n, seed=FIXED_SEED, dtype=np.float64)
    for (_, a), (_, b) in zip(model.named_parameters(params), model.named_parameters(p64)):
        b.data = a.data.astype(np.float64)
    gap = float(np.max(np.abs(predict(p64, order[:F64_SAMPLES]) - first[0][:F64_SAMPLES])))
    run.check(gap <= F64_TOL, "float32 vs float64 forecast gap %r > %r" % (gap, F64_TOL))
    run.info["f64_gap"] = gap
    run.samples_per_s = s.batch * len(times) / wall
    idx = order[:INFER_MIN_BATCHES * s.batch]
    run.mae = metrics.masked_metrics(np.concatenate(first), test.y[idx], test.mask[idx])[0]
    return times


def run_fit(run: Run):
    s = run.shape
    graph, ds, params = run.setup()
    cfg = training.TrainConfig(seed=FIXED_SEED, max_epochs=s.epochs, patience=s.epochs)
    epochs, run_s, best, train_mae = [], [], [], []
    pending = [params]      # fresh weights for the next fit, built off the clock
    tmp = tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT)
    ckpt = os.path.join(tmp.name, "checkpoint.ckpt")
    log = os.path.join(tmp.name, "training_log.csv")

    def op():
        p = pending.pop()
        marks = []
        t0 = perf_counter()
        history, best_val = training.fit(p, graph, ds, cfg,
                                         progress=lambda row: marks.append(perf_counter()))
        serialize.save_checkpoint(ckpt, p, ds.stats,
                                  extra={"best_val_mae": best_val, "epochs": len(history)})
        training.write_training_log(log, history)
        d = perf_counter() - t0
        epochs.extend(np.diff([t0] + marks).tolist())
        run_s.append(d)
        best.append(best_val)
        train_mae.append(history[-1][1])
        run.check(len(history) == s.epochs, "fit ran %d of %d epochs" % (len(history), s.epochs))
        run.check(np.isfinite(np.asarray(history)[:, 1:5]).all(), "non-finite epoch metrics")
        run.check(best_val == best[0], "best val MAE %r differs from first fit %r"
                  % (best_val, best[0]))

        loaded, _, _ = serialize.load_checkpoint(ckpt)
        same = [(na, a.data.dtype, a.data.tobytes()) == (nb, b.data.dtype, b.data.tobytes())
                for (na, a), (nb, b) in zip(model.named_parameters(p),
                                            model.named_parameters(loaded))]
        run.check(len(same) == len(model.named_parameters(p)) and all(same),
                  "reloaded weights are not bit-identical")
        k = min(CHECK_SAMPLES, len(ds.test))
        a = training.predict(p, graph, ds.test.x[:k], ds.test.tod[:k], ds.stats, s.batch)
        b = training.predict(loaded, graph, ds.test.x[:k], ds.test.tod[:k], ds.stats, s.batch)
        run.check(np.array_equal(a, b), "reloaded forecasts differ")
        run.rss_mark(len(run_s), 1)
        pending.append(model.init_model(params.hp, s.n, seed=FIXED_SEED, dtype=np.float32))
        return d

    def expect():
        steps = s.epochs * math.ceil(len(ds.train) / s.batch)
        val = s.epochs * math.ceil(len(ds.val) / s.batch)
        checks = 2 * math.ceil(min(CHECK_SAMPLES, len(ds.test)) / s.batch)
        dec = sum(training.curriculum_horizon(i, cfg.step_size, s.q) for i in range(1, steps + 1))
        calls = forward_calls(s.p * (steps + val + checks), dec + (val + checks) * s.q)
        calls.update({"tensor.backward": steps, "training.adam": steps,
                      "training.evaluate": s.epochs,
                      "serialize.save_checkpoint": 1, "serialize.load_checkpoint": 1})
        return calls

    try:
        runs, _ = run.measure(op, 1, expect)
        run.info["checkpoint_bytes"] = os.path.getsize(ckpt)
    finally:
        tmp.cleanup()
    run.samples_per_s = s.epochs * len(ds.train) / statistics.median(runs)
    # Quick-start trains horizon 1 only and validates 3 horizons, so its
    # validation MAE mostly measures the untrained decoder steps and spreads
    # widely across seeds; the last epoch's train MAE is the steadier guard.
    run.mae = train_mae[0]
    run.info["val_mae"] = best[0]
    run.info["train_run_s"] = run_s
    return epochs


RUNNERS = {"train": run_train, "infer": run_infer, "fit": run_fit}


# -- reporting ---------------------------------------------------------------------


def layer_metrics(run: Run) -> dict:
    """Per-layer numbers of the traced half, per op (train_step, predict
    batch or fit run); set-up layers per set-up; tape sizes per backward."""
    tr, st = run.tracer, run.setup_tracer
    ops = run.traced_ops
    backward = tr.calls["tensor.backward"]

    def per(v):
        return v / ops

    def per_setup(name):
        return st.total_s[name] / SETUP_REPEATS

    dg = ("conv.dgconv_forward@gate", "conv.dgconv_forward@hyper")
    return {
        "conv.dual_dgconv_calls": (per(tr.calls["conv.dual_dgconv"]), "count"),
        "conv.dual_dgconv_s": (per(tr.total_s["conv.dual_dgconv"]), "s"),
        "conv.dgconv_forward_calls": (per(sum(tr.calls[k] for k in dg)), "count"),
        "conv.dgconv_forward_self_s": (per(sum(tr.self_s[k] for k in dg)), "s"),
        "generator.generate_calls": (per(tr.calls["generator.generate"]), "count"),
        "generator.generate_self_s": (per(tr.self_s["generator.generate"]), "s"),
        "generator.hyper_forward_s": (per(tr.total_s["generator.hyper_forward"]), "s"),
        "generator.dynamic_adjacency_s": (per(tr.total_s["generator.dynamic_adjacency"]), "s"),
        "model.encode_s": (per(tr.total_s["model.encode"]), "s"),
        "model.decode_s": (per(tr.total_s["model.decode"]), "s"),
        "model.cell_step_self_s": (per(tr.self_s["model.cell_step"]), "s"),
        "model.readout_s": (per(tr.total_s["model.readout"]), "s"),
        "tensor.backward_s": (per(tr.total_s["tensor.backward"]), "s"),
        "tensor.tape_nodes": (tr.counts["tensor.tape_nodes"] / backward if backward else 0, "count"),
        "tensor.tape_bytes": (tr.counts["tensor.tape_bytes"] / backward if backward else 0, "bytes"),
        "tensor.gc_collections": (per(tr.counts["tensor.gc_collections"]), "count"),
        "tensor.gc_pause_s": (per(tr.total_s["tensor.gc_pause"]), "s"),
        "tensor.matmul_calls": (per(tr.calls["tensor.matmul"]), "count"),
        "tensor.matmul_flops": (per(tr.counts["tensor.matmul_flops"]), "flop"),
        "training.train_step_s": (per(tr.total_s["training.train_step"]), "s"),
        "training.loss_s": (per(tr.total_s["training.loss"]), "s"),
        "training.clip_s": (per(tr.total_s["training.clip"]), "s"),
        "training.adam_s": (per(tr.total_s["training.adam"]), "s"),
        "training.predict_s": (per(tr.total_s["training.predict"]), "s"),
        "training.evaluate_s": (per(tr.total_s["training.evaluate"]), "s"),
        "serialize.save_checkpoint_s": (per(tr.total_s["serialize.save_checkpoint"]), "s"),
        "serialize.load_checkpoint_s": (per(tr.total_s["serialize.load_checkpoint"]), "s"),
        "serialize.checkpoint_bytes": (run.info.get("checkpoint_bytes", 0), "bytes"),
        "data.synth_generate_s": (per_setup("data.synth_generate"), "s"),
        "data.build_dataset_s": (per_setup("data.build_dataset"), "s"),
        "graphs.build_adjacency_s": (per_setup("graphs.build_adjacency"), "s"),
        "model.init_model_s": (per_setup("model.init_model"), "s"),
        "trace.overhead_s": (run.overhead_s, "s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool):
    """Run one workload; returns (info, result) ready for printing."""
    run = Run(name, seed, seconds, trace, toy)
    times = RUNNERS[run.kind](run)
    tail_s, tail_pct, n = tail(times)
    if trace:
        metrics_ = layer_metrics(run)
        run.info["traced_ops"] = run.traced_ops
    else:
        metrics_ = {
            "setup_s": (run.setup_s, "s"),
            "samples_per_s": (run.samples_per_s, "1/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (tail_s, "s"),
            "peak_rss_mb": (run.rss_mb, "MB"),
            "mae": (run.mae, "mph"),
        }
    info = dict(run.info, workload=name, kind=run.kind, seed=seed, seconds=seconds,
                trace=trace, shape=asdict(run.shape), op_s=times,
                tail_percentile=tail_pct, tail_samples=n,
                failed_op_ratio=run.failed / max(run.attempted, 1),
                failures=run.failures, **environment())
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics_.items()},
    }
    return info, result
