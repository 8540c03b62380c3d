"""Optimizer, schedules, loss, and the training loop."""
import copy
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from dgcrn import model as M
from dgcrn import tensor as T
from dgcrn import training as TR
from dgcrn.data import (NormStats, SpeedSeries, build_dataset, impute_last, make_windows,
                        synth_distances, synth_generate)
from dgcrn.errors import ConfigError, DegenerateInputError, NumericError
from dgcrn.graphs import build_adjacency
from dgcrn.metrics import batch_metrics, masked_metrics
from dgcrn.model import HyperParams, init_model, named_parameters

from csvfiles import load_training_log
from oracles import adam_ref


def _tiny_setup(seed=0, n=3, hp_kw=None, t=60, dtype=np.float32):
    graph = build_adjacency(synth_distances(n, seed=5), kappa=0.1)
    rng = np.random.default_rng(seed)
    series = SpeedSeries(rng.uniform(20.0, 60.0, (t, n)), 300, 0)
    kw = dict(hidden=3, emb_dim=2, hyper_dim=2, hops=1, hyper_hops=1,
              input_len=2, output_len=2)
    kw.update(hp_kw or {})
    hp = HyperParams(**kw)
    ds = build_dataset(series, hp.input_len, hp.output_len, "ratio", 0.7, 0.1, 0.2)
    params = init_model(hp, n, seed=seed, dtype=dtype)
    return params, graph, ds


# -- optimizer ---------------------------------------------------------------------


def test_adam_matches_scalar_reference():
    w = T.Tensor(np.array([0.0]), requires_grad=True)
    opt = TR.Adam([("w", w)], lr=0.05)
    grads = [0.3, -1.2, 0.7, 0.7, -0.1, 2.0]
    want = adam_ref(grads, lr=0.05)
    for g, x_ref in zip(grads, want):
        w.grad = np.array([g])
        opt.step()
        assert abs(float(w.data[0]) - x_ref) < 1e-12


def test_adam_skips_missing_gradients():
    a = T.Tensor(np.ones(2), requires_grad=True)
    b = T.Tensor(np.ones(2), requires_grad=True)
    opt = TR.Adam([("a", a), ("b", b)], lr=0.1)
    a.grad = np.ones(2)
    opt.step()
    assert not np.array_equal(a.data, np.ones(2))
    assert np.array_equal(b.data, np.ones(2))


def test_adam_preserves_dtype():
    w = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    opt = TR.Adam([("w", w)], lr=0.01)
    w.grad = np.ones(3, dtype=np.float32)
    opt.step()
    assert w.data.dtype == np.float32


# -- clipping ----------------------------------------------------------------------


def test_clip_global_norm():
    a = T.Tensor(np.zeros(2), requires_grad=True)
    b = T.Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([4.0])
    norm = TR.clip_global_norm([("a", a), ("b", b)], max_norm=2.5)
    assert norm == pytest.approx(5.0)
    # scaled to norm 2.5, directions preserved
    assert a.grad[0] == pytest.approx(1.5)
    assert b.grad[0] == pytest.approx(2.0)
    # below the cap: untouched
    a.grad = np.array([0.1, 0.0])
    b.grad = np.array([0.0])
    norm = TR.clip_global_norm([("a", a), ("b", b)], max_norm=2.5)
    assert norm == pytest.approx(0.1)
    assert a.grad[0] == 0.1


def test_clip_rejects_non_finite():
    a = T.Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([np.inf])
    with pytest.raises(NumericError):
        TR.clip_global_norm([("a", a)], max_norm=1.0)


# -- schedules ---------------------------------------------------------------------


def test_curriculum_horizon_growth():
    assert TR.curriculum_horizon(1, 50, 12) == 1
    assert TR.curriculum_horizon(49, 50, 12) == 1
    assert TR.curriculum_horizon(50, 50, 12) == 2
    assert TR.curriculum_horizon(99, 50, 12) == 2
    assert TR.curriculum_horizon(100, 50, 12) == 3
    assert TR.curriculum_horizon(550, 50, 12) == 12
    assert TR.curriculum_horizon(10_000, 50, 12) == 12  # capped


def test_curriculum_budget_closed_form():
    # 49 steps at 1, 50 each at 2..11, then 451 capped at 12
    total = sum(TR.curriculum_horizon(i, 50, 12) for i in range(1, 1001))
    assert total == 49 * 1 + 50 * sum(range(2, 12)) + 451 * 12
    assert total == 8711


def test_scheduled_sampling_decay():
    tau = 4000.0
    p1 = TR.scheduled_sampling_prob(1, tau)
    assert 0.999 < p1 < 1.0
    ps = [TR.scheduled_sampling_prob(i, tau) for i in (1, 1000, 10_000, 100_000)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    # exact closed form at a hand point
    assert TR.scheduled_sampling_prob(4000, tau) == pytest.approx(
        tau / (tau + np.e))
    # crosses one half around iter = tau * ln(tau)
    mid = int(tau * np.log(tau))
    assert abs(TR.scheduled_sampling_prob(mid, tau) - 0.5) < 0.001
    # overflow in the exponential collapses cleanly to zero
    assert TR.scheduled_sampling_prob(10_000_000, 1.0) == 0.0


# -- loss --------------------------------------------------------------------------


def test_masked_mae_loss_hand_value():
    stats = NormStats(mean=50.0, std=10.0)
    pred = T.Tensor(np.zeros((1, 1, 2)), requires_grad=True)  # denorms to 50
    y = np.array([[[40.0, 99.0]]])
    mask = np.array([[[1.0, 0.0]]])
    loss = TR.masked_mae_loss(pred, y, mask, stats)
    assert loss.item() == pytest.approx(10.0)
    loss.backward()
    # d|50-40|/dpred_norm = sign * std / count
    assert pred.grad[0, 0, 0] == pytest.approx(10.0)
    assert pred.grad[0, 0, 1] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_mae_loss_reads_bool_and_float_masks_alike(dtype):
    rng = np.random.default_rng(4)
    stats = NormStats(mean=45.0, std=12.0)
    y = rng.uniform(20.0, 70.0, (3, 2, 5))
    observed = rng.random(y.shape) < 0.6
    observed[0, 0, 0] = True
    pred_norm = rng.normal(size=y.shape).astype(dtype)
    got = []
    for mask in (observed, observed.astype(np.float64)):
        pred = T.Tensor(pred_norm.copy(), requires_grad=True)
        loss = TR.masked_mae_loss(pred, y, mask, stats)
        loss.backward()
        got.append((loss.data.tobytes(), pred.grad.tobytes()))
    assert got[0] == got[1]


def test_masked_mae_loss_empty_mask():
    stats = NormStats(0.0, 1.0)
    pred = T.Tensor(np.zeros((1, 1, 2)))
    with pytest.raises(DegenerateInputError):
        TR.masked_mae_loss(pred, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), stats)


# -- train step --------------------------------------------------------------------


def test_train_step_updates_and_counts():
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=8, step_size=2, seed=0)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(0))
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    batch = (ds.train.x[:8], ds.train.y[:8], ds.train.tod[:8], ds.train.mask[:8])
    loss, norm = TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
    assert np.isfinite(loss) and loss > 0.0
    assert norm >= 0.0
    assert state.iteration == 1
    assert state.horizon == 1
    changed = any(
        not np.array_equal(before[n], p.data) for n, p in named_parameters(params)
    )
    assert changed
    # horizon follows the schedule as iterations accumulate
    TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
    assert state.iteration == 2 and state.horizon == 2  # 1 + 2//2
    TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
    assert state.horizon == 2  # capped at output_len


def test_train_step_curriculum_off_uses_full_horizon():
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=4, curriculum=False)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(0))
    batch = (ds.train.x[:4], ds.train.y[:4], ds.train.tod[:4], ds.train.mask[:4])
    TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
    assert state.horizon == params.hp.output_len


def _spy_coins(monkeypatch):
    seen = []
    real_decode = TR.decode

    def spy(*args, **kwargs):
        seen.append(kwargs["coins"])
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(TR, "decode", spy)
    return seen


def test_train_step_draws_one_coin_per_decoder_step_after_the_first(monkeypatch):
    # the coins decode receives are rng.random() < p replayed on a copy of the
    # state's generator, one per step after the first, and the generator ends
    # where the replay does; the curriculum grows the horizon 1, 2, 2, 3, 3, 4
    params, graph, ds = _tiny_setup(hp_kw={"output_len": 4})
    cfg = TR.TrainConfig(batch_size=4, step_size=2, ss_decay_tau=2.0)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(0))
    batch = (ds.train.x[:4], ds.train.y[:4], ds.train.tod[:4], ds.train.mask[:4])
    seen = _spy_coins(monkeypatch)
    for _ in range(6):
        replay = copy.deepcopy(state.rng)
        TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
        p = state.sampling_prob
        assert 0.0 < p < 1.0
        assert seen[-1] == tuple(replay.random() < p for _ in range(state.horizon - 1))
        assert state.rng.bit_generator.state == replay.bit_generator.state
    assert [len(c) for c in seen] == [0, 1, 1, 2, 2, 3]
    assert {True, False} <= {c for coins in seen for c in coins}


def test_train_step_draws_no_coin_once_the_teacher_probability_is_zero(monkeypatch):
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=4, curriculum=False, ss_decay_tau=1e-3)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(0))
    before = copy.deepcopy(state.rng.bit_generator.state)
    batch = (ds.train.x[:4], ds.train.y[:4], ds.train.tod[:4], ds.train.mask[:4])
    seen = _spy_coins(monkeypatch)
    for _ in range(2):
        TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
    assert state.sampling_prob == 0.0 and state.horizon == params.hp.output_len > 1
    assert seen == [(), ()]
    assert state.rng.bit_generator.state == before


def test_train_step_poisoned_weights_raise():
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=4)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(0))
    params.readout[0].data[:] = np.nan
    batch = (ds.train.x[:4], ds.train.y[:4], ds.train.tod[:4], ds.train.mask[:4])
    with pytest.raises(NumericError):
        TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)


def test_train_step_tape_needs_no_cyclic_gc(monkeypatch):
    # backward releases each interior node as it passes, so a step's tape is
    # freed by reference count and leaves nothing for the cyclic collector
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=4, curriculum=False)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(0))
    batch = (ds.train.x[:4], ds.train.y[:4], ds.train.tod[:4], ds.train.mask[:4])
    roots = []
    backward = T.Tensor.backward

    def recording_backward(self):
        roots.append(self)
        backward(self)

    monkeypatch.setattr(T.Tensor, "backward", recording_backward)
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds
        gc.collect()
        leaked = sum(isinstance(o, (T.Tensor, T._Node)) for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == 0
    assert all(p.grad is not None for _, p in named_parameters(params))
    (loss,) = roots
    assert loss.grad is None and loss._parents == ()


def _graph_setup(filter_mode="hadamard", dtype=np.float64):
    # P = Q = 3, so a full-horizon forward runs 6 cell steps
    params, graph, ds = _tiny_setup(n=4, t=100, dtype=dtype, hp_kw={
        "input_len": 3, "output_len": 3, "hops": 2, "filter_mode": filter_mode})
    batch = (ds.train.x[:2], ds.train.y[:2], ds.train.tod[:2], ds.train.mask[:2])
    return params, graph, ds.stats, batch


@pytest.mark.parametrize("filter_mode", ["hadamard", "matmul", "frozen"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rebuilt_graphs_give_the_gradients_of_held_ones(monkeypatch, filter_mode, dtype):
    # a spy that keeps each cell step's normalized pair alive makes every rule
    # read the forward's arrays, as a tape that held the graphs did; without
    # it the sweep rebuilds each graph once, and the gradients are bitwise equal
    params, graph, stats, batch = _graph_setup(filter_mode, dtype)
    real_step, real_loops = M.cell_step, T._with_self_loops
    held, builds, sweeping = [], [], [False]

    def holding_step(*args):
        h, pair = real_step(*args)
        held.append(pair)
        return h, pair

    def counting_loops(x):
        builds.append(sweeping[0])
        return real_loops(x)

    monkeypatch.setattr(T, "_with_self_loops", counting_loops)

    def grads(hold):
        M.zero_grads(params)
        builds.clear()
        with monkeypatch.context() as patch:
            if hold:
                patch.setattr(M, "cell_step", holding_step)
            loss = TR.batch_loss(params, graph, batch, stats, 3, (True, False))
        sweeping[0] = True
        loss.backward()
        sweeping[0] = False
        held.clear()
        return [p.grad.tobytes() for _, p in named_parameters(params)], builds.count(True)

    held_grads, held_builds = grads(hold=True)
    rebuilt_grads, rebuilds = grads(hold=False)
    assert (held_builds, rebuilds) == (0, 2 * 6)
    assert rebuilt_grads == held_grads


def test_batch_loss_keeps_no_normalized_graph(monkeypatch):
    # once the forward returns, the tape holds each step's raw graph and row
    # sums, not its two normalized graphs
    params, graph, stats, batch = _graph_setup()
    refs = []
    real_step = M.cell_step

    def recording_step(*args):
        h, pair = real_step(*args)
        refs.extend(weakref.ref(t.data) for t in pair)
        return h, pair

    monkeypatch.setattr(M, "cell_step", recording_step)
    loss = TR.batch_loss(params, graph, batch, stats, 3, ())
    assert len(refs) == 2 * 6
    assert [r() is None for r in refs] == [True] * (2 * 6)
    loss.backward()
    assert all(p.grad is not None for _, p in named_parameters(params))


def test_backward_holds_one_rebuilt_graph_per_direction(monkeypatch):
    # the sweep rebuilds a step's graph at its first reader and drops it once
    # it passes the graph's node, before it reaches the products of the step
    # before: when a graph is rebuilt, the only other rebuilt graph alive is
    # the other direction of the same step
    params, graph, stats, batch = _graph_setup()
    real_loops = T._with_self_loops
    rebuilt, others, sweeping = [], [], [False]

    def recording_loops(x):
        data = real_loops(x)
        if sweeping[0]:
            # the backward graph normalizes a transposed view of the raw graph
            raw, forward = (x, True) if x.base is None else (x.base, False)
            others.append([(r() is raw, fwd == forward)
                           for d, r, fwd in rebuilt if d() is not None])
            rebuilt.append((weakref.ref(data), weakref.ref(raw), forward))
        return data

    monkeypatch.setattr(T, "_with_self_loops", recording_loops)
    loss = TR.batch_loss(params, graph, batch, stats, 3, ())
    sweeping[0] = True
    loss.backward()
    assert len(rebuilt) == 2 * 6
    assert [fwd for *_, fwd in rebuilt].count(True) == 6
    assert all(not alive or alive == [(True, False)] for alive in others)
    assert sum(alive == [(True, False)] for alive in others) == 6
    assert [d() is None for d, _, _ in rebuilt] == [True] * (2 * 6)


def test_training_reduces_loss_on_learnable_signal():
    params, graph, ds = _tiny_setup(seed=1)
    cfg = TR.TrainConfig(batch_size=16, learning_rate=0.01, curriculum=False, seed=1)
    opt = TR.Adam(named_parameters(params), lr=cfg.learning_rate)
    state = TR.TrainState(rng=np.random.default_rng(1))
    losses = []
    for it in range(30):
        lo = (it * 16) % max(1, len(ds.train) - 16)
        batch = (ds.train.x[lo:lo + 16], ds.train.y[lo:lo + 16],
                 ds.train.tod[lo:lo + 16], ds.train.mask[lo:lo + 16])
        loss, _ = TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
        losses.append(loss)
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


# -- predict / evaluate --------------------------------------------------------------


def test_predict_shape_and_determinism():
    params, graph, ds = _tiny_setup()
    p1 = TR.predict(params, graph, ds.val.x, ds.val.tod, ds.stats, batch_size=2)
    p2 = TR.predict(params, graph, ds.val.x, ds.val.tod, ds.stats, batch_size=3)
    assert p1.shape == (len(ds.val), params.hp.output_len, ds.n_nodes)
    np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-6)
    # no gradients were built
    for _, p in named_parameters(params):
        assert p.grad is None or not p.grad.any()


def test_predict_frees_encoder_states_before_decoding(monkeypatch):
    # under no_grad only the last encoder state is needed: the earlier P-1
    # must be gone by the time the decoder starts
    params, graph, ds = _tiny_setup(hp_kw={"input_len": 4})
    states = []
    real_step, real_decode = M.cell_step, TR.decode

    # encode steps a folded copy of params.encoder, so match steps by label
    def recording_step(x_t, h, g, cell, where="step"):
        h_new, dyn = real_step(x_t, h, g, cell, where)
        if where.startswith("encoder"):
            states.append(weakref.ref(h_new.data))
        return h_new, dyn

    alive = []

    def counting_decode(h, *a, **kw):
        alive.append(sum(ref() is not None for ref in states[:-1]))
        return real_decode(h, *a, **kw)

    monkeypatch.setattr(M, "cell_step", recording_step)
    monkeypatch.setattr(TR, "decode", counting_decode)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats)
    assert len(states) == 4
    assert alive == [0]


def test_predict_frees_batch_and_encoder_state_in_the_decoder(monkeypatch):
    # predict hands the batch straight to encode and the final state straight
    # to decode, so at the decoder's first step only the state is alive and
    # from its second step on neither is
    params, graph, ds = _tiny_setup(hp_kw={"input_len": 3, "output_len": 3}, t=100)
    batch, state, dead = [], [], []
    real_step = M.cell_step

    def recording_step(x_t, h, g, cell, where="step"):
        if where.startswith("encoder"):
            batch.append(weakref.ref(x_t.data.base))  # x_t views one step of the batch
        else:
            dead.append((batch[-1]() is None, state[-1]() is None))
        h_new, dyn = real_step(x_t, h, g, cell, where)
        if where.startswith("encoder"):
            state.append(weakref.ref(h_new.data))
        return h_new, dyn

    monkeypatch.setattr(M, "cell_step", recording_step)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats, batch_size=1)
    assert len(batch) == 2 * 3
    assert dead == [(True, False), (True, True), (True, True)] * 2


def _predict_reference(params, graph, x, tod, stats, batch_size):
    # predict as it was before it built one float64 array: a float64 copy of
    # each batch's forecasts, their concatenation, then normalize
    dtype = params.readout[0].data.dtype
    outs = []
    with T.no_grad():
        for lo in range(0, x.shape[0], batch_size):
            xb = T.Tensor(np.ascontiguousarray(x[lo:lo + batch_size], dtype=dtype))
            tb = TR._time_tensor(tod[lo:lo + batch_size], x.shape[2], dtype)
            pred = M.decode(M.encode(xb, graph, params), tb, graph, params)
            outs.append(pred.data.astype(np.float64))
    return np.concatenate(outs, axis=0) * stats.std + stats.mean


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_is_bitwise_the_per_batch_reference(dtype):
    params, graph, ds = _tiny_setup(t=100, dtype=dtype)
    x, tod = ds.test.x, ds.test.tod
    assert len(x) % 7 == 3  # batches of 7 leave a ragged last one
    want = _predict_reference(params, graph, x, tod, ds.stats, 64)
    for batch_size in (64, 7):
        got = TR.predict(params, graph, x, tod, ds.stats, batch_size)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), batch_size


def test_no_grad_step_frees_its_graph_before_the_next(monkeypatch):
    # under no_grad a cell step's dynamic graph is dead before the next
    # step's generator runs, so one step's B x N x N arrays are alive at once
    params, graph, ds = _tiny_setup(hp_kw={"input_len": 3, "output_len": 3})
    arrays, alive = [], []
    real_generate = M.generate

    def recording_generate(inp, static_fwd, gen):
        alive.append(sum(ref() is not None for ref in arrays))
        dyn = real_generate(inp, static_fwd, gen)
        arrays.extend(weakref.ref(t.data) for t in (dyn.raw, dyn.normalized, dyn.normalized_bwd))
        return dyn

    monkeypatch.setattr(M, "generate", recording_generate)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats)
    assert len(arrays) == 3 * 6
    assert alive == [0] * 6


def test_no_grad_step_frees_each_temporary_at_its_last_use(monkeypatch):
    # under no_grad the generator's two DE DE^T products are dead before it
    # normalizes, and the gate input xh and the reset gate r are dead before
    # the candidate gate's convolution runs, while z is still alive
    n = 5  # no other product of this model is N x N
    params, graph, ds = _tiny_setup(n=n, hp_kw={"input_len": 3, "output_len": 3})
    products, gate_inputs, gates = [], [], []
    at_normalize, at_candidate = [], []
    real_matmul, real_normalize = T.matmul, T.self_loop_normalize
    real_sigmoid, real_conv = T.sigmoid, M.dual_dgconv

    def matmul(x, y):
        out = real_matmul(x, y)
        if out.shape[-2:] == (n, n):
            products.append(weakref.ref(out.data))
        return out

    def normalize(m):
        at_normalize.append([r() is None for r in products[-2:]])
        return real_normalize(m)

    def sigmoid(t):
        out = real_sigmoid(t)
        gates.append(weakref.ref(out.data))
        return out

    def conv(h_in, fwd, bwd, theta):
        if len(gate_inputs) % 3 == 2:  # z and r came first
            at_candidate.append((gate_inputs[-1]() is None, gates[-1]() is None,
                                 gates[-2]() is None))
        gate_inputs.append(weakref.ref(h_in.data))
        return real_conv(h_in, fwd, bwd, theta)

    for owner, name, fn in ((T, "matmul", matmul), (T, "self_loop_normalize", normalize),
                            (T, "sigmoid", sigmoid), (M, "dual_dgconv", conv)):
        monkeypatch.setattr(owner, name, fn)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats)
    assert len(products) == 2 * 6 and len(gate_inputs) == 3 * 6
    assert at_normalize == [[True, True]] * (2 * 6)
    assert at_candidate == [(True, True, False)] * 6


def test_no_grad_step_frees_its_raw_graph_before_the_gates(monkeypatch):
    # under no_grad the supports hold only the normalized pair, so a step's
    # raw graph is dead when its first gate convolution starts
    params, graph, ds = _tiny_setup(hp_kw={"input_len": 3, "output_len": 3})
    raws, at_first_gate = [], []
    real_generate, real_conv = M.generate, M.dual_dgconv

    def recording_generate(inp, static_fwd, gen):
        dyn = real_generate(inp, static_fwd, gen)
        raws.append(weakref.ref(dyn.raw.data))
        return dyn

    def conv(h_in, fwd, bwd, theta):
        if len(at_first_gate) < len(raws):
            at_first_gate.append(raws[-1]() is None)
        return real_conv(h_in, fwd, bwd, theta)

    monkeypatch.setattr(M, "generate", recording_generate)
    monkeypatch.setattr(M, "dual_dgconv", conv)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats)
    assert at_first_gate == [True] * 6


def test_no_grad_hop_holds_one_diffusion_product_at_a_time(monkeypatch):
    # under no_grad a hop sums each diffusion product into its projection
    # X U_k and drops it, so no earlier product of the hop is alive when
    # the next one is formed
    n = 7  # only the graphs are N x N, so a product with one is a diffusion
    params, graph, ds = _tiny_setup(n=n, hp_kw={"input_len": 3, "output_len": 3})
    hop, alive_at_next = [], []
    real_matmul = T.matmul

    def matmul(x, y):
        if x.shape[-2:] != (n, n):
            hop.clear()  # a projection X U_k opens the next hop
            return real_matmul(x, y)
        if hop:
            alive_at_next.append([r() is not None for r in hop])
        out = real_matmul(x, y)
        hop.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "matmul", matmul)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats)
    # each gate hop diffuses over the dynamic and then the static graph
    assert alive_at_next == [[False]] * (6 * 6)


def test_no_grad_generator_frees_filters_and_embeddings_early(monkeypatch):
    # under no_grad the hyper-network filters are dead before the two
    # DE DE^T products, and the modulated embeddings before the activation
    import dgcrn.generator as G

    n = 7  # no other product of this model is N x N
    params, graph, ds = _tiny_setup(n=n, hp_kw={"input_len": 3, "output_len": 3})
    filters, embeddings, at_products, at_activation = [], [], [], []
    real_hyper, real_modulate = G.hyper_forward, G._modulate
    real_matmul, real_activation = T.matmul, T.relu_tanh_diff

    def hyper(inp, static_fwd, hn):
        out = real_hyper(inp, static_fwd, hn)
        filters.append(weakref.ref(out.data))
        return out

    def modulate(df, emb, gen):
        out = real_modulate(df, emb, gen)
        embeddings.append(weakref.ref(out.data))
        return out

    def matmul(x, y):
        if x.shape[-2] == y.shape[-1] == n and x.shape[-1] != n:
            at_products.append([r() is None for r in filters[-2:]])
        return real_matmul(x, y)

    def activation(a, b, alpha):
        at_activation.append([r() is None for r in filters[-2:] + embeddings[-2:]])
        return real_activation(a, b, alpha)

    for owner, name, fn in ((G, "hyper_forward", hyper), (G, "_modulate", modulate),
                            (T, "matmul", matmul), (T, "relu_tanh_diff", activation)):
        monkeypatch.setattr(owner, name, fn)
    TR.predict(params, graph, ds.val.x[:2], ds.val.tod[:2], ds.stats)
    assert len(filters) == len(embeddings) == 2 * 6
    assert at_products == [[True, True]] * (2 * 6)
    assert at_activation == [[True] * 4] * 6


def test_evaluate_returns_overall_and_rows():
    params, graph, ds = _tiny_setup()
    (mae, rmse, mape, n), rows = TR.evaluate(params, graph, ds.val, ds.stats)
    assert n == int(ds.val.mask.sum())
    assert mae > 0 and rmse >= mae
    assert [r[1] for r in rows] == list(range(1, params.hp.output_len + 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_is_bitwise_the_metrics_of_the_whole_forecast(dtype):
    # at every batch size, the metrics of the whole forecast from predict
    graph = build_adjacency(synth_distances(4, seed=5), kappa=0.1)
    rng = np.random.default_rng(4)
    values = rng.uniform(20.0, 60.0, (100, 4))
    values[rng.random(values.shape) < 0.2] = np.nan  # masked labels, stored as 0.0
    ds = build_dataset(SpeedSeries(values, 300, 0), 2, 3, "ratio", 0.7, 0.1, 0.2)
    params = init_model(HyperParams(hidden=3, emb_dim=2, hyper_dim=2, hops=1, hyper_hops=1,
                                    input_len=2, output_len=3), 4, seed=0, dtype=dtype)
    test = ds.test
    assert len(test) % 7 == 2 and not test.mask.all()  # a ragged last batch of 7
    preds = TR.predict(params, graph, test.x, test.tod, ds.stats)
    want = (masked_metrics(preds, test.y, test.mask),
            batch_metrics("m", [(preds, test.y, test.mask)])[1])
    for batch_size in (64, 7, 1):
        assert TR.evaluate(params, graph, test, ds.stats, batch_size, "m") == want, batch_size


def test_evaluate_peak_does_not_grow_with_the_split():
    # 1,000 then 4,000 windows of 60 sensors, Q=2, batch 64, a tiny model: a
    # whole S x Q x N forecast would be most of evaluate's traced peak and
    # grow it ~3x; one batch at a time it stays near one batch's worth
    n, q = 60, 2
    graph = build_adjacency(synth_distances(n, seed=0), kappa=0.1)
    rng = np.random.default_rng(0)
    values = rng.uniform(20.0, 60.0, (4000 + q + 1, n))
    values[rng.random(values.shape) < 0.1] = np.nan
    stats = NormStats.fit(values)
    filled = impute_last(SpeedSeries(values, 300, 0), np.nanmean(values, axis=0)).values
    params = init_model(HyperParams(hidden=2, emb_dim=2, hyper_dim=2, hops=1, hyper_hops=1,
                                    input_len=2, output_len=q), n, seed=0)
    peaks = []
    for s in (1000, 4000):
        steps = s + q + 1
        samples = make_windows(SpeedSeries(values[:steps], 300, 0), 2, q, stats,
                               filled[:steps])
        tracemalloc.start()
        try:
            TR.evaluate(params, graph, samples, stats, batch_size=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.25 * peaks[0], peaks


# -- fit loop ----------------------------------------------------------------------


def test_fit_runs_and_logs(tmp_path):
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=16, max_epochs=2, step_size=3, seed=0)
    history, best = TR.fit(params, graph, ds, cfg)
    assert len(history) == 2
    epochs = [row[0] for row in history]
    assert epochs == [1, 2]
    assert best == min(row[2] for row in history)
    # log round trip
    path = tmp_path / "log.csv"
    TR.write_training_log(path, history)
    back = load_training_log(path)
    assert len(back) == 2
    assert back[0][0] == 1
    for a, b in zip(back[0], history[0]):
        assert a == pytest.approx(b)
    (tmp_path / "bad.csv").write_text("epoch,val\n")
    with pytest.raises(ConfigError):
        load_training_log(tmp_path / "bad.csv")


@pytest.mark.parametrize("row, match", [
    ("1,2.0,3.0", r"log\.csv:3: expected 8 fields, got 3"),
    ("x,2.0,3.0,4.0,5.0,6.0,1,0.5", r"log\.csv:3: .*'x'"),
], ids=["short-row", "bad-value"])
def test_load_training_log_rejects_bad_rows(tmp_path, row, match):
    path = tmp_path / "log.csv"
    TR.write_training_log(path, [(1, 2.0, 3.0, 4.0, 5.0, 6.0, 1, 0.5)])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ConfigError, match=match):
        load_training_log(path)


def test_fit_early_stopping_and_best_restore(monkeypatch):
    params, graph, ds = _tiny_setup()
    scripted = iter([3.0, 2.0, 2.5, 2.5])
    snaps = []

    def fake_evaluate(p, g, samples, stats, batch_size=64, model_name="model"):
        snaps.append({n: t.data.copy() for n, t in named_parameters(p)})
        v = next(scripted)
        return (v, v, v, 1), []

    monkeypatch.setattr(TR, "evaluate", fake_evaluate)
    cfg = TR.TrainConfig(batch_size=16, max_epochs=10, patience=2, seed=0)
    history, best = TR.fit(params, graph, ds, cfg)
    # improves at epochs 1,2 then stalls twice: stop after epoch 4
    assert len(history) == 4
    assert best == 2.0
    # weights restored to the epoch-2 snapshot
    for name, t in named_parameters(params):
        assert np.array_equal(t.data, snaps[1][name]), name


def test_fit_patience_zero_stops_at_first_stall(monkeypatch):
    params, graph, ds = _tiny_setup()
    scripted = iter([3.0, 4.0, 4.0, 4.0])

    def fake_evaluate(p, g, samples, stats, batch_size=64, model_name="model"):
        return (next(scripted), 0.0, 0.0, 1), []

    monkeypatch.setattr(TR, "evaluate", fake_evaluate)
    cfg = TR.TrainConfig(batch_size=16, max_epochs=10, patience=0, seed=0)
    history, best = TR.fit(params, graph, ds, cfg)
    assert len(history) == 2
    assert best == 3.0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TR.TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TR.TrainConfig(patience=-1).validate()
    with pytest.raises(ConfigError):
        TR.TrainConfig(ss_decay_tau=0.0).validate()
    with pytest.raises(ConfigError):
        TR.TrainConfig(grad_clip_norm=0.0).validate()
    with pytest.raises(ConfigError):
        TR.TrainConfig(learning_rate=-0.1).validate()
    # Adam, curriculum_horizon and the loop trust these; fit checks them
    for bad in (dict(beta1=1.0), dict(beta2=1.0), dict(eps=0.0),
                dict(step_size=0), dict(max_epochs=0)):
        with pytest.raises(ConfigError):
            TR.TrainConfig(**bad).validate()


def test_fit_validates_before_any_step(monkeypatch):
    params, graph, ds = _tiny_setup()
    steps = []
    monkeypatch.setattr(TR, "train_step", lambda *a: steps.append(a))
    with pytest.raises(ConfigError, match="eps"):
        TR.fit(params, graph, ds, TR.TrainConfig(eps=0.0))
    assert steps == []


def test_zero_learning_rate_is_bit_identical():
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=8, learning_rate=0.0,
                         grad_clip_norm=np.inf, seed=0)
    opt = TR.Adam(named_parameters(params), lr=0.0)
    state = TR.TrainState(rng=np.random.default_rng(0))
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    batch = (ds.train.x[:8], ds.train.y[:8], ds.train.tod[:8], ds.train.mask[:8])
    for _ in range(3):
        TR.train_step(params, graph, batch, ds.stats, opt, cfg, state)
    for n, p in named_parameters(params):
        assert np.array_equal(before[n], p.data), n


def test_loss_ignores_labels_beyond_horizon():
    params, graph, ds = _tiny_setup()
    cfg = TR.TrainConfig(batch_size=8, step_size=10_000, seed=0)  # horizon stays 1
    x = ds.train.x[:8]
    y = ds.train.y[:8].copy()
    tod = ds.train.tod[:8]
    mask = ds.train.mask[:8]

    def run(labels):
        fresh = copy.deepcopy(params)
        opt = TR.Adam(named_parameters(fresh), lr=0.0)
        state = TR.TrainState(rng=np.random.default_rng(0))
        loss, _ = TR.train_step(fresh, graph, (x, labels, tod, mask),
                                ds.stats, opt, cfg, state)
        return loss

    base = run(y)
    y_perturbed = y.copy()
    y_perturbed[:, 1:] += 37.0  # beyond the trained horizon
    assert run(y_perturbed) == base
    y_inside = y.copy()
    y_inside[:, 0] += 37.0
    assert run(y_inside) != base


def test_sampling_prob_at_iteration_zero():
    assert TR.scheduled_sampling_prob(0, 4000.0) == pytest.approx(4000.0 / 4001.0)
