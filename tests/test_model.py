"""Cell and seq2seq behavior: zero-parameter hand values, bounds, counts,
scheduled-sampling plumbing, end-to-end gradients."""
import numpy as np
import pytest

import dgcrn.conv as C
import dgcrn.model as M
from dgcrn import tensor as T
from dgcrn.errors import ConfigError, DimensionError
from dgcrn.graphs import StaticGraph


def _graph(rng, n):
    pos = rng.uniform(0, 10, (n, 2))
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    sigma = d[~np.eye(n, dtype=bool)].std()
    a = np.exp(-((d / sigma) ** 2))
    return StaticGraph(np.where(a >= 0.1, a, 0.0))


def _tiny_hp(**kw):
    base = dict(hidden=4, emb_dim=3, hyper_dim=2, hops=2, hyper_hops=1,
                alpha_sat=2.0, alpha_mix=0.05, beta_mix=0.95, gamma_mix=0.95,
                input_len=2, output_len=2)
    base.update(kw)
    return M.HyperParams(**base)


def _zero_all(params):
    for _, t in M.named_parameters(params):
        t.data[:] = 0.0


def test_zero_parameters_halve_hidden_state():
    rng = np.random.default_rng(0)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(), 3, seed=0, dtype=np.float64)
    _zero_all(params)
    h_prev = T.Tensor(rng.normal(size=(2, 3, 4)))
    x_t = T.Tensor(rng.normal(size=(2, 3, 2)))
    h_t, graphs = M.cell_step(x_t, h_prev, g, params.encoder)
    # z = r = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0
    assert np.allclose(h_t.data, 0.5 * h_prev.data, atol=1e-15)
    # zero embeddings generate no edge, so both normalized graphs are I
    assert len(graphs) == 2
    for norm in graphs:
        assert np.array_equal(norm.data, np.broadcast_to(np.eye(3), (2, 3, 3)))
    # without a generator there is no dynamic graph to return
    static_only = M.init_model(_tiny_hp(beta_mix=0.0), 3, seed=0, dtype=np.float64)
    assert M.cell_step(x_t, h_prev, g, static_only.encoder)[1] is None


def test_hidden_state_stays_bounded():
    rng = np.random.default_rng(1)
    g = _graph(rng, 4)
    params = M.init_model(_tiny_hp(), 4, seed=1, dtype=np.float64)
    h = T.zeros((2, 4, 4))
    for step in range(6):
        x_t = T.Tensor(rng.normal(size=(2, 4, 2)))
        h, _ = M.cell_step(x_t, h, g, params.encoder)
        assert np.all(np.abs(h.data) < 1.0)


def test_cell_input_validation():
    # encode checks a batch's shape once, before any cell step runs
    rng = np.random.default_rng(2)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(), 3, seed=0)
    for shape in ((1, 2, 3, 5), (1, 2, 4, 2), (1, 0, 3, 2)):
        with pytest.raises(DimensionError) as ei:
            M.encode(T.zeros(shape), g, params)
        assert "graph (3) and of the model (3); got shape %r" % (shape,) in str(ei.value)
    # a model built for another node count: its embedding tables have 4 rows
    other = M.init_model(_tiny_hp(), 4, seed=0)
    with pytest.raises(DimensionError, match=r"graph \(3\) and of the model \(4\)"):
        M.encode(T.zeros((1, 2, 3, 2)), g, other)


def test_encode_base_case_and_zero_params():
    rng = np.random.default_rng(3)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(), 3, seed=2, dtype=np.float64)
    x1 = T.Tensor(rng.normal(size=(2, 1, 3, 2)))
    h_final = M.encode(x1, g, params)
    step, _ = M.cell_step(
        T.Tensor(x1.data[:, 0]), T.zeros((2, 3, 4), dtype=np.float64), g, params.encoder,
    )
    assert np.array_equal(h_final.data, step.data)
    # shape independent of P
    x5 = T.Tensor(rng.normal(size=(2, 5, 3, 2)))
    h5 = M.encode(x5, g, params)
    assert h5.shape == (2, 3, 4)
    _zero_all(params)
    hz = M.encode(x5, g, params)
    assert not np.any(hz.data)
    with pytest.raises(DimensionError):
        M.encode(T.zeros((2, 3, 2)), g, params)


def test_one_dynamic_graph_per_cell_step(monkeypatch):
    rng = np.random.default_rng(4)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(output_len=4), 3, seed=3, dtype=np.float64)
    calls = {"n": 0}
    inputs = []
    real = M.generate

    def counting(inp, *a, **kw):
        calls["n"] += 1
        inputs.append(inp.data.copy())
        return real(inp, *a, **kw)

    monkeypatch.setattr(M, "generate", counting)
    x = T.Tensor(rng.normal(size=(1, 3, 3, 2)))
    h = M.encode(x, g, params)
    assert calls["n"] == 3
    # the generator reads [speed, time-of-day, hidden]; the first hidden is 0
    first = np.concatenate([x.data[:, 0], np.zeros((1, 3, 4))], axis=-1)
    assert np.array_equal(inputs[0], first)
    tod = T.Tensor(rng.uniform(0, 1, (1, 4, 3, 1)))
    M.decode(h, tod, g, params, horizon=2)
    assert calls["n"] == 3 + 2


# T.matmul and T.scaled_add calls, and Horner weights U_k that conv.fold
# builds, in one cell step of an unfolded cell, whose convolutions each fold
# their own weights, at hops = hyper_hops = 2. A mixing coefficient of
# exactly 0 adds no term: beta 0 drops the generator and the dynamic
# diffusions, gamma 0 the static ones (the hyper-networks then diffuse
# nothing and make only X U_0), and alpha 0 the skip term, so U_k is W_k
# itself and fold builds none. Each convolution makes one scaled_add per hop
# that diffuses, summing the hop's projection and its diffusions as one
# node: 2 per gate and 2 per hyper-network (0 with gamma 0). When alpha is
# not 0, fold builds U_0..U_{K-1}: 2 per convolution, hyper-networks with
# gamma 0 included, whose U list is built but only U_0 used.
@pytest.mark.parametrize("overrides,matmuls,scaled_adds,folded", [
    ({}, 56, 16, 16),
    ({"alpha_mix": 0.0}, 56, 16, 0),
    ({"beta_mix": 0.0}, 30, 12, 12),
    ({"gamma_mix": 0.0}, 36, 12, 16),
    ({"filter_mode": "frozen"}, 44, 12, 12),
    ({"hypernet": "affine"}, 46, 12, 12),
    ({"filter_mode": "matmul"}, 58, 16, 16),
], ids=["full", "alpha0", "beta0", "gamma0", "frozen", "affine", "matmul"])
def test_zero_coefficient_adds_no_term(monkeypatch, overrides, matmuls, scaled_adds, folded):
    rng = np.random.default_rng(12)
    g = _graph(rng, 4)
    params = M.init_model(_tiny_hp(hyper_hops=2, **overrides), 4, seed=12,
                          dtype=np.float64)
    calls = {"matmul": 0, "scaled_add": 0}

    def counting(name):
        real = getattr(T, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(T, name, counting(name))
    real_fold = C.fold

    def counting_fold(p):
        q = real_fold(p)
        calls["folded"] += 0 if q is p else len(p.hop_weights) - 1
        return q

    calls["folded"] = 0
    monkeypatch.setattr(C, "fold", counting_fold)
    M.cell_step(T.Tensor(rng.normal(size=(2, 4, 2))), T.Tensor(rng.normal(size=(2, 4, 4))),
                g, params.encoder)
    assert calls == {"matmul": matmuls, "scaled_add": scaled_adds, "folded": folded}


@pytest.mark.parametrize("p_len,q_len", [(1, 1), (3, 2), (5, 4)])
def test_horner_weights_built_once_per_forward(monkeypatch, p_len, q_len):
    # encode and decode each build their cell's U_0..U_{K-1} once, so every
    # hop weight below the top one has its U built exactly once per forward,
    # however many cell steps run
    rng = np.random.default_rng(15)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(hyper_hops=2, input_len=p_len, output_len=q_len), 3,
                          seed=15, dtype=np.float64)
    names = {id(t): name for name, t in M.named_parameters(params)}
    built = []
    real = C.fold

    def recording(p):
        q = real(p)
        if q is not p:
            built.extend(names[id(w)] for w in p.hop_weights[:-1])
        return q

    # model folds each cell through its own binding; a convolution run on
    # unfolded weights would fold through conv's
    monkeypatch.setattr(C, "fold", recording)
    monkeypatch.setattr(M, "fold", recording)
    x = T.Tensor(rng.normal(size=(2, p_len, 3, 2)))
    tod = T.Tensor(rng.uniform(0, 1, (2, q_len, 3, 1)))
    M.decode(M.encode(x, g, params), tod, g, params)
    below_top = [n for n in names.values()
                 if n.endswith((".w0", ".w1")) and not n.startswith("readout")]
    # 2 halves x (6 gate + 2 hyper-network convolutions) x U_0, U_1
    assert len(below_top) == 32
    assert sorted(built) == sorted(below_top)


def test_graph_products_multiply_output_width(monkeypatch):
    # every N x N product in a cell step diffuses a projected array: hidden
    # wide in the gates, hyper_dim wide in the hyper-networks, never the
    # 2 + hidden wide gate input
    n, hp = 9, _tiny_hp(hidden=5, hyper_dim=3, hyper_hops=2)
    rng = np.random.default_rng(13)
    params = M.init_model(hp, n, seed=13, dtype=np.float64)
    widths = []
    real = T.matmul

    def recording(x, y):
        if x.shape[-2:] == (n, n):
            widths.append(y.shape[-1])
        return real(x, y)

    monkeypatch.setattr(T, "matmul", recording)
    M.cell_step(T.Tensor(rng.normal(size=(2, n, 2))), T.Tensor(rng.normal(size=(2, n, 5))),
                _graph(rng, n), params.encoder)
    # 6 gate convolutions x 2 hops x 2 graphs, 2 hyper-networks x 2 hops x 1
    assert sorted(widths) == [3] * 4 + [5] * 24


def test_readout_zero_and_constant():
    rng = np.random.default_rng(5)
    params = M.init_model(_tiny_hp(), 3, seed=4, dtype=np.float64)
    h = T.Tensor(rng.normal(size=(2, 3, 4)))
    _zero_all(params)
    assert not np.any(M.readout(h, params).data)
    params.readout[1].data[:] = 2.5
    assert np.allclose(M.readout(h, params).data, 2.5)


def test_readout_two_layer_shape():
    params = M.init_model(_tiny_hp(readout_hidden=3), 3, seed=5, dtype=np.float64)
    assert len(params.readout) == 4
    h = T.Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
    out = M.readout(h, params)
    assert out.shape == (2, 3)


def test_decode_teacher_forcing_modes():
    rng = np.random.default_rng(6)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(output_len=3), 3, seed=6, dtype=np.float64)
    h0 = T.Tensor(rng.normal(size=(2, 3, 4)) * 0.1)
    tod = T.Tensor(rng.uniform(0, 1, (2, 3, 3, 1)))
    teacher_a = T.Tensor(rng.normal(size=(2, 3, 3)))
    teacher_b = T.Tensor(rng.normal(size=(2, 3, 3)))

    # free-running decode ignores teacher values entirely
    free_a = M.decode(h0, tod, g, params, teacher=teacher_a, coins=())
    free_b = M.decode(h0, tod, g, params, teacher=teacher_b, coins=(False, False))
    assert np.array_equal(free_a.data, free_b.data)

    # pure teacher forcing: step q+1 consumes teacher step q, so the
    # prediction after the first step depends on the labels
    forced_a = M.decode(h0, tod, g, params, teacher=teacher_a, coins=(True, True))
    forced_b = M.decode(h0, tod, g, params, teacher=teacher_b, coins=(True, True))
    assert np.array_equal(forced_a.data[:, 0], forced_b.data[:, 0])
    assert not np.array_equal(forced_a.data[:, 1], forced_b.data[:, 1])

    # coins (False, True): step 2 feeds back step 1's forecast and ignores the
    # teacher; step 3 reads teacher step 2 and no other label
    mixed_a = M.decode(h0, tod, g, params, teacher=teacher_a, coins=(False, True))
    assert np.array_equal(mixed_a.data[:, :2], free_a.data[:, :2])
    teacher_c = T.Tensor(teacher_a.data.copy())
    teacher_c.data[:, 1] += 1.0
    mixed_c = M.decode(h0, tod, g, params, teacher=teacher_c, coins=(False, True))
    assert np.array_equal(mixed_c.data[:, :2], mixed_a.data[:, :2])
    assert not np.array_equal(mixed_c.data[:, 2], mixed_a.data[:, 2])
    teacher_c = T.Tensor(teacher_a.data.copy())
    teacher_c.data[:, [0, 2]] += 1.0
    mixed_c = M.decode(h0, tod, g, params, teacher=teacher_c, coins=(False, True))
    assert np.array_equal(mixed_c.data, mixed_a.data)


def test_decode_horizon_and_errors():
    rng = np.random.default_rng(7)
    g = _graph(rng, 3)
    params = M.init_model(_tiny_hp(output_len=3), 3, seed=7, dtype=np.float64)
    h0 = T.zeros((1, 3, 4))
    tod = T.Tensor(rng.uniform(0, 1, (1, 3, 3, 1)))
    out = M.decode(h0, tod, g, params, horizon=1)
    assert out.shape == (1, 1, 3)
    with pytest.raises(DimensionError):
        M.decode(h0, T.zeros((1, 3, 3)), g, params)


def test_named_parameters_unique_and_ablation_counts():
    full = M.init_model(_tiny_hp(), 3, seed=8)
    names = [n for n, _ in M.named_parameters(full)]
    assert len(names) == len(set(names))

    def param_count(params):
        return sum(t.size for _, t in M.named_parameters(params))

    n_full = param_count(full)

    shared = M.init_model(_tiny_hp(share_embeddings=True), 3, seed=8)
    assert param_count(shared) == n_full - 2 * 3 * 3  # decoder emb tables gone

    no_dg = M.init_model(_tiny_hp(beta_mix=0.0), 3, seed=8)
    assert no_dg.encoder.gen is None
    assert param_count(no_dg) < n_full

    frozen = M.init_model(_tiny_hp(filter_mode="frozen"), 3, seed=8)
    assert frozen.encoder.gen.hyper_src is None
    assert param_count(frozen) < n_full

    affine = M.init_model(_tiny_hp(hypernet="affine"), 3, seed=8)
    assert affine.encoder.gen.hyper_src.conv is None
    assert param_count(affine) <= n_full

    no_pre = M.init_model(_tiny_hp(gamma_mix=0.0), 3, seed=8)
    assert param_count(no_pre) == n_full  # same shapes, static terms skipped


def test_init_deterministic_and_dtype():
    a = M.init_model(_tiny_hp(), 3, seed=11, dtype=np.float32)
    b = M.init_model(_tiny_hp(), 3, seed=11, dtype=np.float32)
    for (na, ta), (nb, tb) in zip(M.named_parameters(a), M.named_parameters(b)):
        assert na == nb
        assert ta.dtype == np.float32
        assert np.array_equal(ta.data, tb.data)
    c = M.init_model(_tiny_hp(), 3, seed=12, dtype=np.float32)
    assert not np.array_equal(a.readout[0].data, c.readout[0].data)


def test_end_to_end_gradients_spot_check():
    rng = np.random.default_rng(9)
    n = 3
    g = _graph(rng, n)
    params = M.init_model(_tiny_hp(), n, seed=10, dtype=np.float64)
    x = T.Tensor(rng.normal(size=(1, 2, n, 2)))
    tod = T.Tensor(rng.uniform(0, 1, (1, 2, n, 1)))
    y = rng.normal(size=(1, 2, n))
    mask = (rng.random((1, 2, n)) < 0.8).astype(np.float64)
    mask[0, 0, 0] = 1.0  # keep the loss non-degenerate
    y_t = T.Tensor(y)
    m_t = T.Tensor(mask)

    def build():
        h = M.encode(x, g, params)
        preds = M.decode(h, tod, g, params)
        err = T.absolute(preds - y_t) * m_t
        return err.sum() * (1.0 / mask.sum())

    named = dict(M.named_parameters(params))
    leaves = [named["encoder.gen.emb_src"], named["decoder.gen.emb_tgt"],
              named["encoder.z.fwd.w0"], named["decoder.h.bwd.w2"],
              named["encoder.gen.hyper_src.proj_w"], named["readout.w0"],
              named["readout.b0"]]
    M.zero_grads(params)
    loss = build()
    loss.backward()
    for leaf in leaves:
        fd = T.finite_diff_grad(lambda _t: build(), leaf)
        assert T.max_rel_err(leaf.grad, fd.data) < 1e-4


def test_hp_validation():
    with pytest.raises(ConfigError):
        _tiny_hp(hidden=0).validate()
    with pytest.raises(ConfigError):
        _tiny_hp(beta_mix=1.5).validate()
    with pytest.raises(ConfigError):
        _tiny_hp(hypernet="mlp").validate()
    # the values the conv and generator records no longer check themselves
    for bad in (dict(alpha_sat=0), dict(alpha_mix=1.5), dict(filter_mode="nope"),
                dict(hops=-1)):
        with pytest.raises(ConfigError):
            M.init_model(_tiny_hp(**bad), 3, seed=0)
    with pytest.raises(ConfigError):
        M.init_model(_tiny_hp(), 1, seed=0)
