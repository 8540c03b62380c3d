"""Dynamic graph generator: hand values, invariants, and the frozen-filter
collapse onto the static adaptive graph."""
import numpy as np
import pytest

from dgcrn import tensor as T
from dgcrn.conv import ConvParams, supports
from dgcrn.generator import (
    DynamicGraph,
    GeneratorParams,
    HyperNetParams,
    dynamic_adjacency,
    dynamic_embeddings,
    generate,
    hyper_forward,
)
from dgcrn.graphs import StaticGraph

from oracles import dyn_graph_ref, khop_conv_ref, static_adaptive_ref


def _hyper(rng, d_in, d_h, d_f, k=1):
    conv = ConvParams(
        [T.Tensor(rng.uniform(-0.5, 0.5, (d_in, d_h)), requires_grad=True)
         for _ in range(k + 1)],
        alpha_mix=0.05,
    )
    return HyperNetParams(
        conv=conv,
        proj_w=T.Tensor(rng.uniform(-0.5, 0.5, (d_h, d_f)), requires_grad=True),
        proj_b=T.Tensor(np.zeros(d_f), requires_grad=True),
    )


def _gen_params(rng, n, d_e, d_in, d_h, mode="hadamard", alpha_sat=2.0):
    d_f = d_e * d_e if mode == "matmul" else d_e
    frozen = mode == "frozen"
    return GeneratorParams(
        emb_src=T.Tensor(rng.normal(size=(n, d_e)), requires_grad=True),
        emb_tgt=T.Tensor(rng.normal(size=(n, d_e)), requires_grad=True),
        hyper_src=None if frozen else _hyper(rng, d_in, d_h, d_f),
        hyper_tgt=None if frozen else _hyper(rng, d_in, d_h, d_f),
        alpha_sat=alpha_sat,
        filter_mode=mode,
    )


def _static(g, gamma=0.95):
    """The static forward supports a cell step hands the generator."""
    return supports(g, None, 0.0, gamma, np.float64)[0]


# -- hyper_forward ----------------------------------------------------------------

def test_hyper_zero_params_gives_zero_filter():
    g = StaticGraph(np.ones((2, 2)))
    conv = ConvParams([T.zeros((3, 2)), T.zeros((3, 2))], 0.05)
    hp = HyperNetParams(conv, T.zeros((2, 4)), T.zeros(4))
    out = hyper_forward(T.ones((1, 2, 3)), _static(g), hp)
    assert not np.any(out.data)


def test_hyper_hand_example_and_reference():
    # N=2 uniform graph, scalar dims, unit weights, full skip and static mixing
    g = StaticGraph(np.ones((2, 2)))
    conv = ConvParams([T.ones((1, 1)), T.ones((1, 1))], 1.0)
    hp = HyperNetParams(conv, T.ones((1, 1)), T.zeros(1))
    inp = T.Tensor([[[1.0], [3.0]]])
    out = hyper_forward(inp, _static(g, gamma=1.0), hp)
    # hop0 = [1,3]; hop1 = input + avg = [3,5]; sum = [4,8]; projection is identity
    assert np.allclose(out.data, [[[4.0], [8.0]]], atol=1e-12)
    ref = khop_conv_ref(inp.data, g.forward_norm, None, [np.ones((1, 1))] * 2, 1.0, 0.0, 1.0)
    assert np.allclose(out.data, ref @ np.ones((1, 1)), atol=1e-12)


def test_hyper_affine_mode():
    g = StaticGraph(np.ones((3, 3)))
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    hp = HyperNetParams(None, T.Tensor(w), T.Tensor([0.5, -0.5]))
    inp = T.Tensor(np.ones((1, 3, 2)))
    out = hyper_forward(inp, _static(g), hp)
    assert np.allclose(out.data, np.ones((1, 3, 2)) @ w + [0.5, -0.5], atol=1e-12)


# -- dynamic embeddings -------------------------------------------------------------

def test_embeddings_zero_filter_and_scalar_case():
    rng = np.random.default_rng(0)
    p = _gen_params(rng, 3, 2, 4, 2)
    zero = T.zeros((2, 3, 2))
    de1, de2 = dynamic_embeddings(zero, zero, p)
    assert not np.any(de1.data) and not np.any(de2.data)

    p1 = _gen_params(rng, 1, 1, 4, 2, alpha_sat=1.0)
    p1.emb_src.data[:] = 0.5
    ones = T.ones((1, 1, 1))
    de1, _ = dynamic_embeddings(ones, ones, p1)
    assert de1.data[0, 0, 0] == pytest.approx(np.tanh(0.5))


def test_embeddings_bounded():
    rng = np.random.default_rng(1)
    p = _gen_params(rng, 4, 3, 4, 2, alpha_sat=3.0)
    df = T.Tensor(rng.normal(size=(2, 4, 3)))
    de1, de2 = dynamic_embeddings(df, df, p)
    for de in (de1, de2):
        assert np.all(np.abs(de.data) < 1.0)
    # extreme filters saturate onto [-1,1] without overshooting
    huge = T.Tensor(rng.normal(scale=100.0, size=(2, 4, 3)))
    de1, _ = dynamic_embeddings(huge, huge, p)
    assert np.all(np.abs(de1.data) <= 1.0)


def test_embeddings_matmul_mode_matches_per_node_loop():
    rng = np.random.default_rng(2)
    n, d_e, b = 3, 2, 2
    p = _gen_params(rng, n, d_e, 4, 2, mode="matmul")
    df = T.Tensor(rng.normal(size=(b, n, d_e * d_e)))
    de1, _ = dynamic_embeddings(df, df, p)
    expect = np.zeros((b, n, d_e))
    for i in range(b):
        for v in range(n):
            mat = df.data[i, v].reshape(d_e, d_e)
            expect[i, v] = np.tanh(p.alpha_sat * (p.emb_src.data[v] @ mat))
    assert np.allclose(de1.data, expect, atol=1e-12)


# -- dynamic adjacency ----------------------------------------------------------------

def test_equal_embeddings_cancel_to_identity():
    rng = np.random.default_rng(3)
    de = T.Tensor(rng.normal(size=(2, 4, 3)))
    dyn = dynamic_adjacency((de, de), 2.0)
    assert not np.any(dyn.raw.data)
    assert np.array_equal(dyn.normalized.data, np.broadcast_to(np.eye(4), (2, 4, 4)))


def test_hand_example_one_directional():
    de1 = T.Tensor([[[1.0, 0.0], [0.0, 1.0]]])
    de2 = T.Tensor([[[1.0, 0.0], [1.0, 0.0]]])
    dyn = dynamic_adjacency((de1, de2), 1.0)
    expect = np.array([[0.0, np.tanh(1.0)], [0.0, 0.0]])
    assert np.allclose(dyn.raw.data[0], expect, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_invariants_random(seed):
    rng = np.random.default_rng(seed)
    b, n, d_e = 3, 5, 4
    # modulated embeddings are tanh outputs, so magnitudes stay below 1
    de1 = T.Tensor(np.tanh(rng.normal(size=(b, n, d_e))))
    de2 = T.Tensor(np.tanh(rng.normal(size=(b, n, d_e))))
    dyn = dynamic_adjacency((de1, de2), 3.0)
    raw = dyn.raw.data
    assert np.all((raw >= 0.0) & (raw < 1.0))
    assert np.all(np.diagonal(raw, axis1=-2, axis2=-1) == 0.0)
    assert np.all(raw * np.swapaxes(raw, -1, -2) == 0.0)
    for m in (dyn.normalized.data, dyn.normalized_bwd.data):
        assert np.allclose(m.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(m >= 0.0)
    # against the loop reference
    r_raw, r_norm, r_bwd = dyn_graph_ref(de1.data, de2.data, 3.0)
    assert np.allclose(raw, r_raw, atol=1e-12)
    assert np.allclose(dyn.normalized.data, r_norm, atol=1e-12)
    assert np.allclose(dyn.normalized_bwd.data, r_bwd, atol=1e-12)


# -- generate ------------------------------------------------------------------------

def _graph(rng, n):
    pos = rng.uniform(0, 10, (n, 2))
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    a = np.exp(-((d / d[~np.eye(n, dtype=bool)].std()) ** 2))
    return StaticGraph(np.where(a >= 0.1, a, 0.0))


def test_generate_deterministic_and_counts():
    rng = np.random.default_rng(4)
    n, h = 4, 3
    g = _graph(rng, n)
    p = _gen_params(rng, n, 2, 2 + h, 2)
    inp = T.Tensor(rng.normal(size=(2, n, 2 + h)))
    d1 = generate(inp, _static(g), p)
    d2 = generate(inp, _static(g), p)
    assert np.array_equal(d1.raw.data, d2.raw.data)
    assert d1.raw.shape == (2, n, n)


def test_frozen_filters_bitwise_equal_static_adaptive():
    rng = np.random.default_rng(5)
    n, d_e, b = 5, 3, 4
    g = _graph(rng, n)
    p = _gen_params(rng, n, d_e, 6, 2, mode="frozen", alpha_sat=3.0)
    inp = T.Tensor(rng.normal(size=(b, n, 6)))
    dyn = generate(inp, _static(g), p)
    expect = static_adaptive_ref(p.emb_src.data, p.emb_tgt.data, 3.0)
    for i in range(b):
        assert np.array_equal(dyn.raw.data[i], expect)


def test_identity_filter_via_zero_conv_and_unit_bias():
    # zero conv weights + unit projection bias force DF = 1, which must
    # collapse onto the frozen-filter graph exactly
    rng = np.random.default_rng(6)
    n, d_e, h = 4, 2, 3
    g = _graph(rng, n)
    p = _gen_params(rng, n, d_e, 2 + h, 2, alpha_sat=2.0)
    for hp in (p.hyper_src, p.hyper_tgt):
        for w in hp.conv.hop_weights:
            w.data[:] = 0.0
        hp.proj_w.data[:] = 0.0
        hp.proj_b.data[:] = 1.0
    inp = T.Tensor(rng.normal(size=(2, n, 2 + h)))
    dyn = generate(inp, _static(g), p)
    expect = static_adaptive_ref(p.emb_src.data, p.emb_tgt.data, 2.0)
    for i in range(2):
        assert np.array_equal(dyn.raw.data[i], expect)


@pytest.mark.parametrize("mode", ["hadamard", "matmul"])
def test_generate_end_to_end_gradients(mode):
    rng = np.random.default_rng(7)
    n, d_e, h, b = 3, 2, 2, 1
    g = _graph(rng, n)
    p = _gen_params(rng, n, d_e, 2 + h, 2, mode=mode)
    inp = T.Tensor(rng.normal(size=(b, n, 2 + h)), requires_grad=True)
    probe = T.Tensor(rng.normal(size=(b, n, n)))

    def build():
        dyn = generate(inp, _static(g), p)
        return (dyn.normalized * probe).sum() + dyn.normalized_bwd.sum() * 0.25

    leaves = [p.emb_src, p.emb_tgt, inp,
              p.hyper_src.conv.hop_weights[0], p.hyper_src.proj_w,
              p.hyper_tgt.proj_b]
    loss = build()
    loss.backward()
    for leaf in leaves:
        fd = T.finite_diff_grad(lambda _t: build(), leaf)
        assert T.max_rel_err(leaf.grad, fd.data) < 1e-4
