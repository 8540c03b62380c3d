"""K-hop convolution against hand values and the einsum reference."""
import itertools

import numpy as np
import pytest

from dgcrn import tensor as T
from dgcrn.conv import ConvParams, dgconv_forward, dual_dgconv, fold, supports
from dgcrn.generator import dynamic_adjacency
from dgcrn.graphs import StaticGraph

from oracles import khop_conv_ref


def _uniform_graph(n):
    return StaticGraph(np.ones((n, n)))


def _params(rng, d_in, d_out, k, alpha):
    ws = [T.Tensor(rng.uniform(-0.5, 0.5, (d_in, d_out)), requires_grad=True)
          for _ in range(k + 1)]
    return ConvParams(ws, alpha)


def _random_dyn(rng, b, n, d_e=3, alpha_sat=2.0):
    de1 = T.Tensor(rng.normal(size=(b, n, d_e)), requires_grad=True)
    de2 = T.Tensor(rng.normal(size=(b, n, d_e)), requires_grad=True)
    return dynamic_adjacency((de1, de2), alpha_sat), de1, de2


def test_hand_example_two_nodes():
    g = _uniform_graph(2)  # forward_norm [[.5,.5],[.5,.5]]
    w = [T.Tensor([[1.0]]), T.Tensor([[1.0]])]
    p = ConvParams(w, alpha_mix=1.0)
    h = T.Tensor([[[1.0], [2.0]]])
    fwd, _ = supports(g, None, 0.0, 1.0, h.dtype)
    out = dgconv_forward(h, fwd, p)
    assert np.allclose(out.data, [[[3.5], [5.5]]], atol=1e-12)


def test_zero_hops_ignores_graphs():
    rng = np.random.default_rng(0)
    g = _uniform_graph(3)
    p = _params(rng, 2, 4, 0, 0.05)
    h = T.Tensor(rng.normal(size=(2, 3, 2)))
    dyn, _, _ = _random_dyn(rng, 2, 3)
    fwd, _ = supports(g, dyn, 0.95, 0.95, h.dtype)
    out = dgconv_forward(h, fwd, p)
    assert np.allclose(out.data, h.data @ p.hop_weights[0].data, atol=1e-12)


def test_identity_propagation_with_empty_dynamic_graph():
    # de1 == de2 makes raw = 0, so the normalized dynamic graph is I
    rng = np.random.default_rng(1)
    de = T.Tensor(rng.normal(size=(2, 3, 2)))
    dyn = dynamic_adjacency((de, de), 1.5)
    assert np.array_equal(dyn.normalized.data, np.broadcast_to(np.eye(3), (2, 3, 3)))
    g = _uniform_graph(3)
    k = 2
    w = [T.Tensor(np.eye(4)) for _ in range(k + 1)]
    p = ConvParams(w, alpha_mix=0.0)
    h = T.Tensor(rng.normal(size=(2, 3, 4)))
    fwd, _ = supports(g, dyn, 1.0, 0.0, h.dtype)
    out = dgconv_forward(h, fwd, p)
    assert np.allclose(out.data, (k + 1) * h.data, atol=1e-12)


def test_pure_skip_sums_weights():
    rng = np.random.default_rng(2)
    g = _uniform_graph(4)
    p = _params(rng, 3, 2, 2, 1.0)
    h = T.Tensor(rng.normal(size=(1, 4, 3)))
    fwd, _ = supports(g, None, 0.0, 0.0, h.dtype)
    assert fwd == []
    out = dgconv_forward(h, fwd, p)
    wsum = sum(w.data for w in p.hop_weights)
    assert np.allclose(out.data, h.data @ wsum, atol=1e-12)


def _tape_nodes(root):
    """Interior tape nodes reachable from root."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._backward is not None
            stack.extend(t._parents)
    return nodes


@pytest.mark.parametrize("k", range(4))
def test_fold(k):
    # fold(p) has alpha 0 and U_i = W_i + alpha * (W_K + ... + W_{i+1}), the
    # tail summed from W_K down; U_K is W_K itself
    rng = np.random.default_rng(11)
    p = _params(rng, 3, 2, k, 0.05)
    ws = [w.data for w in p.hop_weights]
    q = fold(p)
    us = q.hop_weights
    assert q.alpha_mix == 0.0
    assert len(us) == k + 1 and us[k] is p.hop_weights[k]
    for i in range(k):
        tail = ws[k]
        for w in ws[k - 1:i:-1]:
            tail = tail + w
        assert us[i].data.tobytes() == (ws[i] + tail * 0.05).tobytes()
    # an alpha-0 convolution is already folded: fold returns it as it is
    p0 = ConvParams(p.hop_weights, 0.0)
    assert fold(p0) is p0 and fold(q) is q
    # p, fold(p) and fold(fold(p)) convolve bitwise alike, output and every
    # gradient, with the same tape, with and without supports
    g = StaticGraph(rng.uniform(0.05, 1.0, (4, 4)))
    h = T.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    # constant embeddings: backward frees the tape, so the graph must not be on it
    dyn = dynamic_adjacency([T.Tensor(rng.normal(size=(2, 4, 3))) for _ in range(2)], 2.0)
    probe = T.Tensor(rng.normal(size=(2, 4, 2)))
    leaves = [h] + p.hop_weights
    for alpha in (0.0, 0.05):
        for sup in (supports(g, dyn, 0.95, 0.95, h.dtype)[0], []):
            runs = []
            for conv in (lambda c: c, fold, lambda c: fold(fold(c))):
                out = dgconv_forward(h, sup, conv(ConvParams(p.hop_weights, alpha)))
                loss = (out * probe).sum()
                nodes = _tape_nodes(loss)
                for leaf in leaves:
                    leaf.zero_grad()
                loss.backward()
                # with no supports and alpha 0 only W_0 gets a gradient
                runs.append((out.data.tobytes(), nodes,
                             [None if t.grad is None else t.grad.tobytes() for t in leaves]))
            assert runs[0] == runs[1] == runs[2], (alpha, len(sup))


def test_aggregation_preserves_value_bounds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = StaticGraph(rng.uniform(0.1, 1.0, (n, n)))
        h = rng.normal(size=(2, n, 3))
        agg = np.einsum("nm,bmd->bnd", g.forward_norm, h)
        lo = h.min(axis=1, keepdims=True)
        hi = h.max(axis=1, keepdims=True)
        assert np.all(agg >= lo - 1e-12)
        assert np.all(agg <= hi + 1e-12)


# (beta, gamma) per support subset; alpha stays 0.05, so "none" is the
# skip term alone
_SUBSETS = {"both": (0.95, 0.95), "dynamic": (0.95, 0.0),
            "static": (0.0, 0.95), "none": (0.0, 0.0)}
# both supports run under the bare seed ids, the other subsets are named
_REFERENCE_CASES = [pytest.param(seed, "both", id=str(seed)) for seed in range(6)] + [
    pytest.param(seed, subset, id="%s-%d" % (subset, seed))
    for subset in ("dynamic", "static", "none") for seed in range(6)
]


# float64 must match the hop-by-hop reference to rounding; float32 carries
# the Horner form's different summation order at rtol 1e-5 of the output
_TOLERANCE = {np.float64: (0.0, 1e-12), np.float32: (1e-5, 1e-5)}


@pytest.mark.parametrize("seed,subset", _REFERENCE_CASES)
def test_matches_reference_evaluator(seed, subset):
    # K = 0..3 hops, with and without the skip term, projecting to fewer and
    # to more columns than the input has, in both dtypes
    beta, gamma = _SUBSETS[subset]
    b, n, d_in = 2, 4, 3
    for dtype, k, alpha, d_out in itertools.product(_TOLERANCE, range(4), (0.0, 0.05), (2, 5)):
        rtol, atol = _TOLERANCE[dtype]
        rng = np.random.default_rng(seed)
        g = StaticGraph(rng.uniform(0.05, 1.0, (n, n)))
        ws = [T.Tensor(rng.uniform(-0.5, 0.5, (d_in, d_out)).astype(dtype))
              for _ in range(k + 1)]
        h = T.Tensor(rng.normal(size=(b, n, d_in)).astype(dtype))
        de1, de2 = (T.Tensor(rng.normal(size=(b, n, 3)).astype(dtype)) for _ in range(2))
        dyn = dynamic_adjacency((de1, de2), 2.0)
        fwd, bwd = supports(g, dyn, beta, gamma, dtype)
        assert len(fwd) == len(bwd) == (beta != 0.0) + (gamma != 0.0)
        stat_f, stat_b = g.norm_pair(dtype)
        for sup, stat, dyn_norm in ((fwd, stat_f, dyn.normalized),
                                    (bwd, stat_b, dyn.normalized_bwd)):
            out = dgconv_forward(h, sup, ConvParams(ws, alpha))
            assert out.dtype == dtype
            h64, stat64, dyn64, *ws64 = (t.data.astype(np.float64)
                                         for t in (h, stat, dyn_norm, *ws))
            ref = khop_conv_ref(h64, stat64, dyn64, ws64, alpha, beta, gamma)
            np.testing.assert_allclose(
                out.data, ref, rtol=rtol, atol=atol * max(1.0, np.abs(ref).max()),
                err_msg="%s k=%d alpha=%g d_out=%d" % (dtype.__name__, k, alpha, d_out))


def test_supports_order_and_zero_terms():
    rng = np.random.default_rng(10)
    g = StaticGraph(rng.uniform(0.05, 1.0, (3, 3)))
    dyn, _, _ = _random_dyn(rng, 2, 3)
    stat_f, stat_b = g.norm_pair(np.float64)
    fwd, bwd = supports(g, dyn, 0.3, 0.7, np.float64)
    # dynamic first, then static, each with its own coefficient
    assert [c for c, _ in fwd] == [c for c, _ in bwd] == [0.3, 0.7]
    assert fwd[0][1] is dyn.normalized and fwd[1][1] is stat_f
    assert bwd[0][1] is dyn.normalized_bwd and bwd[1][1] is stat_b
    # a zero coefficient, or no dynamic graph, leaves the term out
    assert supports(g, dyn, 0.0, 0.7, np.float64) == ([(0.7, stat_f)], [(0.7, stat_b)])
    assert supports(g, None, 0.3, 0.7, np.float64) == ([(0.7, stat_f)], [(0.7, stat_b)])
    assert supports(g, dyn, 0.3, 0.0, np.float64) == (
        [(0.3, dyn.normalized)], [(0.3, dyn.normalized_bwd)])
    assert supports(g, dyn, 0.0, 0.0, np.float64) == ([], [])


def test_dual_is_sum_of_directions():
    rng = np.random.default_rng(7)
    b, n, d_in, d_out = 2, 3, 2, 2
    g = StaticGraph(rng.uniform(0.05, 1.0, (n, n)))
    pf = _params(rng, d_in, d_out, 2, 0.05)
    pb = _params(rng, d_in, d_out, 2, 0.05)
    h = T.Tensor(rng.normal(size=(b, n, d_in)))
    dyn, _, _ = _random_dyn(rng, b, n)
    fwd, bwd = supports(g, dyn, 0.95, 0.95, h.dtype)
    out = dual_dgconv(h, fwd, bwd, (pf, pb))
    out_f = dgconv_forward(h, fwd, pf)
    out_b = dgconv_forward(h, bwd, pb)
    assert np.allclose(out.data, out_f.data + out_b.data, atol=1e-12)
    # zero weights in both directions collapse to zero output
    zf = ConvParams([T.zeros((d_in, d_out)) for _ in range(3)], 0.05)
    zb = ConvParams([T.zeros((d_in, d_out)) for _ in range(3)], 0.05)
    assert not np.any(dual_dgconv(h, fwd, bwd, (zf, zb)).data)


def test_symmetric_graph_directions_coincide():
    rng = np.random.default_rng(8)
    n = 4
    a = rng.uniform(0.1, 1.0, (n, n))
    g = StaticGraph(a + a.T)
    de = T.Tensor(rng.normal(size=(1, n, 2)))
    dyn = dynamic_adjacency((de, de), 1.0)  # raw = 0
    p = _params(rng, 2, 2, 1, 0.05)
    x = T.Tensor(rng.normal(size=(1, n, 2)))
    fwd, bwd = supports(g, dyn, 0.95, 0.95, x.dtype)
    assert np.allclose(
        dgconv_forward(x, fwd, p).data, dgconv_forward(x, bwd, p).data, atol=1e-12,
    )


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_fd(seed):
    rng = np.random.default_rng(seed + 100)
    b, n, d_in, d_out = 1, 3, 2, 2
    g = StaticGraph(rng.uniform(0.1, 1.0, (n, n)))
    pf = _params(rng, d_in, d_out, 2, 0.3)
    pb = _params(rng, d_in, d_out, 2, 0.3)
    h = T.Tensor(rng.normal(size=(b, n, d_in)), requires_grad=True)
    de1 = T.Tensor(rng.normal(size=(b, n, 2)), requires_grad=True)
    de2 = T.Tensor(rng.normal(size=(b, n, 2)), requires_grad=True)
    probe = T.Tensor(rng.normal(size=(b, n, d_out)))

    def build():
        dyn = dynamic_adjacency((de1, de2), 2.0)
        fwd, bwd = supports(g, dyn, 0.5, 0.4, h.dtype)
        return (dual_dgconv(h, fwd, bwd, (pf, pb)) * probe).sum()

    leaves = [h, de1, de2, pf.hop_weights[0], pf.hop_weights[2], pb.hop_weights[1]]
    loss = build()
    loss.backward()
    for leaf in leaves:
        fd = T.finite_diff_grad(lambda _t: build(), leaf)
        assert T.max_rel_err(leaf.grad, fd.data) < 1e-4


@pytest.mark.parametrize("k,alpha", [(1, 0.3), (3, 0.3), (3, 0.0)])
def test_dgconv_forward_gradients_match_fd(k, alpha):
    # weights, input and a dynamic graph taken as a leaf, in float64
    rng = np.random.default_rng(200 + k)
    b, n, d_in, d_out = 2, 3, 4, 2
    stat, _ = StaticGraph(rng.uniform(0.1, 1.0, (n, n))).norm_pair(np.float64)
    dyn = T.Tensor(rng.uniform(0.0, 1.0, (b, n, n)), requires_grad=True)
    h = T.Tensor(rng.normal(size=(b, n, d_in)), requires_grad=True)
    p = _params(rng, d_in, d_out, k, alpha)
    probe = T.Tensor(rng.normal(size=(b, n, d_out)))

    def build():
        return (dgconv_forward(h, [(0.6, dyn), (0.4, stat)], p) * probe).sum()

    build().backward()
    for leaf in [h, dyn] + p.hop_weights:
        fd = T.finite_diff_grad(lambda _t: build(), leaf)
        assert T.max_rel_err(leaf.grad, fd.data) < 1e-7


def test_conv_errors():
    rng = np.random.default_rng(9)
    g = _uniform_graph(3)
    dyn, _, _ = _random_dyn(rng, 1, 3)
    h4 = T.Tensor(rng.normal(size=(1, 4, 2)))
    p = _params(rng, 2, 2, 1, 1.0)
    # a support whose node count differs from the input's
    for beta, gamma in ((0.0, 1.0), (1.0, 0.0)):
        fwd, _ = supports(g, dyn, beta, gamma, h4.dtype)
        with pytest.raises(ValueError):
            dgconv_forward(h4, fwd, p)
