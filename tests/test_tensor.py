"""Numerics: forward values against hand/numpy oracles, backward against
central finite differences."""
import gc
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from dgcrn import conv
from dgcrn import tensor as T
from dgcrn import training as TR
from dgcrn.data import synth_distances
from dgcrn.errors import DimensionError, NumericError
from dgcrn.graphs import build_adjacency
from dgcrn.model import HyperParams, decode, encode, init_model


def _leaf(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _fd_check(build, leaves, tol=1e-4, eps=1e-5):
    for t in leaves:
        t.zero_grad()
    loss = build()
    loss.backward()
    for t in leaves:
        fd = T.finite_diff_grad(lambda _t: build(), t, eps=eps)
        assert t.grad is not None
        err = T.max_rel_err(t.grad, fd.data)
        assert err < tol, "rel err %.3e" % err


# -- matmul -------------------------------------------------------------------

def test_matmul_identity():
    m = T.Tensor([[2.0, -1.0], [0.5, 3.0]])
    eye = T.Tensor(np.eye(2))
    out = T.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_permutation():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.Tensor([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(T.matmul(a, b).data, [[0.0, 1.0], [1.0, 0.0]])


def test_matmul_grad_closed_form_and_fd():
    rng = np.random.default_rng(0)
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (4, 2))
    out = T.matmul(a, b).sum()
    out.backward()
    # d sum(ab)/da = ones(3,2) b^T
    expect = np.ones((3, 2)) @ b.data.T
    assert np.allclose(a.grad, expect, atol=1e-12)
    fd = T.finite_diff_grad(lambda _: T.matmul(a, b).sum(), a)
    assert T.max_rel_err(a.grad, fd.data) < 1e-6
    fd_b = T.finite_diff_grad(lambda _: T.matmul(a, b).sum(), b)
    assert T.max_rel_err(b.grad, fd_b.data) < 1e-6


def test_matmul_batch_broadcast():
    rng = np.random.default_rng(1)
    a = _leaf(rng, (2, 3, 4))
    b = _leaf(rng, (4, 5))
    out = T.matmul(a, b)
    assert out.shape == (2, 3, 5)
    assert np.allclose(out.data, a.data @ b.data)
    _fd_check(lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), [a, b])


def test_matmul_shape_errors():
    # numpy's own check: a mismatch still fails loudly, with its ValueError
    a = T.Tensor(np.zeros((3, 4)))
    b = T.Tensor(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        T.matmul(a, b)
    with pytest.raises(ValueError):
        T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 4, 5))))


# -- broadcast product of batched filters with per-node embeddings -------------

def test_hadamard_identity_and_zero_filter():
    rng = np.random.default_rng(2)
    emb = T.Tensor(rng.normal(size=(4, 3)))
    ones = T.Tensor(np.ones((2, 4, 3)))
    out = ones * emb
    assert out.shape == (2, 4, 3)
    assert np.array_equal(out.data[0], emb.data)
    assert np.array_equal(out.data[1], emb.data)
    zero = T.Tensor(np.zeros((2, 4, 3)))
    assert not np.any((zero * emb).data)


def test_hadamard_hand_example():
    filt = T.Tensor(np.zeros((1, 1, 2)))
    filt.data[0, 0] = [2.0, 3.0]
    emb = T.Tensor(np.array([[1.0, -1.0]]))
    out = filt * emb
    assert np.array_equal(out.data[0, 0], [2.0, -3.0])


def test_hadamard_shape_error_and_grads():
    rng = np.random.default_rng(3)
    filt = _leaf(rng, (2, 4, 3))
    emb = _leaf(rng, (4, 3))
    # numpy's broadcast check is the only shape check the product needs
    with pytest.raises(ValueError):
        filt * _leaf(rng, (3, 4))
    _fd_check(lambda: (filt * emb).sum(), [filt, emb])
    # gradient w.r.t. the embedding sums over the batch axis
    emb.zero_grad()
    out = (filt * emb).sum()
    out.backward()
    assert np.allclose(emb.grad, filt.data.sum(axis=0))


# -- finite-difference oracle ---------------------------------------------------

def test_fd_linear_function_gives_ones():
    x = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    fd = T.finite_diff_grad(lambda t: t.sum(), x)
    assert np.allclose(fd.data, np.ones((2, 3)), atol=1e-9)


def test_fd_tanh_at_zero():
    x = T.Tensor(np.zeros(4))
    fd = T.finite_diff_grad(lambda t: T.tanh(t).sum(), x)
    assert np.allclose(fd.data, np.ones(4), atol=1e-9)


def test_fd_restores_input_and_rejects_nonfinite():
    x = T.Tensor(np.array([1.0, 2.0]))
    before = x.data.copy()
    T.finite_diff_grad(lambda t: (t * t).sum(), x)
    assert np.array_equal(x.data, before)
    with pytest.raises(NumericError) as ei:
        T.finite_diff_grad(lambda t: float("inf"), x)
    assert "coordinate" in str(ei.value)
    with pytest.raises(ValueError):
        T.finite_diff_grad(lambda t: t.sum(), x, eps=0.0)


# -- elementwise ops, composite graph ------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    a = _leaf(rng, (2, 3, 2))
    b = _leaf(rng, (2, 3, 2))
    w = _leaf(rng, (4, 2))
    e = _leaf(rng, (3, 2))

    def build():
        c = T.concat([a, b * 2.0], axis=-1)          # (2,3,4)
        h = T.tanh(T.matmul(c, w))                   # (2,3,2)
        f = T.sigmoid(h) * e                         # (2,3,2)
        s = T.stack([f, T.absolute(h + 0.3)], axis=0)  # (2,2,3,2)
        back = T.matmul(h, w.mT)                     # (2,3,4)
        diff = (a - b) * T.sigmoid(b + 3.0)
        return s.sum() * (1.0 / s.size) + back.sum() * 0.1 + diff.sum() + (a * -1.0).sum()

    _fd_check(build, [a, b, w, e])


@pytest.mark.parametrize("seed", range(4))
def test_abs_grad_away_from_zero(seed):
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.2, 1.0, (3, 3))
    sign = np.where(rng.random((3, 3)) < 0.5, -1.0, 1.0)
    x = T.Tensor(mag * sign, requires_grad=True)
    _fd_check(lambda: T.absolute(x).sum(), [x])
    x.zero_grad()
    loss = T.absolute(x).sum()
    loss.backward()
    assert np.array_equal(x.grad, np.sign(x.data))


def test_reshape_sum_mean_grads():
    rng = np.random.default_rng(11)
    x = _leaf(rng, (2, 6))
    _fd_check(lambda: (x.reshape(3, 4) * x.reshape(3, 4)).sum() * (1.0 / 12), [x])
    s = x.sum()
    assert s.shape == ()
    assert s.data == x.data.sum()


def test_broadcast_binary_grads():
    rng = np.random.default_rng(12)
    col = _leaf(rng, (3, 1))
    row = _leaf(rng, (1, 4))
    scalar = _leaf(rng, ())
    _fd_check(lambda: ((col + row) * scalar).sum(), [col, row, scalar])
    loss = ((col + row) * scalar).sum()
    loss.backward()
    assert col.grad.shape == (3, 1)
    assert row.grad.shape == (1, 4)
    assert scalar.grad.shape == ()


def test_fanout_accumulates_additively():
    x = T.Tensor([3.0], requires_grad=True)
    y = x + x
    z = (y * y).sum()
    z.backward()
    # z = 4x^2, dz/dx = 8x = 24
    assert np.allclose(x.grad, [24.0])

    # graphs whose leaves end up sharing one stored gradient array; clipping
    # must scale each leaf's gradient exactly once
    rng = np.random.default_rng(15)
    a, b = _leaf(rng, (2, 3)), _leaf(rng, (2, 3))
    cases = [
        (lambda: (a + b).sum(), [a, b]),
        (lambda: (a + a).sum(), [a]),
        (lambda: (a * b + a + T.tanh(a) + a.mT.sum()).sum(), [a, b]),
        (lambda: a.sum(), [a]),
    ]
    for build, leaves in cases:
        for t in leaves:
            t.zero_grad()
        build().backward()
        fds = [T.finite_diff_grad(lambda _t: build(), t).data for t in leaves]
        for t, fd in zip(leaves, fds):
            assert t.grad.shape == t.shape
            assert T.max_rel_err(t.grad, fd) < 1e-6
        before = [np.array(t.grad) for t in leaves]
        named = [(str(i), t) for i, t in enumerate(leaves)]
        max_norm = 0.5 * np.sqrt(sum(np.square(g).sum() for g in before))
        scale = max_norm / TR.clip_global_norm(named, max_norm)
        for t, fd, g in zip(leaves, fds, before):
            assert np.array_equal(t.grad, g * scale)
            assert T.max_rel_err(t.grad, fd * scale) < 1e-6


# -- fused elementwise chains -----------------------------------------------------

def _fused_cases(dtype, seed=0):
    """(leaves, fused op, numpy expression the unfused chain of ops evaluates,
    numpy expressions of each parent's rule in that chain, given the output
    gradient g and the output y). `scaled_add` overwrites its first input and
    its terms, so each of its cases passes copies made per call (`scratch`)
    and reads the leaves only through them."""
    rng = np.random.default_rng(seed)

    def leaf(data):
        return T.Tensor(np.asarray(data, dtype=dtype), requires_grad=True)

    def scratch(t):
        return t * 1.0  # a fresh array, as the arrays a hop hands scaled_add

    a, b = leaf(rng.uniform(-1, 1, (2, 4, 3))), leaf(rng.uniform(-1, 1, (2, 4, 3)))
    c = leaf(rng.uniform(-1, 1, (2, 4, 3)))
    emb = leaf(rng.uniform(-1, 1, (4, 3)))
    z = leaf(rng.uniform(0.05, 0.95, (2, 4, 3)))
    m = leaf(rng.uniform(0, 1, (2, 4, 4)))
    m.data[0, 1, 2] = -0.0  # M + I turns it into +0.0
    # a transposed view, as `raw.mT` reaches the backward-direction graph
    mt = leaf(np.swapaxes(rng.uniform(0, 1, (2, 4, 4)), -1, -2))
    eye = np.eye(4, dtype=dtype)
    # the unfused chain multiplied by a 0-d array of the operand dtype
    beta, gamma, alpha = np.asarray(0.95, dtype), np.asarray(0.4, dtype), np.asarray(3.0, dtype)

    def normalized(x):
        loops = x + eye
        return loops / loops.sum(axis=-1, keepdims=True)

    def normalized_rule(x):
        def rule(g, y):
            deg = (x + eye).sum(axis=-1, keepdims=True)
            return [g / deg + (-g * y / deg).sum(axis=-1, keepdims=True)]
        return rule

    def relu_tanh_rule(g, y):
        r = g * (y > 0) * (1.0 - y * y) * alpha
        return [r, np.negative(r)]

    def tanh_rule(g, y):
        pre = g * (1.0 - y * y) * alpha
        return [pre * emb.data, pre * a.data]

    def sigmoid_chain(x):
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, z) / (1.0 + z)

    wide = leaf(rng.uniform(-8, 8, (2, 4, 3)))
    wide.data[0, 0, :2] = (0.0, -0.0)
    return [
        ([a, b], lambda: T.scaled_add(scratch(a), [(0.95, scratch(b))]),
         lambda: a.data + b.data * beta, lambda g, y: [g, g * beta]),
        # one hop over two supports: its whole diffusion sum is one node
        ([a, b, c], lambda: T.scaled_add(scratch(a), [(0.95, scratch(b)), (0.4, scratch(c))]),
         lambda: a.data + b.data * beta + c.data * gamma,
         lambda g, y: [g, g * beta, g * gamma]),
        # every array a copy of one leaf
        ([a, a, a], lambda: T.scaled_add(scratch(a), [(0.95, scratch(a)), (0.4, scratch(a))]),
         lambda: a.data + a.data * beta + a.data * gamma,
         lambda g, y: [g, g * beta, g * gamma]),
        # a term that broadcasts against the first input, and a first input
        # that broadcasts against its term, so the sum needs a new array
        ([a, emb], lambda: T.scaled_add(scratch(a), [(0.95, scratch(emb))]),
         lambda: a.data + emb.data * beta, lambda g, y: [g, g * beta]),
        ([emb, a], lambda: T.scaled_add(scratch(emb), [(0.95, scratch(a))]),
         lambda: emb.data + a.data * beta, lambda g, y: [g, g * beta]),
        ([a, b], lambda: T.relu_tanh_diff(a, b, 3.0),
         lambda: np.maximum(np.tanh((a.data - b.data) * alpha), 0), relu_tanh_rule),
        ([a, emb], lambda: T.tanh_product(a, emb, 3.0),
         lambda: np.tanh((a.data * emb.data) * alpha), tanh_rule),
        ([m], lambda: T.self_loop_normalize(m), lambda: normalized(m.data),
         normalized_rule(m.data)),
        ([mt], lambda: T.self_loop_normalize(mt), lambda: normalized(mt.data),
         normalized_rule(mt.data)),
        ([z, a, b], lambda: T.gru_update(z, a, b),
         lambda: z.data * a.data + (1.0 - z.data) * b.data,
         lambda g, y: [g * a.data - g * b.data, g * z.data, g * (1.0 - z.data)]),
        ([wide], lambda: T.sigmoid(wide), lambda: sigmoid_chain(wide.data),
         lambda g, y: [g * y * (1.0 - y)]),
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_forward_is_bitwise_the_unfused_chain(dtype):
    for _, op, expect, _ in _fused_cases(dtype):
        out, want = op().data, expect()
        assert out.dtype == want.dtype == dtype
        assert out.shape == want.shape and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_rules_are_bitwise_the_unfused_chain(dtype):
    # every rule, also one evaluated in place or shared by two parents, gives
    # the bits of the out-of-place expression
    for i, (_, op, _, expect) in enumerate(_fused_cases(dtype)):
        out = op()
        g = np.random.default_rng(i).normal(size=out.shape).astype(dtype)
        got = [rule(g) for rule in out._backward]
        want = expect(g, out.data)
        assert len(got) == len(want)
        for r, w in zip(got, want):
            assert r.dtype == w.dtype and r.shape == w.shape and r.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_ops_write_into_no_input(dtype):
    # inputs and output gradients are read-only, so a write into one raises;
    # scaled_add may write only into its first input and its terms, the
    # copies its cases make
    for leaves, op, expect, _ in _fused_cases(dtype):
        before = [t.data.copy() for t in leaves]
        for t in leaves:
            t.data.flags.writeable = False
        out = op()
        g = np.ones(out.shape, dtype)
        g.flags.writeable = False
        for rule in out._backward:
            rule(g)
        assert all(np.array_equal(t.data, x) for t, x in zip(leaves, before))
        assert np.all(g == 1.0) and out.data.tobytes() == expect().tobytes()


def test_self_loop_normalize_allocates_one_output():
    m = T.Tensor(np.random.default_rng(23).uniform(0, 1, (8, 128, 128)))
    with T.no_grad():
        T.self_loop_normalize(m)
        tracemalloc.start()
        try:
            out = T.self_loop_normalize(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.data.nbytes <= peak < 1.25 * out.data.nbytes


def _hop_setup(rng, dtype, b=2, n=5, d_in=3, d=4):
    """x, the weights [U_0, U_1] of one Horner hop, and its two supports: a
    dynamic B x N x N graph that needs a gradient and a static N x N one."""
    def leaf(shape, lo=-1.0):
        return T.Tensor(rng.uniform(lo, 1.0, shape).astype(dtype), requires_grad=True)

    x, us = leaf((b, n, d_in)), [leaf((d_in, d)), leaf((d_in, d))]
    sups = [(0.95, leaf((b, n, n), 0.0)), (0.4, T.Tensor(rng.uniform(0, 1, (n, n)).astype(dtype)))]
    return x, us, sups


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hop_is_bitwise_the_out_of_place_chain(monkeypatch, dtype):
    # one hop, out = a + c1*P1 + c2*P2 with a = X U_0 and P_j = A_j H for the
    # previous hop's output H = X U_1, sums into a: output and every gradient
    # are the bits of the out-of-place chain, and it writes into neither the
    # supports, H nor any leaf (read-only, so a write raises)
    rng = np.random.default_rng(24)
    x, us, sups = _hop_setup(rng, dtype)
    leaves = [x] + us + [sups[0][1]]
    for t in leaves + [sups[1][1]]:
        t.data.flags.writeable = False
    (c1, a1), (c2, a2) = sups
    real = T.matmul
    h = real(x, us[1])
    chain = real(x, us[0]) + real(a1, h) * c1 + real(a2, h) * c2
    probe = T.Tensor(rng.normal(size=chain.shape).astype(dtype))
    (chain * probe).sum().backward()
    want = [t.grad for t in leaves]
    for t in leaves:
        t.zero_grad()

    products = []

    def recording(p, q):
        out = real(p, q)
        products.append((out.data, out.data.copy()))
        return out

    monkeypatch.setattr(T, "matmul", recording)
    out = conv.dgconv_forward(x, sups, conv.ConvParams(us, 0.0))
    # H, a, P1, P2, in that order; the sum lives in a
    assert len(products) == 4 and out.data is products[1][0]
    assert out.data.tobytes() == chain.data.tobytes()
    g = probe.data
    parents = [rule(g) for rule in out._backward]
    for r, w in zip(parents, [g, g * np.asarray(c1, dtype), g * np.asarray(c2, dtype)]):
        assert r.dtype == w.dtype == dtype and r.tobytes() == w.tobytes()
    (out * probe).sum().backward()
    for t, w in zip(leaves, want):
        assert t.grad.dtype == dtype and t.grad.tobytes() == w.tobytes()
    arr, before = products[0]
    assert arr.tobytes() == before.tobytes()


def test_no_grad_hop_allocates_no_array_per_diffusion_term():
    # one hop over two supports makes H = X U_1, X U_0 and one product per
    # support, and sums each product into X U_0, freeing it before the next
    # is formed: no scaled copy of any term, and one product at a time
    x, us, sups = _hop_setup(np.random.default_rng(25), np.float64, b=8, n=96, d=64)
    p = conv.ConvParams(us, 0.0)
    with T.no_grad():
        conv.dgconv_forward(x, sups, p)
        tracemalloc.start()
        try:
            out = conv.dgconv_forward(x, sups, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert 3 * out.data.nbytes <= peak < 3.25 * out.data.nbytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scaled_add_over_lazy_terms(dtype):
    # terms from a generator, each formed only when the sum reaches it: the
    # bits of the left-to-right sum, and gradients that match FD
    rng = np.random.default_rng(26)
    leaves = [T.Tensor(rng.uniform(-1, 1, (2, 4, 3)).astype(dtype), requires_grad=True)
              for _ in range(4)]
    coefs = (0.95, 0.4, 0.7)

    def op():
        return T.scaled_add(leaves[0] * 1.0,
                            ((c, b * 1.0) for c, b in zip(coefs, leaves[1:])))

    want = leaves[0].data
    for c, b in zip(coefs, leaves[1:]):
        want = want + b.data * np.asarray(c, dtype)
    out = op()
    assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
    assert len(out._parents) == len(out._backward) == 4
    if dtype == np.float64:
        weight = T.Tensor(rng.normal(size=out.shape))
        _fd_check(lambda: (op() * weight).sum(), leaves, tol=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_fused_grads_match_fd(seed):
    for leaves, op, _, _ in _fused_cases(np.float64, seed):
        weight = T.Tensor(np.random.default_rng(seed).normal(size=op().shape))
        _fd_check(lambda: (op() * weight).sum(), leaves, tol=1e-6)


def test_fused_ops_record_one_tape_node():
    for leaves, op, _, _ in _fused_cases(np.float64):
        out = op()
        assert len(out._parents) == len(out._backward) == len(leaves)
        # a scaled_add term's parent is the node of its copy of the leaf
        assert all(p is leaf or p._parents == (leaf,) for p, leaf in zip(out._parents, leaves))
        assert all(leaf._backward is None for leaf in leaves)
    # a convolution hop over the dynamic and the static graph: its projection
    # X U_0 and both diffusion products are the parents of one node
    rng = np.random.default_rng(19)
    n, b = 5, 2
    graph = build_adjacency(synth_distances(n, seed=1), kappa=0.1)
    raw = T.absolute(_leaf(rng, (b, n, n)))
    dyn = SimpleNamespace(normalized=T.self_loop_normalize(raw),
                          normalized_bwd=T.self_loop_normalize(raw.mT))
    fwd, _ = conv.supports(graph, dyn, 0.95, 0.95, np.float64)
    params = conv.ConvParams([_leaf(rng, (3, 4)) for _ in range(3)], alpha_mix=0.05)
    out = conv.dgconv_forward(_leaf(rng, (b, n, 3)), fwd, params)
    assert len(out._parents) == len(out._backward) == 3


def test_relu_tanh_diff_tie_gets_zero_grad():
    rng = np.random.default_rng(16)
    a = _leaf(rng, (2, 5, 5))
    b = T.Tensor(a.data.copy(), requires_grad=True)
    b.data[:, :, :2] += rng.uniform(-1, 1, (2, 5, 2))
    tie = a.data == b.data
    out = T.relu_tanh_diff(a, b, 3.0)
    (out * T.Tensor(rng.normal(size=out.shape))).sum().backward()
    assert np.all(out.data[tie] == 0.0)
    assert np.all(a.grad[tie] == 0.0) and np.all(b.grad[tie] == 0.0)
    assert np.any(a.grad[~tie] != 0.0)
    assert np.array_equal(b.grad, -a.grad)


# -- ranges and stability --------------------------------------------------------

def test_nonlinearity_ranges():
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.normal(scale=2.0, size=200))
    th = T.tanh(x).data
    sg = T.sigmoid(x).data
    rl = T.relu_tanh_diff(x, T.zeros(x.shape), 1.0).data
    assert np.all(th > -1.0) and np.all(th < 1.0)
    assert np.all(sg > 0.0) and np.all(sg < 1.0)
    assert np.all(rl >= 0.0) and np.all(rl < 1.0)
    # saturated inputs round onto the closed interval but never overshoot
    big = T.Tensor(rng.normal(scale=100.0, size=200))
    assert np.all(np.abs(T.tanh(big).data) <= 1.0)
    s = T.sigmoid(big).data
    assert np.all((s >= 0.0) & (s <= 1.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bitwise_the_two_branch_form(dtype):
    x = np.random.default_rng(17).normal(scale=8.0, size=500).astype(dtype)
    x[:3] = (0.0, -0.0, 40.0)
    z = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    got = T.sigmoid(T.Tensor(x)).data
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_width_one_product_gradient_is_bitwise_blas(dtype):
    # the readout's (.., K) x (K, 1) product: its input gradient is an outer
    # product, taken without BLAS but bitwise equal to the BLAS product
    rng = np.random.default_rng(18)
    h = T.Tensor(rng.normal(size=(3, 7, 5)).astype(dtype), requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 1)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(3, 7, 1)).astype(dtype)
    (T.matmul(h, w) * T.Tensor(g)).sum().backward()
    assert h.grad.dtype == dtype
    assert h.grad.tobytes() == np.matmul(g, np.ascontiguousarray(w.data.T)).tobytes()


def test_sigmoid_extreme_inputs_finite():
    x = T.Tensor([-1000.0, 1000.0])
    out = T.sigmoid(x).data
    assert np.all(np.isfinite(out))
    assert out[0] < 1e-300 or out[0] > 0.0
    assert out[1] == pytest.approx(1.0)


def test_float32_dtype_preserved():
    x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = T.tanh(x * 2.0 + 1.0)
    assert y.dtype == np.float32
    y.sum().backward()
    assert x.grad.dtype == np.float32


# -- graph mechanics ---------------------------------------------------------------

def test_no_grad_blocks_graph():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    z = x * 2.0
    assert z.requires_grad


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2.0).backward()


def test_deep_chain_backward_iterative():
    # recurrent unrolls produce long chains; backward must not recurse
    x = T.Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.001
    y.sum().backward()
    assert np.allclose(x.grad, [1.0])


def test_abandoned_forward_leaves_no_cyclic_garbage():
    # a forward dropped without backward (a step that stops on a non-finite
    # loss) must be freed by reference count: no rule may hold its output
    n, b = 6, 2
    hp = HyperParams(hidden=4, emb_dim=2, hyper_dim=2, hops=1, hyper_hops=1,
                     input_len=3, output_len=3)
    params = init_model(hp, n, seed=0)
    graph = build_adjacency(synth_distances(n, seed=1), kappa=0.1)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(b, 3, n, 2)))
    tod = T.Tensor(rng.uniform(size=(b, 3, n, 1)))
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        h = encode(x, graph, params)
        pred = decode(h, tod, graph, params)
        assert pred.requires_grad and pred._backward is not None
        del h, pred
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds
        gc.collect()
        leaked = sum(isinstance(o, (T.Tensor, T._Node)) for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == 0


# -- what the tape keeps alive ----------------------------------------------------

_CONST = T.Tensor(np.random.default_rng(20).uniform(-1, 1, (2, 3, 3)))

# (op on interior inputs, whether a rule reads each input, whether the op's
# own rule reads its output); each rule captures exactly what it reads
_LIVENESS = [
    ("add", lambda u, v: u + v, (False, False), False),
    ("sub", lambda u, v: u - v, (False, False), False),
    ("mul", lambda u, v: u * v, (True, True), False),
    ("mul_const", lambda u: u * 2.0, (False,), False),
    ("reshape", lambda u: u.reshape(2, 9), (False,), False),
    ("mT", lambda u: u.mT, (False,), False),
    ("sum", lambda u: u.sum(), (False,), False),
    ("concat", lambda u, v: T.concat([u, v], axis=-1), (False, False), False),
    ("stack", lambda u, v: T.stack([u, v], axis=1), (False, False), False),
    ("tanh", T.tanh, (False,), True),
    ("sigmoid", T.sigmoid, (False,), True),
    ("absolute", T.absolute, (True,), False),
    ("scaled_add", lambda u, v: T.scaled_add(u, [(0.5, v)]), (False, False), False),
    ("relu_tanh_diff", lambda u, v: T.relu_tanh_diff(u, v, 3.0), (False, False), True),
    ("tanh_product", lambda u, v: T.tanh_product(u, v, 3.0), (True, True), True),
    ("self_loop_normalize", T.self_loop_normalize, (False,), True),
    ("gru_update", T.gru_update, (True, True, True), False),
    ("matmul", T.matmul, (True, True), False),
    ("matmul_const", lambda u: T.matmul(_CONST, u), (False,), False),
]


@pytest.mark.parametrize("op, reads_inputs, reads_output",
                         [case[1:] for case in _LIVENESS],
                         ids=[case[0] for case in _LIVENESS])
def test_tape_keeps_only_arrays_rules_read(op, reads_inputs, reads_output):
    rng = np.random.default_rng(21)
    leaves = [_leaf(rng, (2, 3, 3)) for _ in reads_inputs]
    # interior outputs whose arrays nothing but the tape could keep
    inputs = [leaf * 1.0 for leaf in leaves]
    input_refs = [weakref.ref(t.data) for t in inputs]
    out = op(*inputs)
    output_ref = weakref.ref(out.data)
    root = out.sum()  # sum's rule reads only the shape
    del inputs, out
    assert [r() is not None for r in input_refs] == list(reads_inputs)
    assert (output_ref() is not None) == reads_output
    root.backward()
    grads = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.zero_grad()
    op(*[leaf * 1.0 for leaf in leaves]).sum().backward()
    assert all(np.array_equal(g, leaf.grad) for g, leaf in zip(grads, leaves))


def test_hop_recurrence_frees_every_product(monkeypatch):
    # every product in dgconv_forward feeds only `scaled_add`, whose rules
    # read neither operand, except the first projection X U_K: it is the
    # first hop's diffusion operand, and the dynamic graph's rule reads it.
    # A hop's sum lands in its projection X U_k, so that array lives on as
    # the hop's output: hop 1's X U_1 for hop 2's dynamic-graph rule, and
    # hop 2's X U_0 as the convolution's output. An operand whose partner
    # needs a gradient stays for that partner's rule
    rng = np.random.default_rng(22)
    n, b, d = 5, 2, 3
    graph = build_adjacency(synth_distances(n, seed=1), kappa=0.1)
    raw = T.absolute(_leaf(rng, (b, n, n)))
    dyn = SimpleNamespace(normalized=T.self_loop_normalize(raw),
                          normalized_bwd=T.self_loop_normalize(raw.mT))
    weights = [_leaf(rng, (d, 4)) for _ in range(3)]
    params = conv.ConvParams(weights, alpha_mix=0.05)
    fwd, _ = conv.supports(graph, dyn, 0.95, 0.95, np.float64)
    products, operands = [], []
    matmul = T.matmul

    def recording(x, y):
        out = matmul(x, y)
        products.append(weakref.ref(out.data))
        operands.append((weakref.ref(x.data), y.requires_grad))
        operands.append((weakref.ref(y.data), x.requires_grad))
        return out

    monkeypatch.setattr(T, "matmul", recording)
    out = conv.dgconv_forward(_leaf(rng, (b, n, d)) * 1.0, fwd, params)
    # X U_2, then (X U_k, dynamic, static) per hop
    assert len(products) == 7
    assert [i for i, r in enumerate(products) if r() is not None] == [0, 1, 4]
    assert products[4]() is out.data
    assert all(r() is not None for r, read in operands if read)
    out.sum().backward()
    assert all(w.grad is not None for w in weights)


def test_determinism_bitwise():
    rng = np.random.default_rng(14)
    a = T.Tensor(rng.normal(size=(8, 8)))
    b = T.Tensor(rng.normal(size=(8, 8)))
    r1 = T.tanh(T.matmul(a, b)).data.copy()
    r2 = T.tanh(T.matmul(a, b)).data.copy()
    assert np.array_equal(r1, r2)


def test_assert_finite():
    T.assert_finite(np.ones(3), "ok")
    with pytest.raises(NumericError):
        T.assert_finite(np.array([1.0, np.nan]), "bad")
