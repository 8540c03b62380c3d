"""Dense tensors with reverse-mode differentiation on top of numpy.

The kernel set is deliberately small: add/subtract/multiply, matmul over
the last two axes (with leading-axis broadcasting), concat/stack,
reshape/transpose, a full sum, tanh/sigmoid/absolute, and five fused
elementwise chains of the cell step (`scaled_add`, `relu_tanh_diff`,
`tanh_product`, `self_loop_normalize`, `gru_update`). That set is exactly
what the model forward pass and its loss need. The model's inputs are
constants, so it slices them as plain arrays, without an op.

The tape is separate from the values. An op output that needs a gradient
gets a `_Node` holding its grad, the nodes of the parents that require a
gradient and one rule per parent: a function from the output gradient to
that parent's gradient, which `_accum` then sums over any broadcast axes.
A leaf is its own node. Each rule captures at forward time exactly the
arrays it reads (the operands of a product, the output of `tanh`), so an
output that no rule reads is freed by reference count as soon as the
forward drops its `Tensor`, and rebinding a leaf's `.data` between forward
and backward does not change the gradient. No rule holds its own node, so
a tape never forms a reference cycle and a forward that is never
backpropagated is freed by reference count as soon as it is dropped.

Gradients accumulate additively across fan-out and are zeroed explicitly by
the caller. After `backward` only leaf tensors keep `.grad`: interior nodes
release it, their parents and their rules as the sweep passes. A `.grad`
array may be shared or read-only, so callers rebind it and never mutate it
in place. `finite_diff_grad` is the independent oracle every backward rule
is checked against. Float64 is the default and the precision used by
gradient checks; float32 is accepted everywhere for faster training runs.
"""
from __future__ import annotations

import contextlib
import weakref

import numpy as np

from .errors import DimensionError, NumericError

DEFAULT_DTYPE = np.float64

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference, FD probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus an optional gradient; an op output also has a node.

    A leaf is its own tape node and keeps `.grad`. An op output that needs a
    gradient points at its `_Node`, which holds the gradient while
    `backward` runs; `_parents` and `_backward` read through to it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(
                "item() requires a single-element tensor; got shape %r" % (self.shape,)
            )
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return "Tensor(shape=%r, dtype=%s, requires_grad=%s)" % (
            self.shape,
            self.data.dtype,
            self.requires_grad,
        )

    # -- autodiff ---------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar root.

        Iterative post-order traversal over tape nodes; the recurrences
        unroll P+Q cell steps so recursion depth is not safe here. Each
        interior node hands its grad to every parent node through that
        parent's rule, which reads only the arrays it captured in the
        forward, then drops its grad, parents and rules, so the tape is freed
        by reference count during the sweep. Only leaves keep `.grad`, which
        may be shared or read-only.
        """
        if self.data.size != 1:
            raise DimensionError(
                "backward() requires a scalar root; got shape %r" % (self.shape,)
            )
        root = self if self._node is None else self._node
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                g = node.grad
                for p, rule in zip(node._parents, node._backward):
                    _accum(p, rule(g))
                node.grad, node._parents, node._backward = None, (), None

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other, self.data.dtype)
        return _from_op(a.data + b.data, (a, b), (_identity, _identity))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _as_tensor(other, self.data.dtype)
        return _from_op(a.data - b.data, (a, b), (_identity, np.negative))

    def __mul__(self, other):
        other = _as_tensor(other, self.data.dtype)
        a, b = self.data, other.data
        return _from_op(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return _from_op(self.data.reshape(shape), (self,), (lambda g: g.reshape(orig),))

    @property
    def mT(self) -> "Tensor":
        """Transpose of the last two axes."""
        return _from_op(np.swapaxes(self.data, -1, -2), (self,), (_swap_last,))

    # -- reductions ---------------------------------------------------------

    def sum(self) -> "Tensor":
        """Sum of every element, as a 0-d tensor."""
        shape = self.data.shape
        return _from_op(np.asarray(self.data.sum()), (self,),
                        (lambda g: np.broadcast_to(g, shape),))


# -- graph plumbing ----------------------------------------------------------


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _identity(g):
    return g


def _swap_last(g):
    return g.swapaxes(-1, -2)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # reduce a gradient back to the operand shape after numpy broadcasting
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class _Node:
    """The tape record of one op output: its grad, parent nodes and rules.

    It holds the output array only through a weak reference, so the array
    lives exactly as long as the forward or a rule keeps it.
    """

    __slots__ = ("grad", "_parents", "_backward", "shape", "dtype", "_data")
    requires_grad = True
    _node = None  # a node stands for itself as an op's parent

    def __init__(self, data: np.ndarray, parents: tuple, rules: tuple):
        self.grad = None
        self._parents = parents
        self._backward = rules
        self.shape, self.dtype = data.shape, data.dtype
        self._data = weakref.ref(data)

    @property
    def data(self) -> np.ndarray:
        """The output while anything keeps it alive, else an empty array."""
        data = self._data()
        return np.empty(0, self.dtype) if data is None else data


def _accum(t, g):
    # out of place: the stored array may be shared with another operand; a
    # gradient of the parent's own shape and dtype needs no reduction or cast
    if g.shape == t.shape and g.dtype == t.dtype:
        t.grad = g if t.grad is None else t.grad + g
        return
    g = _unbroadcast(g, t.shape)
    if t.grad is None:
        if g.shape != t.shape:
            g = np.broadcast_to(g, t.shape)
        t.grad = g.astype(t.dtype, copy=False)
    else:
        t.grad = t.grad + g


def _from_op(data: np.ndarray, parents: tuple, rules: tuple) -> Tensor:
    # rules[i] maps the output gradient to parents[i]'s gradient before
    # unbroadcasting; the node keeps the rules of the parents that require a
    # gradient, and no rule holds the node, so a tape has no cycles
    out = Tensor(data)
    if _grad_enabled:
        nodes, kept = [], []
        for p, rule in zip(parents, rules):
            if p.requires_grad:
                nodes.append(p if p._node is None else p._node)
                kept.append(rule)
        if nodes:
            out.requires_grad = True
            out._node = _Node(out.data, tuple(nodes), tuple(kept))
    return out


# -- nonlinearities ----------------------------------------------------------


def tanh(t: Tensor) -> Tensor:
    data = np.tanh(t.data)
    return _from_op(data, (t,), (lambda g: g * (1.0 - data * data),))


def sigmoid(t: Tensor) -> Tensor:
    # with z = exp(-|x|), 1 / (1 + z) for x >= 0 and z / (1 + z) below, both
    # as exp(min(x, 0)) / (1 + z): no exp overflows. Evaluated in place on the
    # two arrays it allocates
    z = np.abs(t.data)
    z = np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    data = np.minimum(t.data, 0)
    data = np.exp(data, out=data)
    data /= z
    return _from_op(data, (t,), (lambda g: g * data * (1.0 - data),))


def absolute(t: Tensor) -> Tensor:
    x = t.data
    return _from_op(np.abs(x), (t,), (lambda g: g * np.sign(x),))


# -- fused elementwise chains -------------------------------------------------
#
# Each op below is one tape node for an elementwise chain the model runs at
# every cell step. The forward evaluates the chain's numpy operations in the
# chain's order and the rules multiply its derivatives in the same order, so
# values and gradients are bit-identical to one node per operation, while
# the tape keeps only what the rules read, not every intermediate. An op
# (these and `sigmoid`) may work in place on arrays it allocated itself,
# never on an output gradient, and on an input only where its contract says
# so: `scaled_add` overwrites its first input and its terms.


def scaled_add(a: Tensor, terms) -> Tensor:
    """a + sum_j c_j*b_j over (c_j, b_j) terms, summed left to right: one hop's
    diffusion terms in a convolution.

    Every array is scratch: each b_j is scaled in place and added into a's
    array, which becomes the output, so a hop allocates nothing for its sum.
    `terms` may be lazy: once a term is summed, only its tape node is kept,
    so a term that nothing else holds is freed before the next one is
    formed. A caller passes only arrays it made for this call and that
    nothing else reads (no rule reads a projection or a product).
    """
    data, parents, rules = a.data, [a], [_identity]
    for c, b in terms:
        c = np.asarray(c, dtype=b.data.dtype)
        prod = np.multiply(b.data, c, out=b.data)
        if data.shape == prod.shape and data.dtype == prod.dtype:
            data = np.add(data, prod, out=data)
        else:
            data = data + prod
        if b.requires_grad:
            parents.append(b if b._node is None else b._node)
            rules.append(lambda g, c=c: g * c)
        del b, prod
    return _from_op(data, tuple(parents), tuple(rules))


def relu_tanh_diff(a: Tensor, b: Tensor, alpha: float) -> Tensor:
    """relu(tanh(alpha*(a - b))); the gradient is zero wherever a == b."""
    alpha = np.asarray(alpha, dtype=a.data.dtype)
    data = a.data - b.data
    data *= alpha
    np.tanh(data, out=data)
    np.maximum(data, 0, out=data)

    # the output equals the tanh wherever the relu passes its gradient; both
    # parents' rules share one evaluation of the chain per output gradient
    last = [None, None]

    def rule(g):
        if last[0] is not g:
            last[:] = g, g * (data > 0) * (1.0 - data * data) * alpha
        return last[1]

    return _from_op(data, (a, b), (rule, lambda g: np.negative(rule(g))))


def tanh_product(a: Tensor, b: Tensor, alpha: float) -> Tensor:
    """tanh(alpha*(a*b)), the hadamard modulation of an embedding table."""
    alpha = np.asarray(alpha, dtype=a.data.dtype)
    x, y = a.data, b.data
    data = x * y
    data *= alpha
    np.tanh(data, out=data)

    def pre(g):
        return g * (1.0 - data * data) * alpha

    return _from_op(data, (a, b), (lambda g: pre(g) * y, lambda g: pre(g) * x))


def self_loop_normalize(m: Tensor) -> Tensor:
    """Rows of M + I divided by their sums, 1 + rowsum(M)."""
    n = m.data.shape[-1]
    # adding 0.0 in C order gives the layout and signed zeros of M + eye(n)
    data = np.add(m.data, 0.0, order="C")
    data.reshape(data.shape[:-2] + (n * n,))[..., ::n + 1] += 1.0
    deg = data.sum(axis=-1, keepdims=True)
    data /= deg  # in place: the op allocates one B x N x N array

    def rule(g):
        # g / deg + sum(-g * data / deg), in that order, on one buffer
        r = np.negative(g)
        r *= data
        r /= deg
        s = r.sum(axis=-1, keepdims=True)
        return np.add(np.divide(g, deg, out=r), s, out=r)

    return _from_op(data, (m,), (rule,))


def gru_update(z: Tensor, h: Tensor, c: Tensor) -> Tensor:
    """z*h + (1 - z)*c, the GRU blend of the old state and the candidate."""
    zd, hd, cd = z.data, h.data, c.data
    data = zd * hd + (1.0 - zd) * cd
    return _from_op(data, (z, h, c), (lambda g: g * hd - g * cd,
                                      lambda g: g * zd,
                                      lambda g: g * (1.0 - zd)))


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes with leading-axis broadcasting."""
    # numpy rejects shapes that do not align; `encode` checks each batch
    x, y = a.data, b.data
    data = np.matmul(x, y)

    def grad_a(g):
        if y.shape[-1] == 1:
            # an outer product (the readout): one multiply per entry, no BLAS call
            return g * _swap_last(y)
        # BLAS takes a contiguous 2-D weight faster than its transposed view
        return np.matmul(g, np.ascontiguousarray(y.T) if y.ndim == 2 else _swap_last(y))

    return _from_op(data, (a, b), (grad_a, lambda g: np.matmul(_swap_last(x), g)))


# -- assembly ops ------------------------------------------------------------


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis % data.ndim
    rules, offset = [], 0
    for t in tensors:
        n = t.data.shape[ax]
        idx = (slice(None),) * ax + (slice(offset, offset + n),)
        rules.append(lambda g, idx=idx: g[idx])
        offset += n
    return _from_op(data, tensors, tuple(rules))


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    return _from_op(data, tensors, tuple(
        lambda g, i=i: np.take(g, i, axis=axis) for i in range(len(tensors))))


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


# -- checks and oracles -------------------------------------------------------


def assert_finite(x, context: str):
    """Raise NumericError if x (Tensor or array) holds NaN/Inf."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.isfinite(arr).all():
        raise NumericError("%s: non-finite values detected" % context)


def max_rel_err(a, b, floor: float = 1e-6) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor).

    The floor keeps near-zero coordinates from inflating the ratio with
    finite-difference noise (~1e-12 at eps=1e-5 in float64).
    """
    a = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=np.float64)
    b = np.asarray(b.data if isinstance(b, Tensor) else b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def finite_diff_grad(f, x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar-valued f at x.

    Perturbs x.data in place coordinate by coordinate (restoring it), so f
    may read x through any captured reference to the same tensor.
    """
    if eps <= 0:
        raise ValueError("finite_diff_grad: eps must be positive")
    flat = x.data.flat
    out = np.empty(x.data.size, dtype=np.float64)
    with no_grad():
        for i in range(x.data.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = _scalar(f(x))
            flat[i] = orig - eps
            fm = _scalar(f(x))
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                idx = np.unravel_index(i, x.data.shape) if x.data.ndim else ()
                raise NumericError(
                    "finite_diff_grad: non-finite objective at coordinate %r" % (idx,)
                )
            out[i] = (fp - fm) / (2.0 * eps)
    return Tensor(out.reshape(x.data.shape))


def _scalar(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)
