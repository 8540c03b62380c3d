"""Dense tensors with reverse-mode differentiation on top of numpy.

The kernel set is deliberately small: elementwise arithmetic, matmul over
the last two axes (with leading-axis broadcasting), concat/stack/narrow,
sum/mean and tanh/sigmoid/ReLU. That closure is exactly what the model
forward pass needs.

Gradients accumulate additively across fan-out and are zeroed explicitly by
the caller. After `backward` only leaf tensors keep `.grad`: interior nodes
release it, their parents and their closure as the sweep passes. A `.grad`
array may be shared or read-only, so callers rebind it and never mutate it
in place. `finite_diff_grad` is the independent oracle every backward rule
is checked against. Float64 is the default and the precision used by
gradient checks; float32 is accepted everywhere for faster training runs.
"""
from __future__ import annotations

import contextlib

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
    """A numpy array plus an optional gradient and backward closure."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

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

        Iterative post-order traversal; the recurrences unroll P+Q cell
        steps so recursion depth is not safe here. An interior node drops
        its grad, parents and closure once it has propagated, breaking the
        closure<->output cycle so the tape is freed by reference count during
        the sweep. Only leaves keep `.grad`, which may be shared or read-only.
        """
        if self.data.size != 1:
            raise DimensionError(
                "backward() requires a scalar root; got shape %r" % (self.shape,)
            )
        topo = []
        seen = set()
        stack = [(self, False)]
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
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node.grad, node._parents, node._backward = None, (), None

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other, self.data.dtype)
        data = a.data + b.data

        def bw():
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.data.shape))

        out = _from_op(data, (a, b), bw)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _as_tensor(other, self.data.dtype)
        data = a.data - b.data

        def bw():
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-g, b.data.shape))

        out = _from_op(data, (a, b), bw)
        return out

    def __rsub__(self, other):
        return _as_tensor(other, self.data.dtype) - self

    def __mul__(self, other):
        a, b = self, _as_tensor(other, self.data.dtype)
        data = a.data * b.data

        def bw():
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.data.shape))

        out = _from_op(data, (a, b), bw)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _as_tensor(other, self.data.dtype)
        data = a.data / b.data

        def bw():
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-g * out.data / b.data, b.data.shape))

        out = _from_op(data, (a, b), bw)
        return out

    def __rtruediv__(self, other):
        return _as_tensor(other, self.data.dtype) / self

    def __neg__(self):
        a = self
        data = -a.data

        def bw():
            if a.requires_grad:
                _accum(a, -out.grad)

        out = _from_op(data, (a,), bw)
        return out

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other, self.data.dtype))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape
        data = a.data.reshape(shape)

        def bw():
            if a.requires_grad:
                _accum(a, out.grad.reshape(orig))

        out = _from_op(data, (a,), bw)
        return out

    @property
    def mT(self) -> "Tensor":
        """Transpose of the last two axes."""
        a = self
        if a.data.ndim < 2:
            raise DimensionError("mT requires ndim >= 2; got shape %r" % (a.shape,))
        data = np.swapaxes(a.data, -1, -2)

        def bw():
            if a.requires_grad:
                _accum(a, np.swapaxes(out.grad, -1, -2))

        out = _from_op(data, (a,), bw)
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))

        def bw():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            if a.requires_grad:
                _accum(a, g)

        out = _from_op(data, (a,), bw)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        s = self.sum(axis=axis, keepdims=keepdims)
        count = self.data.size / max(s.data.size, 1)
        return s * (1.0 / count)


# -- graph plumbing ----------------------------------------------------------


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # reduce a gradient back to the operand shape after numpy broadcasting
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _accum(t: Tensor, g):
    # out of place: the stored array may be shared with another operand
    if t.grad is None:
        t.grad = np.broadcast_to(g, t.data.shape).astype(t.data.dtype, copy=False)
    else:
        t.grad = t.grad + g


def _from_op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -- nonlinearities ----------------------------------------------------------


def tanh(t: Tensor) -> Tensor:
    a = t
    data = np.tanh(a.data)

    def bw():
        if a.requires_grad:
            _accum(a, out.grad * (1.0 - data * data))

    out = _from_op(data, (a,), bw)
    return out


def sigmoid(t: Tensor) -> Tensor:
    a = t
    # exp(-|x|) never overflows, so both branches are stable
    z = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def bw():
        if a.requires_grad:
            _accum(a, out.grad * data * (1.0 - data))

    out = _from_op(data, (a,), bw)
    return out


def relu(t: Tensor) -> Tensor:
    a = t
    data = np.maximum(a.data, 0)

    def bw():
        if a.requires_grad:
            _accum(a, out.grad * (a.data > 0))

    out = _from_op(data, (a,), bw)
    return out


def absolute(t: Tensor) -> Tensor:
    a = t
    data = np.abs(a.data)

    def bw():
        if a.requires_grad:
            _accum(a, out.grad * np.sign(a.data))

    out = _from_op(data, (a,), bw)
    return out


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes with leading-axis broadcasting."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            "matmul requires ndim >= 2; got shapes %r and %r" % (a.shape, b.shape)
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            "matmul: inner dimensions disagree for shapes %r and %r"
            % (a.shape, b.shape)
        )
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise DimensionError(
            "matmul: leading dimensions not broadcastable for shapes %r and %r"
            % (a.shape, b.shape)
        ) from None

    def bw():
        g = out.grad
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    out = _from_op(data, (a, b), bw)
    return out


# -- assembly ops ------------------------------------------------------------


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    nd = tensors[0].data.ndim
    ax = axis % nd
    ref = tensors[0].data.shape
    for i, t in enumerate(tensors[1:], start=1):
        s = t.data.shape
        if len(s) != nd or any(s[d] != ref[d] for d in range(nd) if d != ax):
            raise DimensionError(
                "concat: operand %d has shape %r, incompatible with operand 0 shape %r"
                " along non-concat axes" % (i, s, ref)
            )
    data = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.data.shape[ax] for t in tensors]

    def bw():
        g = out.grad
        offset = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * nd
                idx[ax] = slice(offset, offset + n)
                _accum(t, g[tuple(idx)])
            offset += n

    out = _from_op(data, tuple(tensors), bw)
    return out


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("stack of an empty sequence")
    ref = tensors[0].data.shape
    for i, t in enumerate(tensors[1:], start=1):
        if t.data.shape != ref:
            raise DimensionError(
                "stack: operand %d has shape %r, expected %r" % (i, t.data.shape, ref)
            )
    data = np.stack([t.data for t in tensors], axis=axis)

    def bw():
        g = out.grad
        for i, t in enumerate(tensors):
            if t.requires_grad:
                _accum(t, np.take(g, i, axis=axis))

    out = _from_op(data, tuple(tensors), bw)
    return out


def narrow(t: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = t
    nd = a.data.ndim
    ax = axis % nd
    if start < 0 or start + length > a.data.shape[ax]:
        raise DimensionError(
            "narrow: slice [%d, %d) out of range for axis %d of shape %r"
            % (start, start + length, ax, a.shape)
        )
    idx = [slice(None)] * nd
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx].copy()

    def bw():
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[idx] = out.grad
            _accum(a, g)

    out = _from_op(data, (a,), bw)
    return out


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
