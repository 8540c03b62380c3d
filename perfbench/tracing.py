"""Per-layer tracing of the dgcrn library from outside the package.

Every wrapper is installed on the name the *caller* looks up: several
modules bind library functions with ``from ... import ...``, so patching
only the defining module would miss those calls. Spans nest through a
stack; a span's self time is its duration minus the time of the spans it
encloses. ``tensor.matmul`` is a counter only (calls and forward flops from
operand shapes), so the layers that call it keep its time as their own.
"""
from __future__ import annotations

import contextlib
import gc
import math
from collections import Counter
from time import perf_counter

from dgcrn import conv, data, generator, graphs, model, serialize, tensor, training

# (module or class, attribute, span name). dgconv_forward is looked up from
# two modules; each site gets its own call counter so a missed patch shows.
SPANS = [
    (training, "train_step", "training.train_step"),
    (training, "masked_mae_loss", "training.loss"),
    (training, "clip_global_norm", "training.clip"),
    (training.Adam, "step", "training.adam"),
    (training, "predict", "training.predict"),
    (training, "evaluate", "training.evaluate"),
    (training, "encode", "model.encode"),
    (training, "decode", "model.decode"),
    (model, "cell_step", "model.cell_step"),
    (model, "readout", "model.readout"),
    (model, "generate", "generator.generate"),
    (model, "dual_dgconv", "conv.dual_dgconv"),
    (conv, "dgconv_forward", "conv.dgconv_forward@gate"),
    (generator, "dgconv_forward", "conv.dgconv_forward@hyper"),
    (generator, "hyper_forward", "generator.hyper_forward"),
    (generator, "dynamic_adjacency", "generator.dynamic_adjacency"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (serialize, "save_checkpoint", "serialize.save_checkpoint"),
    (serialize, "load_checkpoint", "serialize.load_checkpoint"),
    (data, "synth_generate", "data.synth_generate"),
    (data, "build_dataset", "data.build_dataset"),
    (graphs, "build_adjacency", "graphs.build_adjacency"),
    (model, "init_model", "model.init_model"),
]


def matmul_flops(a_shape, b_shape) -> int:
    """2*m*k*n per product, times the broadcast leading dimensions."""
    la, lb = a_shape[:-2], b_shape[:-2]
    if len(la) < len(lb):
        la, lb = lb, la
    cut = len(la) - len(lb)
    lead = la[:cut] + tuple(max(x, y) for x, y in zip(la[cut:], lb))
    return 2 * math.prod(lead) * a_shape[-2] * a_shape[-1] * b_shape[-1]


def tape_size(root):
    """(interior nodes, bytes of their outputs) reachable from a loss tensor."""
    seen = set()
    stack = [root]
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
            nbytes += t.data.nbytes
        stack.extend(p for p in t._parents if p.requires_grad)
    return nodes, nbytes


class Tracer:
    """In-memory span aggregates and counters; nothing is written until read."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []
        self._gc_start = None

    def span(self, name, fn):
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                self._stack.pop()
                self.total_s[name] += d
                self.self_s[name] += d - children[0]
                if self._stack:
                    self._stack[-1][0] += d
        return wrapped

    def _matmul(self, fn):
        def wrapped(a, b):
            self.calls["tensor.matmul"] += 1
            self.counts["tensor.matmul_flops"] += matmul_flops(a.shape, b.shape)
            return fn(a, b)
        return wrapped

    def _backward(self, fn):
        def wrapped(root):
            nodes, nbytes = tape_size(root)
            self.counts["tensor.tape_nodes"] += nodes
            self.counts["tensor.tape_bytes"] += nbytes
            return fn(root)
        return wrapped

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.counts["tensor.gc_collections"] += 1
            self.total_s["tensor.gc_pause"] += perf_counter() - self._gc_start
            self._gc_start = None

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in SPANS:
                orig = owner.__dict__[attr]
                wrapped = self.span(name, orig)
                if name == "tensor.backward":
                    wrapped = self._backward(wrapped)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
            saved.append((tensor, "matmul", tensor.matmul))
            tensor.matmul = self._matmul(tensor.matmul)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def snapshot(self) -> Counter:
        return Counter(self.calls)
