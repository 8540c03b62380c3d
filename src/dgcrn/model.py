"""Graph-convolutional GRU cell and the sequence-to-sequence model around it.

Every dense map of a plain GRU is replaced by a dual-directional K-hop graph
convolution over the static graph and the per-step generated dynamic graph.
The encoder consumes P steps of (speed, time-of-day); the decoder starts
from a zero speed input and rolls the horizon forward, feeding back either
its own prediction or the label (scheduled sampling, on its caller's coins).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .conv import ConvParams, dual_dgconv, fold, supports
from .errors import ConfigError, DimensionError
from .generator import GeneratorParams, HyperNetParams, generate
from .tensor import Tensor

INPUT_WIDTH = 2  # speed plus time-of-day, both encoder and decoder


@dataclass
class HyperParams:
    """Architecture record; fixes every parameter shape."""

    hidden: int = 64
    emb_dim: int = 40
    hyper_dim: int = 16
    hops: int = 2
    hyper_hops: int = 2
    alpha_sat: float = 3.0
    alpha_mix: float = 0.05
    beta_mix: float = 0.95
    gamma_mix: float = 0.95
    input_len: int = 12
    output_len: int = 12
    hypernet: str = "gcn"          # gcn | affine
    filter_mode: str = "hadamard"  # hadamard | matmul | frozen
    share_embeddings: bool = False
    readout_hidden: int = 0        # 0 = single affine readout

    def validate(self):
        # each range check is written so that NaN fails it
        for name in ("hidden", "emb_dim", "hyper_dim", "input_len", "output_len"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1; got %r" % (name, getattr(self, name)))
        for name in ("hops", "hyper_hops", "readout_hidden"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be >= 0; got %r" % (name, getattr(self, name)))
        for name in ("alpha_mix", "beta_mix", "gamma_mix"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError("%s must lie in [0,1]; got %r" % (name, v))
        if not self.alpha_sat > 0:
            raise ConfigError("alpha_sat must be positive; got %r" % (self.alpha_sat,))
        if self.hypernet not in ("gcn", "affine"):
            raise ConfigError("hypernet must be 'gcn' or 'affine'; got %r" % (self.hypernet,))
        if self.filter_mode not in ("hadamard", "matmul", "frozen"):
            raise ConfigError("unknown filter_mode %r" % (self.filter_mode,))
        return self


@dataclass
class CellParams:
    """One half (encoder or decoder): generator plus the three gate convs."""

    gen: GeneratorParams | None       # None when the dynamic graph is disabled
    theta_z: tuple                    # (forward ConvParams, backward ConvParams)
    theta_r: tuple
    theta_h: tuple
    beta_mix: float                   # dynamic-graph diffusion term
    gamma_mix: float                  # static-graph diffusion term


@dataclass
class ModelParams:
    encoder: CellParams
    decoder: CellParams
    readout: list                     # [w, b] or [w1, b1, w2, b2]
    hp: HyperParams
    n_nodes: int


def _uniform(rng, fan_in: int, shape, dtype) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _init_gate(rng, hp: HyperParams, d_in: int, dtype):
    def one_direction():
        ws = [_uniform(rng, d_in, (d_in, hp.hidden), dtype) for _ in range(hp.hops + 1)]
        return ConvParams(ws, hp.alpha_mix)

    return one_direction(), one_direction()


def _init_hypernet(rng, hp: HyperParams, d_in: int, d_f: int, dtype):
    if hp.hypernet == "affine":
        return HyperNetParams(
            conv=None,
            proj_w=_uniform(rng, d_in, (d_in, d_f), dtype),
            proj_b=_zeros((d_f,), dtype),
        )
    conv = ConvParams(
        [_uniform(rng, d_in, (d_in, hp.hyper_dim), dtype) for _ in range(hp.hyper_hops + 1)],
        hp.alpha_mix,
    )
    return HyperNetParams(
        conv=conv,
        proj_w=_uniform(rng, hp.hyper_dim, (hp.hyper_dim, d_f), dtype),
        proj_b=_zeros((d_f,), dtype),
    )


def _init_generator(rng, hp: HyperParams, n_nodes: int, dtype, shared_emb=None):
    if shared_emb is not None:
        emb_src, emb_tgt = shared_emb
    else:
        emb_src = Tensor(rng.standard_normal((n_nodes, hp.emb_dim)).astype(dtype),
                         requires_grad=True)
        emb_tgt = Tensor(rng.standard_normal((n_nodes, hp.emb_dim)).astype(dtype),
                         requires_grad=True)
    if hp.filter_mode == "frozen":
        hyper_src = hyper_tgt = None
    else:
        d_in = INPUT_WIDTH + hp.hidden
        d_f = hp.emb_dim * hp.emb_dim if hp.filter_mode == "matmul" else hp.emb_dim
        hyper_src = _init_hypernet(rng, hp, d_in, d_f, dtype)
        hyper_tgt = _init_hypernet(rng, hp, d_in, d_f, dtype)
    return GeneratorParams(emb_src, emb_tgt, hyper_src, hyper_tgt,
                           hp.alpha_sat, hp.filter_mode)


def _init_cell(rng, hp: HyperParams, n_nodes: int, dtype, shared_emb=None) -> CellParams:
    # beta_mix == 0 disables the dynamic graph entirely: no generator params
    gen = None
    if hp.beta_mix > 0.0:
        gen = _init_generator(rng, hp, n_nodes, dtype, shared_emb)
    d_in = INPUT_WIDTH + hp.hidden
    return CellParams(
        gen=gen,
        theta_z=_init_gate(rng, hp, d_in, dtype),
        theta_r=_init_gate(rng, hp, d_in, dtype),
        theta_h=_init_gate(rng, hp, d_in, dtype),
        beta_mix=hp.beta_mix,
        gamma_mix=hp.gamma_mix,
    )


def init_model(hp: HyperParams, n_nodes: int, seed: int = 0,
               dtype=np.float32) -> ModelParams:
    """Draw all learnable tensors with a fixed, seed-deterministic order."""
    hp.validate()
    if n_nodes < 2:
        raise ConfigError("model needs at least 2 nodes; got %d" % n_nodes)
    dtype = np.dtype(dtype).type
    rng = np.random.default_rng(seed)
    encoder = _init_cell(rng, hp, n_nodes, dtype)
    shared = None
    if hp.share_embeddings and encoder.gen is not None:
        shared = (encoder.gen.emb_src, encoder.gen.emb_tgt)
    decoder = _init_cell(rng, hp, n_nodes, dtype, shared_emb=shared)
    if hp.readout_hidden > 0:
        readout = [
            _uniform(rng, hp.hidden, (hp.hidden, hp.readout_hidden), dtype),
            _zeros((hp.readout_hidden,), dtype),
            _uniform(rng, hp.readout_hidden, (hp.readout_hidden, 1), dtype),
            _zeros((1,), dtype),
        ]
    else:
        readout = [_uniform(rng, hp.hidden, (hp.hidden, 1), dtype), _zeros((1,), dtype)]
    return ModelParams(encoder, decoder, readout, hp, n_nodes)


# -- parameter walking ---------------------------------------------------------


def _walk_hypernet(prefix, hn: HyperNetParams):
    if hn.conv is not None:
        for k, w in enumerate(hn.conv.hop_weights):
            yield "%s.conv.w%d" % (prefix, k), w
    yield "%s.proj_w" % prefix, hn.proj_w
    yield "%s.proj_b" % prefix, hn.proj_b


def _walk_cell(prefix, cell: CellParams):
    if cell.gen is not None:
        yield "%s.gen.emb_src" % prefix, cell.gen.emb_src
        yield "%s.gen.emb_tgt" % prefix, cell.gen.emb_tgt
        if cell.gen.hyper_src is not None:
            yield from _walk_hypernet("%s.gen.hyper_src" % prefix, cell.gen.hyper_src)
        if cell.gen.hyper_tgt is not None:
            yield from _walk_hypernet("%s.gen.hyper_tgt" % prefix, cell.gen.hyper_tgt)
    for gate_name, gate in (("z", cell.theta_z), ("r", cell.theta_r), ("h", cell.theta_h)):
        for dir_name, conv in (("fwd", gate[0]), ("bwd", gate[1])):
            for k, w in enumerate(conv.hop_weights):
                yield "%s.%s.%s.w%d" % (prefix, gate_name, dir_name, k), w


def named_parameters(params: ModelParams):
    """Deterministic (name, tensor) list; shared tensors appear once."""
    out = []
    seen = set()
    gen = list(_walk_cell("encoder", params.encoder))
    gen += list(_walk_cell("decoder", params.decoder))
    for i, w in enumerate(params.readout):
        kind = "w" if i % 2 == 0 else "b"
        gen.append(("readout.%s%d" % (kind, i // 2), w))
    for name, tensor in gen:
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        out.append((name, tensor))
    return out


def zero_grads(params: ModelParams):
    for _, t in named_parameters(params):
        t.zero_grad()


# -- forward passes ---------------------------------------------------------------


def _fold_cell(cell: CellParams) -> CellParams:
    """The cell with every convolution folded (`conv.fold`), so that each cell
    step of a forward reuses the same U_i instead of building its own."""
    def gate(theta):
        return tuple(fold(p) for p in theta)

    def hyper(hn):
        return hn if hn is None or hn.conv is None else replace(hn, conv=fold(hn.conv))

    folded = replace(cell, theta_z=gate(cell.theta_z), theta_r=gate(cell.theta_r),
                     theta_h=gate(cell.theta_h))
    if cell.gen is not None:
        folded.gen = replace(cell.gen, hyper_src=hyper(cell.gen.hyper_src),
                             hyper_tgt=hyper(cell.gen.hyper_tgt))
    return folded


def cell_step(x_t, h_prev, graph, cell: CellParams, step_label: str = "step"):
    """One recurrent update. x_t: B x N x 2, h_prev: B x N x h.

    Returns the new hidden state and, for diagnostics, the dynamic graph's
    normalized (forward, backward) pair, or None when the cell has no
    generator; `encode` and `decode` drop the pair at once, so that under
    `no_grad` a step's B x N x N arrays are freed before the next step
    builds its own. Within the step each temporary goes at its last use:
    the supports are built straight from `generate`'s result, so the raw
    graph is freed before the gates run, `xh` goes once the reset gate is
    built and `r` once `[x, r*h]` is, before the candidate gate runs. The
    shapes are those `encode` and `decode` checked when the batch entered
    the model.
    """
    # [speed, time-of-day, hidden]: the generator and the z/r gates read it
    xh = T.concat([x_t, h_prev], axis=-1)
    # the hyper-networks diffuse over the static forward graph only
    static_fwd, _ = supports(graph, None, cell.beta_mix, cell.gamma_mix, xh.dtype)
    fwd, bwd = supports(graph, None if cell.gen is None else generate(xh, static_fwd, cell.gen),
                        cell.beta_mix, cell.gamma_mix, xh.dtype)
    z = T.sigmoid(dual_dgconv(xh, fwd, bwd, cell.theta_z))
    r = T.sigmoid(dual_dgconv(xh, fwd, bwd, cell.theta_r))
    del xh
    xrh = T.concat([x_t, r * h_prev], axis=-1)
    del r
    h_cand = T.tanh(dual_dgconv(xrh, fwd, bwd, cell.theta_h))
    h_t = T.gru_update(z, h_prev, h_cand)
    T.assert_finite(h_t, "%s: hidden state" % step_label)
    # the dynamic graph leads both support lists
    return h_t, None if cell.gen is None else (fwd[0][1], bwd[0][1])


def encode(x_seq, graph, params: ModelParams):
    """Run the encoder over x_seq (B x P x N x 2); returns the final state.

    The one shape check of a forward: P >= 1, and N is the node count of
    both the graph and the model (the rows of its embedding tables).
    """
    n = graph.n_nodes
    if (x_seq.ndim != 4 or x_seq.shape[1] < 1 or x_seq.shape[2:] != (n, INPUT_WIDTH)
            or params.n_nodes != n):
        raise DimensionError(
            "encoder input must be B x P x N x %d with P >= 1 and N the node count of the"
            " graph (%d) and of the model (%d); got shape %r"
            % (INPUT_WIDTH, n, params.n_nodes, x_seq.shape)
        )
    b, p_len = x_seq.shape[:2]
    h = T.zeros((b, n, params.hp.hidden), dtype=x_seq.dtype)
    cell = _fold_cell(params.encoder)
    for p in range(p_len):
        # the input is a constant: a view of step p needs no tape node
        h = cell_step(T.Tensor(x_seq.data[:, p]), h, graph, cell, "encoder step %d" % p)[0]
    return h


def readout(h, params: ModelParams):
    """Per-node shared affine map (optionally two-layer) to a speed scalar."""
    ro = params.readout
    out = T.matmul(h, ro[0]) + ro[1]
    if len(ro) == 4:
        out = T.matmul(T.tanh(out), ro[2]) + ro[3]
    return out.reshape(h.shape[0], h.shape[1])


def decode(h, time_seq, graph, params: ModelParams, teacher=None, coins=(),
           horizon=None):
    """Roll the decoder forward from the encoder state h.

    h is the running state: the first cell step replaces it, so under
    `no_grad` the encoder state is freed then, unless the caller still
    holds it (pass `decode(encode(...), ...)` to let it go).
    time_seq: B x Q x N x 1 target-step time-of-day. Counting steps from 1,
    a true coins[q] feeds step q+2 the teacher's step q+1 (teacher: B x Q x N
    labels in normalized units), else step q+1's forecast, as past the coins.
    Predictions for the first `horizon` steps (1 to Q, default Q) are
    returned as B x horizon x N, still in normalized units.
    """
    if time_seq.ndim != 4 or time_seq.shape[-1] != 1:
        raise DimensionError("time_seq must be B x Q x N x 1; got %r" % (time_seq.shape,))
    b, q_len, n, _ = time_seq.shape
    horizon = q_len if horizon is None else horizon
    prev_speed = T.zeros((b, n, 1), dtype=h.dtype)
    cell = _fold_cell(params.decoder)
    preds = []
    for q in range(horizon):
        x_t = T.concat([prev_speed, T.Tensor(time_seq.data[:, q])], axis=-1)
        h = cell_step(x_t, h, graph, cell, "decoder step %d" % q)[0]
        pred = readout(h, params)
        preds.append(pred)
        if q + 1 < horizon:
            if q < len(coins) and coins[q]:
                prev_speed = T.Tensor(teacher.data[:, q, :, None])
            else:
                # feed back the model's own prediction, keeping the graph
                prev_speed = pred.reshape(b, n, 1)
    return T.stack(preds, axis=1)
