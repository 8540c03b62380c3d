"""Step-wise dynamic graph generation.

Two hyper-networks (static-graph convolutions over the concatenated speed,
time-of-day, and hidden state) emit per-node dynamic filters. The filters
modulate two learned node-embedding tables; the antisymmetrized, rectified
pairwise similarity of the modulated embeddings is the per-step directed
adjacency. The pre-activation is antisymmetric up to the rounding of two
separately computed products, so the raw graph keeps at most one direction
of each pair except where both are within rounding of zero (see
`dynamic_adjacency`).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .conv import ConvParams, dgconv_forward
from .tensor import Tensor


@dataclass
class DynamicGraph:
    """Per-batch directed adjacency for one time step."""

    raw: Tensor             # B x N x N, entries in [0,1)
    normalized: Tensor      # row-stochastic after adding self-loops
    normalized_bwd: Tensor  # same construction on the transposed graph


@dataclass
class HyperNetParams:
    """Filter net: optional static-graph convolution, then an affine projection.

    conv=None gives the plain affine variant (input -> filter directly).
    """

    conv: ConvParams | None
    proj_w: Tensor          # D_h (or D_in when conv is None) x filter_dim
    proj_b: Tensor          # filter_dim


@dataclass
class GeneratorParams:
    """Everything one half (encoder or decoder) needs to emit dynamic graphs.
    Only `model.init_model` builds one, after validating alpha_sat and filter_mode."""

    emb_src: Tensor                    # N x D_e
    emb_tgt: Tensor                    # N x D_e
    hyper_src: HyperNetParams | None   # None exactly in frozen-filter mode
    hyper_tgt: HyperNetParams | None
    alpha_sat: float                   # saturation rate of tanh pre-activations, > 0
    filter_mode: str = "hadamard"      # hadamard | matmul | frozen


def hyper_forward(inp, static_fwd, params: HyperNetParams):
    """Dynamic filter from the hyper-network: conv over the static forward
    supports (when it has one), then projection."""
    h = inp if params.conv is None else dgconv_forward(inp, static_fwd, params.conv)
    return T.matmul(h, params.proj_w) + params.proj_b


def dynamic_embeddings(df_src, df_tgt, params: GeneratorParams):
    """Modulate the embedding tables with the dynamic filters; yields DE1, then DE2.

    hadamard mode: DE = tanh(alpha_sat * (DF (*) E)) with DF of shape B x N x D_e.
    matmul mode: DF carries D_e^2 features per node, reshaped to a per-node
    matrix acting on the embedding row. The pair is lazy: once it is
    unpacked, it holds neither filter.
    """
    yield _modulate(df_src, params.emb_src, params)
    yield _modulate(df_tgt, params.emb_tgt, params)


def _modulate(df, emb, params: GeneratorParams):
    n, d_e = emb.shape
    if params.filter_mode == "matmul":
        b = df.shape[0]
        mat = df.reshape(b, n, d_e, d_e)
        row = emb.reshape(1, n, 1, d_e)
        prod = T.matmul(row, mat).reshape(b, n, d_e)
        return T.tanh(prod * params.alpha_sat)
    return T.tanh_product(df, emb, params.alpha_sat)


def dynamic_adjacency(des, alpha_sat: float) -> DynamicGraph:
    """Directed adjacency from the modulated embeddings des = (DE1, DE2).

    raw = ReLU(tanh(alpha_sat * (DE1 DE2^T - DE2 DE1^T))). The two products
    are computed separately, so the argument is antisymmetric only as far as
    BLAS returns DE2 DE1^T as the exact transpose of DE1 DE2^T. In float32
    it has at every shape tried: the diagonal is exactly zero and at most
    one direction of each pair survives the ReLU. In float64 at N=207,
    D_e=40 it does not: the argument plus its transpose has entries a few
    ulps from zero, so a pair whose weight is within rounding of zero may
    keep both directions. Computing one product M and using M - M^T would
    make the antisymmetry exact, with one matmul less per cell step.

    `des` may be lazy (`dynamic_embeddings`); embeddings that nothing else
    holds (no rule under `no_grad`) are then freed after the two products,
    before the activation.
    """
    de_src, de_tgt = des
    prods = T.matmul(de_src, de_tgt.mT), T.matmul(de_tgt, de_src.mT)
    del de_src, de_tgt
    raw = T.relu_tanh_diff(*prods, alpha_sat)
    del prods  # no rule reads the two products, so they are freed before normalizing
    return DynamicGraph(
        raw=raw,
        normalized=T.self_loop_normalize(raw),
        normalized_bwd=T.self_loop_normalize(raw.mT),
    )


def generate(inp, static_fwd, params: GeneratorParams) -> DynamicGraph:
    """Full generator chain for one step: filters, modulation, adjacency.

    inp: B x N x D_in, with N the embedding tables' row count; static_fwd:
    the static forward supports the hyper-network convolutions diffuse over.
    Only the lazy embedding pair holds the filters, so under `no_grad`
    they are freed before the DE DE^T products.
    """
    b, n = inp.shape[:2]
    if params.filter_mode == "frozen":
        d_e = params.emb_src.shape[1]
        # constant all-ones filters run through the ordinary batched path
        df_src = df_tgt = T.ones((b, n, d_e), dtype=params.emb_src.dtype)
    else:
        df_src = hyper_forward(inp, static_fwd, params.hyper_src)
        df_tgt = hyper_forward(inp, static_fwd, params.hyper_tgt)
    des = dynamic_embeddings(df_src, df_tgt, params)
    del df_src, df_tgt
    return dynamic_adjacency(des, params.alpha_sat)
