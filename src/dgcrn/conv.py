"""K-hop graph convolution over weighted supports.

A support is a (coefficient, row-stochastic graph) pair: the static N x N
graph or the per-step dynamic B x N x N one. Each hop mixes a skip term to
the layer input with diffusion along every support,
H^(k) = alpha H_in + sum_j c_j A_j H^(k-1); hop outputs are projected by
per-hop weights and summed. Aggregation runs along the node axis:
out[b,n,:] = sum_m A[...,n,m] H[b,m,:].

`supports` builds the forward and backward lists once per cell step,
dynamic graph first, and leaves out every support whose coefficient is
exactly 0; `dgconv_forward` likewise adds no skip term when alpha is 0. So
disabling a branch via config is bit-identical to a build without it.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T


@dataclass
class ConvParams:
    """One direction of a K-hop convolution: K+1 weights plus the skip level.
    Only `model.init_model` builds one, after validating hops and alpha_mix."""

    hop_weights: list        # K+1 tensors, each D_in x D_out
    alpha_mix: float         # input skip term in [0,1]


def supports(graph, dyn, beta_mix: float, gamma_mix: float, dtype):
    """(forward, backward) support lists over the dynamic and static graphs.

    dyn may be None, leaving the static graph only. The backward list holds
    the transposed, renormalized graphs.
    """
    fwd, bwd = [], []
    if dyn is not None and beta_mix != 0.0:
        fwd.append((beta_mix, dyn.normalized))
        bwd.append((beta_mix, dyn.normalized_bwd))
    if gamma_mix != 0.0:
        stat_fwd, stat_bwd = graph.norm_pair(dtype)
        fwd.append((gamma_mix, stat_fwd))
        bwd.append((gamma_mix, stat_bwd))
    return fwd, bwd


def dgconv_forward(h_in, supports, p: ConvParams):
    """K-hop convolution of h_in (B x N x D_in) -> B x N x D_out."""
    # the skip term is the same at every hop: build it once
    skip = h_in * p.alpha_mix if p.alpha_mix != 0.0 and len(p.hop_weights) > 1 else None
    h = h_in
    out = T.matmul(h_in, p.hop_weights[0])
    for w in p.hop_weights[1:]:
        acc = skip
        for coef, a in supports:
            # acc + coef * A h as one tape node; the first term starts the sum
            diffused = T.matmul(a, h)
            acc = diffused * coef if acc is None else T.scaled_add(acc, diffused, coef)
        # with every term disabled the hop recurrence collapses to zero
        h = T.zeros(h.shape, dtype=h.dtype) if acc is None else acc
        out = out + T.matmul(h, w)
    return out


def dual_dgconv(h_in, fwd, bwd, p_fwd: ConvParams, p_bwd: ConvParams):
    """Sum of forward- and backward-direction convolutions, independent weights each."""
    return dgconv_forward(h_in, fwd, p_fwd) + dgconv_forward(h_in, bwd, p_bwd)
