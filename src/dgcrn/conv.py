"""K-hop graph convolution over weighted supports.

A support is a (coefficient, row-stochastic graph) pair: the static N x N
graph or the per-step dynamic B x N x N one. Each hop mixes a skip term to
the layer input with diffusion along every support,
H^(k) = alpha X + sum_j c_j A_j H^(k-1) with H^(0) = X; hop outputs are
projected by per-hop weights and summed, out = sum_k H^(k) W_k.
Aggregation runs along the node axis: out[b,n,:] = sum_m A[...,n,m] H[b,m,:].

The recurrence is linear in X and the diffusion D(Y) = sum_j c_j A_j Y acts
on the node axis only, so it commutes with the projections. `dgconv_forward`
therefore evaluates the sum in Horner form,

    out = X U_0 + D(X U_1 + D(X U_2 + ... + D(X U_K))),
    U_i = W_i + alpha * sum_{k>i} W_k,

with each hop, X U_k plus all its diffusion terms, one tape node.
`horner_weights` builds the U_i from the per-hop weights; `model.encode` and
`model.decode` build them once per forward and every cell step reuses them,
so a forward records them once, not P+Q times. The matmul
count is that of the hop-by-hop form, (K+1) + K |supports|, but every N x N
product multiplies a D_out-wide array (hidden in the gates, hyper_dim in
the hyper-networks) instead of the D_in = 2 + hidden wide input. At the
paper shape that is 64 or 16 columns instead of 66, and 66 falls off the
BLAS kernel's 16-column blocking. The summation order differs from the
hop-by-hop form, so results agree with `oracles.khop_conv_ref` to rounding.

`supports` builds the forward and backward lists once per cell step,
dynamic graph first, and leaves out every support whose coefficient is
exactly 0; with alpha 0, U_i is W_i itself and no skip term is formed. So
disabling a branch via config is bit-identical to a build without it. An
empty list (a hyper-network with gamma_mix 0) diffuses nothing, so only
X U_0 is formed: one matmul.
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


def horner_weights(p: ConvParams) -> list:
    """[U_0, ..., U_K] with U_i = W_i + alpha * sum_{k>i} W_k, the W_i themselves
    with alpha 0. Each tail is summed from W_K down."""
    ws, alpha = p.hop_weights, p.alpha_mix
    if alpha == 0.0:
        return list(ws)
    us = [ws[-1]]
    tail = ws[-1]  # sum of the weights of the hops above k
    for k in range(len(ws) - 2, -1, -1):
        us.append(T.scaled_add(ws[k], [(alpha, tail)]))
        if k:
            tail = tail + ws[k]
    return us[::-1]


def dgconv_forward(h_in, supports, us):
    """K-hop convolution of h_in (B x N x D_in) -> B x N x D_out, in Horner form
    over the weights `horner_weights` built."""
    if not supports:
        return T.matmul(h_in, us[0])
    out = T.matmul(h_in, us[-1])
    for u in us[-2::-1]:
        # X U_k + sum_j c_j A_j out as one tape node
        out = T.scaled_add(T.matmul(h_in, u), [(c, T.matmul(a, out)) for c, a in supports])
    return out


def dual_dgconv(h_in, fwd, bwd, us_fwd, us_bwd):
    """Sum of forward- and backward-direction convolutions, independent weights each."""
    return dgconv_forward(h_in, fwd, us_fwd) + dgconv_forward(h_in, bwd, us_bwd)
