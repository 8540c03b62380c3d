"""K-hop graph convolution over weighted supports.

A support is a (coefficient, row-stochastic graph) pair: the static N x N
graph or the per-step dynamic B x N x N one. Each hop mixes a skip term to
the layer input with diffusion along every support,
H^(k) = alpha X + sum_j c_j A_j H^(k-1) with H^(0) = X; hop outputs are
projected by per-hop weights and summed, out = sum_k H^(k) W_k.
Aggregation runs along the node axis: out[b,n,:] = sum_m A[...,n,m] H[b,m,:].

The recurrence is linear in X and the diffusion D(Y) = sum_j c_j A_j Y acts
on the node axis only, so it commutes with the projections. A convolution
with weights W and skip level alpha is therefore the same map as one with
weights U and no skip term,

    out = X U_0 + D(X U_1 + D(X U_2 + ... + D(X U_K))),
    U_i = W_i + alpha * sum_{k>i} W_k,

and `fold` returns that alpha-0 form. `dgconv_forward` folds its
parameters and evaluates the sum in Horner form, each hop (X U_k plus all
its diffusion terms) one tape node. A hop hands `T.scaled_add` its
projection X U_k and a lazy iterable of its diffusion terms: each product
is scaled in place, summed into X U_k and dropped before the next is
formed, so a hop allocates its products and nothing else, and holds at
most one of them at a time. Folding an alpha-0
convolution returns it unchanged, so `model.encode` and `model.decode`
fold their cell once per forward and a forward records the U_i once, not
P+Q times. The matmul count is that of the hop-by-hop form,
(K+1) + K |supports|, but every N x N product multiplies a D_out-wide
array (hidden in the gates, hyper_dim in the hyper-networks) instead of
the D_in = 2 + hidden wide input: at the paper shape 64 or 16 columns
instead of 66, which falls off the BLAS kernel's 16-column blocking. The
summation order differs from the hop-by-hop form, so results agree with
`oracles.khop_conv_ref` to rounding.

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


def fold(p: ConvParams) -> ConvParams:
    """The same convolution with alpha 0 and weights U_i = W_i + alpha *
    sum_{k>i} W_k, each tail summed from W_K down; p itself when alpha is 0."""
    ws, alpha = p.hop_weights, p.alpha_mix
    if alpha == 0.0:
        return p
    us = [ws[-1]]
    tail = ws[-1]  # sum of the weights of the hops above k
    for k in range(len(ws) - 2, -1, -1):
        us.append(ws[k] + tail * alpha)
        if k:
            tail = tail + ws[k]
    return ConvParams(us[::-1], 0.0)


def dgconv_forward(h_in, supports, p: ConvParams):
    """K-hop convolution of h_in (B x N x D_in) -> B x N x D_out, in Horner form
    over the weights of `fold(p)`."""
    us = fold(p).hop_weights
    if not supports:
        return T.matmul(h_in, us[0])
    out = T.matmul(h_in, us[-1])
    for u in us[-2::-1]:
        # X U_k + sum_j c_j A_j out as one tape node
        out = T.scaled_add(T.matmul(h_in, u), ((c, T.matmul(a, out)) for c, a in supports))
    return out


def dual_dgconv(h_in, fwd, bwd, theta):
    """Sum of both directions' convolutions over a gate's (fwd, bwd) ConvParams."""
    return dgconv_forward(h_in, fwd, theta[0]) + dgconv_forward(h_in, bwd, theta[1])
