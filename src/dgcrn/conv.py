"""K-hop graph convolution over the static and per-step dynamic graphs.

Each hop mixes three terms: a skip connection to the layer input, diffusion
along the (row-stochastic) dynamic graph, and diffusion along the static
graph. Hop outputs are projected by per-hop weight matrices and summed.
Aggregation runs along the node axis: out[b,n,:] = sum_m M[...,n,m] H[b,m,:].

Terms whose mixing coefficient is exactly 0 are skipped rather than
multiplied by 0.0, so disabling a branch via config is bit-identical to a
build without that branch.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ConfigError, DimensionError


@dataclass
class ConvParams:
    """One direction of a K-hop convolution: K+1 weights plus mixing levels."""

    hop_weights: list        # K+1 tensors, each D_in x D_out
    alpha_mix: float         # input skip term
    beta_mix: float          # dynamic-graph diffusion term
    gamma_mix: float         # static-graph diffusion term

    def __post_init__(self):
        if not self.hop_weights:
            raise ConfigError("hop_weights must hold at least the hop-0 weight")
        for name, v in (("alpha_mix", self.alpha_mix),
                        ("beta_mix", self.beta_mix),
                        ("gamma_mix", self.gamma_mix)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError("%s must lie in [0,1]; got %r" % (name, v))

    @property
    def hops(self) -> int:
        return len(self.hop_weights) - 1


def dgconv_forward(h_in, dyn, stat, p: ConvParams, direction: str = "forward"):
    """K-hop convolution of h_in (B x N x D_in) -> B x N x D_out.

    dyn may be None when beta_mix == 0 (static-only convolution, as in the
    hyper-network). direction="backward" aggregates along the transposed,
    renormalized graphs with this direction's own weights.
    """
    if p.beta_mix > 0.0 and dyn is None:
        raise ConfigError(
            "beta_mix=%r requires a dynamic graph but none was supplied" % p.beta_mix
        )
    if direction not in ("forward", "backward"):
        raise ConfigError("unknown direction %r" % direction)
    n = stat.n_nodes
    if h_in.ndim < 2 or h_in.shape[-2] != n:
        raise DimensionError(
            "input shape %r does not match graph with %d nodes" % (h_in.shape, n)
        )
    fwd_t, bwd_t = stat.norm_pair(h_in.dtype)
    stat_m = fwd_t if direction == "forward" else bwd_t
    dyn_m = None
    if dyn is not None and p.beta_mix > 0.0:
        dyn_m = dyn.normalized if direction == "forward" else dyn.normalized_bwd

    # the skip term is the same at every hop: build it once
    skip = h_in * p.alpha_mix if p.alpha_mix != 0.0 and p.hops >= 1 else None
    h = h_in
    out = T.matmul(h_in, p.hop_weights[0])
    for k in range(1, len(p.hop_weights)):
        acc = skip
        if dyn_m is not None:
            acc = _mix(acc, T.matmul(dyn_m, h), p.beta_mix)
        if p.gamma_mix != 0.0:
            acc = _mix(acc, T.matmul(stat_m, h), p.gamma_mix)
        if acc is None:
            # every branch disabled: the hop recurrence collapses to zero
            acc = T.zeros(h.shape, dtype=h.dtype)
        h = acc
        out = out + T.matmul(h, p.hop_weights[k])
    return out


def _mix(acc, diffused, coef):
    # acc + coef * diffused as one tape node; the first term starts the sum
    return diffused * coef if acc is None else T.scaled_add(acc, diffused, coef)


def dual_dgconv(h_in, dyn, stat, p_fwd: ConvParams, p_bwd: ConvParams):
    """Sum of forward- and backward-direction convolutions, independent weights each."""
    return dgconv_forward(h_in, dyn, stat, p_fwd, "forward") + dgconv_forward(
        h_in, dyn, stat, p_bwd, "backward"
    )
