"""Bit-identity fingerprint of training and inference numerics.

Prints one sha256 over 30 configurations: float32 and float64, times the
hadamard, matmul and frozen filter modes, times five variants (plain;
affine hyper-networks with a two-layer readout and shared embeddings;
alpha_mix 0; gamma_mix 0; beta_mix 0). Each configuration runs 4 clipped
train steps with scheduled sampling and a growing curriculum horizon, then
a no-grad predict. The digest covers every loss, every pre-clip grad norm,
every weight after the last step and the forecasts.

A refactor that claims to keep results bit-identical must keep the digest:

    PYTHONPATH=src python tests/fingerprint.py

prints the digest and exits 1 when it differs from EXPECTED. A change that
alters results on purpose records its new digest in EXPECTED. The digest
depends on the BLAS build, so pytest does not collect this file (its name
does not start with test_).
"""
from __future__ import annotations

import hashlib
import sys

import numpy as np

from dgcrn.data import NormStats, synth_distances
from dgcrn.graphs import build_adjacency
from dgcrn.model import HyperParams, init_model, named_parameters
from dgcrn.training import Adam, TrainConfig, TrainState, predict, train_step

EXPECTED = "ae2077040a660637b80c7f0b737300359f838accc4b6fd0a552481f91cf279ae"

N_NODES, LEN, BATCH, STEPS = 8, 4, 4, 4

VARIANTS = {
    "plain": {},
    "affine-readout2-shared": {"hypernet": "affine", "readout_hidden": 5,
                               "share_embeddings": True},
    "alpha0": {"alpha_mix": 0.0},
    "gamma0": {"gamma_mix": 0.0},
    "beta0": {"beta_mix": 0.0},
}


def _batch(rng):
    x = rng.normal(size=(BATCH, LEN, N_NODES, 2))
    y = rng.uniform(20.0, 70.0, (BATCH, LEN, N_NODES))
    tod = rng.uniform(0.0, 1.0, (BATCH, LEN))
    mask = rng.random((BATCH, LEN, N_NODES)) > 0.1
    return x, y, tod, mask


def run_one(dtype, filter_mode: str, overrides: dict) -> bytes:
    """Everything one configuration produces, as bytes."""
    graph = build_adjacency(synth_distances(N_NODES, seed=3), kappa=0.1)
    hp = HyperParams(hidden=6, emb_dim=3, hyper_dim=4, hops=2, hyper_hops=2,
                     input_len=LEN, output_len=LEN, filter_mode=filter_mode,
                     **overrides)
    params = init_model(hp, N_NODES, seed=11, dtype=dtype)
    stats = NormStats(mean=45.0, std=12.0)
    # a small clip norm so every step rescales; step_size 1 grows the
    # horizon each step and tau 2 mixes teacher and fed-back inputs
    cfg = TrainConfig(learning_rate=0.01, step_size=1, ss_decay_tau=2.0,
                      grad_clip_norm=0.5)
    state = TrainState(rng=np.random.default_rng(5))
    opt = Adam(named_parameters(params), lr=cfg.learning_rate)
    rng = np.random.default_rng(7)
    parts = []
    for _ in range(STEPS):
        loss, grad_norm = train_step(params, graph, _batch(rng), stats, opt, cfg, state)
        parts.append(np.array([loss, grad_norm], dtype=np.float64).tobytes())
    for name, t in named_parameters(params):
        parts.append(name.encode() + t.data.tobytes())
    x, _, tod, _ = _batch(rng)
    parts.append(predict(params, graph, x, tod, stats, batch_size=3).tobytes())
    return b"".join(parts)


def fingerprint() -> str:
    digest = hashlib.sha256()
    for dtype in (np.float32, np.float64):
        for mode in ("hadamard", "matmul", "frozen"):
            for variant, overrides in VARIANTS.items():
                tag = "%s/%s/%s" % (np.dtype(dtype).name, mode, variant)
                digest.update(tag.encode())
                digest.update(run_one(dtype, mode, overrides))
    return digest.hexdigest()


if __name__ == "__main__":
    got = fingerprint()
    print(got)
    if got != EXPECTED:
        print("mismatch: expected %s" % EXPECTED, file=sys.stderr)
        sys.exit(1)
