"""Optimization and the training loop.

The loss is mean absolute error over observed entries, computed on
denormalized predictions so it reads in speed units. The forecast horizon
grows on a fixed iteration schedule, and the decoder takes ground truth
instead of its own prediction with a probability that decays per
iteration; both schedules share the global iteration counter, which starts
at 1 on the first batch.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import NormStats, WindowedDataset, normalize, write_csv
from .errors import ConfigError, DegenerateInputError, NumericError
from .metrics import batch_metrics
from .model import ModelParams, decode, encode, named_parameters, zero_grads


class Adam:
    """Adaptive-moment descent over the model's named parameters."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self):
        """Apply one update from the gradients currently on the parameters."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.data -= (self.lr * update).astype(p.data.dtype, copy=False)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    with_grad = []
    for _, p in params:
        if p.grad is None:
            continue
        with_grad.append(p)
        total += float(np.square(p.grad, dtype=np.float64).sum())
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericError("gradient norm is non-finite")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in with_grad:
            p.grad = p.grad * scale  # rebind: gradient arrays may be shared
    return norm


# -- schedules ---------------------------------------------------------------------


def curriculum_horizon(iteration: int, step_size: int, output_len: int) -> int:
    """Trained horizon after `iteration` batches: starts at 1, grows by one
    every step_size iterations, capped at output_len."""
    return min(output_len, 1 + iteration // step_size)


def scheduled_sampling_prob(iteration: int, tau: float) -> float:
    """Probability of feeding ground truth to the decoder; decays from
    near 1 toward 0 as iterations pass. Underflows cleanly to 0."""
    with np.errstate(over="ignore"):
        e = np.exp(iteration / tau)
    return float(tau / (tau + e)) if np.isfinite(e) else 0.0


# -- loss --------------------------------------------------------------------------


def masked_mae_loss(pred_norm, y_raw, mask, stats: NormStats):
    """Mean |error| in raw speed units over observed entries.

    pred_norm: tensor B x i x N in normalized units. y_raw, mask: arrays of
    the same shape; an entry is observed where its mask is true (> 0).
    """
    observed = np.asarray(mask) > 0
    count = float(np.count_nonzero(observed))
    if count == 0.0:
        raise DegenerateInputError("no observed labels in batch")
    dtype = pred_norm.data.dtype
    pred = pred_norm * float(stats.std) + float(stats.mean)
    diff = T.absolute(pred - T.Tensor(np.asarray(y_raw, dtype=dtype)))
    masked = diff * T.Tensor(observed.astype(dtype))
    return masked.sum() * (1.0 / count)


# -- configuration and state -----------------------------------------------------------


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 64
    step_size: int = 2500       # iterations between horizon increments
    ss_decay_tau: float = 4000.0
    max_epochs: int = 100
    patience: int = 15
    grad_clip_norm: float = 5.0
    curriculum: bool = True
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self):
        # each range check is written so that NaN fails it
        if not self.learning_rate >= 0:
            raise ConfigError("learning_rate must be >= 0; got %r" % (self.learning_rate,))
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1; got %r" % (self.batch_size,))
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1; got %r" % (self.max_epochs,))
        if self.patience < 0:
            raise ConfigError("patience must be >= 0; got %r" % (self.patience,))
        if self.step_size < 1:
            raise ConfigError("step_size must be >= 1; got %r" % (self.step_size,))
        if not self.ss_decay_tau > 0:
            raise ConfigError("ss_decay_tau must be positive; got %r" % (self.ss_decay_tau,))
        if not self.grad_clip_norm > 0:
            raise ConfigError("grad_clip_norm must be positive; got %r" % (self.grad_clip_norm,))
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0,1); got %r, %r" % (self.beta1, self.beta2))
        if not self.eps > 0:
            raise ConfigError("eps must be positive; got %r" % (self.eps,))
        return self


@dataclass
class TrainState:
    iteration: int = 0
    horizon: int = 1
    sampling_prob: float = 1.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))


# -- steps and loops -----------------------------------------------------------------


def _time_tensor(tod, n_nodes, dtype):
    # S x Q -> S x Q x N x 1 read-only broadcast view; the decoder reads
    # each step as a view too, and concat copies it into the cell input
    s, q = tod.shape
    arr = np.asarray(tod, dtype=dtype)[:, :, None, None]
    return T.Tensor(np.broadcast_to(arr, (s, q, n_nodes, 1)))


def forward(params: ModelParams, graph, x, tod, teacher=None, coins=(), horizon=None):
    """Normalized forecasts B x horizon x N of a batch of windows (x: B x P x N
    x 2, tod: B x Q); teacher, coins and horizon are `decode`'s. The one place
    a batch becomes model tensors: a contiguous model-dtype copy goes straight
    into `encode` and its final state into `decode`, so under `no_grad`
    neither outlives the first decoder step."""
    dtype = params.readout[0].data.dtype
    return decode(encode(T.Tensor(np.ascontiguousarray(x, dtype)), graph, params),
                  _time_tensor(tod, x.shape[2], dtype), graph, params,
                  teacher=teacher, coins=coins, horizon=horizon)


def batch_loss(params: ModelParams, graph, batch, stats: NormStats, horizon: int, coins):
    """`masked_mae_loss` of `forward` over the first `horizon` steps of batch =
    (x, y, tod, mask) numpy arrays, y in raw units; a true coin feeds the
    decoder that step's label (normalized) in place of its own forecast."""
    x, y, tod, mask = batch
    teacher = T.Tensor(normalize(y, stats).astype(params.readout[0].data.dtype))
    pred = forward(params, graph, x, tod, teacher, coins, horizon)
    return masked_mae_loss(pred, y[:, :horizon], mask[:, :horizon], stats)


def train_step(params: ModelParams, graph, batch, stats: NormStats,
               opt: Adam, cfg: TrainConfig, state: TrainState):
    """One optimization step. batch = (x, y, tod, mask) numpy arrays.

    Returns (loss value, gradient norm before clipping).
    """
    state.iteration += 1
    q_len = params.hp.output_len
    horizon = (curriculum_horizon(state.iteration, cfg.step_size, q_len)
               if cfg.curriculum else q_len)
    p_teacher = scheduled_sampling_prob(state.iteration, cfg.ss_decay_tau)
    state.horizon = horizon
    state.sampling_prob = p_teacher
    # one coin per decoder step after the first; none drawn once p is 0
    coins = (tuple(state.rng.random() < p_teacher for _ in range(horizon - 1))
             if p_teacher > 0.0 else ())

    zero_grads(params)
    loss = batch_loss(params, graph, batch, stats, horizon, coins)
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss at iteration %d" % state.iteration)
    loss.backward()
    grad_norm = clip_global_norm(opt.params, cfg.grad_clip_norm)
    opt.step()
    return float(loss.item()), grad_norm


def _forecasts(params: ModelParams, graph, x, tod, batch_size: int):
    """Yield (sample slice, model-dtype forecasts) per batch, decoder feeding
    itself."""
    for lo in range(0, x.shape[0], batch_size):
        rows = slice(lo, lo + batch_size)
        with T.no_grad():
            out = forward(params, graph, x[rows], tod[rows]).data
        yield rows, out


def _to_raw(out, stats: NormStats):
    # out * stats.std + stats.mean without its two copies; out is float64
    out *= stats.std
    out += stats.mean
    return out


def predict(params: ModelParams, graph, x, tod, stats: NormStats,
            batch_size: int = 64) -> np.ndarray:
    """Raw-unit forecasts, S x Q x N float64: the model-dtype batches are
    joined into one float64 array, denormalized in place."""
    outs = [out for _, out in _forecasts(params, graph, x, tod, batch_size)]
    return _to_raw(np.concatenate(outs, axis=0, dtype=np.float64), stats)


def evaluate(params: ModelParams, graph, samples, stats: NormStats,
             batch_size: int = 64, model_name: str = "model"):
    """Masked metrics on a sample set: (overall, per-horizon rows). Each
    batch's raw forecasts are reduced by `batch_metrics` and dropped."""
    overall, rows = batch_metrics(model_name, (
        (_to_raw(out.astype(np.float64), stats), samples.y[idx], samples.mask[idx])
        for idx, out in _forecasts(params, graph, samples.x, samples.tod, batch_size)))
    if overall is None:
        raise DegenerateInputError("evaluation set has no observed labels")
    return overall, rows


def _snapshot(params: ModelParams):
    return {name: p.data.copy() for name, p in named_parameters(params)}


def _restore(params: ModelParams, snap):
    for name, p in named_parameters(params):
        p.data = snap[name].copy()


def fit(params: ModelParams, graph, dataset: WindowedDataset, cfg: TrainConfig,
        progress=None):
    """Full training run with early stopping on validation MAE.

    Returns (history rows, best validation MAE). The model is left holding
    the best-epoch weights. History rows follow the training-log column
    order: epoch, train_mae, val_mae, val_rmse, val_mape, seconds,
    horizon, sampling_prob.
    """
    cfg.validate()
    opt = Adam(named_parameters(params), lr=cfg.learning_rate, beta1=cfg.beta1,
               beta2=cfg.beta2, eps=cfg.eps)
    state = TrainState(rng=np.random.default_rng(cfg.seed))
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    train = dataset.train
    n_train = len(train)
    best_val = np.inf
    best_snap = _snapshot(params)
    bad_epochs = 0
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.monotonic()
        order = shuffle_rng.permutation(n_train)
        losses = []
        for lo in range(0, n_train, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch = (train.x[idx], train.y[idx], train.tod[idx], train.mask[idx])
            loss, _ = train_step(params, graph, batch, dataset.stats, opt, cfg, state)
            losses.append(loss)
        (val_mae, val_rmse, val_mape, _), _ = evaluate(
            params, graph, dataset.val, dataset.stats, cfg.batch_size)
        seconds = time.monotonic() - t0
        row = (epoch, float(np.mean(losses)), val_mae, val_rmse, val_mape,
               seconds, state.horizon, state.sampling_prob)
        history.append(row)
        if progress is not None:
            progress(row)
        if val_mae < best_val:
            best_val = val_mae
            best_snap = _snapshot(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(cfg.patience, 1):
                break
    _restore(params, best_snap)
    return history, float(best_val)


# -- training log -------------------------------------------------------------------


def write_training_log(path, history):
    write_csv(path, ["epoch", "train_mae", "val_mae", "val_rmse", "val_mape", "seconds",
                     "horizon_i", "ss_prob"],
              ([epoch, repr(float(tr)), repr(float(vm)), repr(float(vr)),
                repr(float(vp)), repr(float(sec)), hor, repr(float(sp))]
               for epoch, tr, vm, vr, vp, sec, hor, sp in history))

