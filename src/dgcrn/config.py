"""Run configuration: sectioned defaults, file loading, ablation presets.

A config file is a YAML document with up to four top-level sections --
model, train, data, eval -- whose keys mirror the corresponding dataclass
fields. Absent sections and keys keep their defaults; unknown ones are
rejected by name.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .model import HyperParams
from .training import TrainConfig


@dataclass
class DataConfig:
    """Dataset sources and the synthetic-generator knobs."""

    speeds: str = ""              # speed file, .csv (timestamped) or .bin
    distances: str = ""           # distance CSV or graph cache .bin
    zero_as_missing: bool = False  # treat 0.0 readings as missing
    split: str = "ratio"          # ratio | days
    train: float = 0.7            # fraction, or whole days when split=days
    val: float = 0.1
    test: float = 0.2
    kappa: float = 0.1            # graph sparsity threshold
    n_nodes: int = 20             # gen-data: nodes to synthesize
    n_days: int = 20              # gen-data: days to synthesize
    dt_seconds: int = 300         # gen-data: sample period
    congestion_rate: float = 0.002  # gen-data: event probability per node-step
    noise_std: float = 1.0        # gen-data: additive noise


@dataclass
class EvalConfig:
    split: str = "test"           # train | val | test
    horizons: list = field(default_factory=lambda: [3, 6, 12])
    batch_size: int = 64


@dataclass
class AppConfig:
    model: HyperParams = field(default_factory=HyperParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self):
        # each range check is written so that NaN fails it
        self.model.validate()
        self.train.validate()
        d = self.data
        if d.split not in ("ratio", "days"):
            raise ConfigError("data.split must be ratio or days; got %r" % d.split)
        for name in ("train", "val", "test"):
            share = getattr(d, name)
            if not share > 0:
                raise ConfigError("data.%s must be positive" % name)
            if d.split == "days" and not float(share).is_integer():
                raise ConfigError("data.%s must be a whole number of days when data.split"
                                  " is days; got %r" % (name, share))
        if not 0.0 < d.kappa < 1.0:
            raise ConfigError("data.kappa must lie in (0, 1); got %r" % d.kappa)
        if d.n_nodes < 2:
            raise ConfigError("data.n_nodes must be >= 2; got %r" % d.n_nodes)
        if d.n_days < 1 or d.dt_seconds < 1:
            raise ConfigError("data.n_days, dt_seconds must be >= 1")
        if not 0.0 <= d.congestion_rate < 1.0:
            raise ConfigError("data.congestion_rate must lie in [0, 1); got %r"
                              % d.congestion_rate)
        if not d.noise_std >= 0:
            raise ConfigError("data.noise_std must be >= 0")
        e = self.eval
        if e.split not in ("train", "val", "test"):
            raise ConfigError("eval.split must be train, val or test; got %r" % e.split)
        if e.batch_size < 1:
            raise ConfigError("eval.batch_size must be >= 1")
        if any(h < 1 for h in e.horizons):
            raise ConfigError("eval.horizons must be >= 1")
        return self


def coerce(label: str, want, value):
    """`value` checked against the type `want`; ints widen to float."""
    if want is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError("%s must be true or false; got %r" % (label, value))
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("%s must be an integer; got %r" % (label, value))
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("%s must be a number; got %r" % (label, value))
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError("%s must be a string; got %r" % (label, value))
        return value
    if want is list:
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError("%s must be a list of integers; got %r" % (label, value))
        return list(value)
    raise ConfigError("%s has unsupported type %r" % (label, want))


def read_section(label: str, target, values):
    """Overwrite `target`'s fields from the mapping `values`, each coerced
    to the type of its current value, and return `target`. `label` names
    the section in every error, e.g. ``run.yaml: model``."""
    if not isinstance(values, dict):
        raise ConfigError("%s must be a mapping; got %r" % (label, values))
    known = {f.name for f in fields(target)}
    for key, value in values.items():
        if key not in known:
            raise ConfigError("%s.%s is not a known key (known: %s)"
                              % (label, key, ", ".join(sorted(known))))
        want = type(getattr(target, key))
        setattr(target, key, coerce("%s.%s" % (label, key), want, value))
    return target


def load_config(path=None) -> AppConfig:
    """Defaults, overridden by the YAML file at `path` when given."""
    import yaml  # here, so that reading a checkpoint does not load the YAML parser

    cfg = AppConfig()
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e)) from None
    except yaml.YAMLError as e:
        raise ConfigError("%s: not valid config syntax: %s" % (path, e)) from None
    if doc is None:
        return cfg
    if not isinstance(doc, dict):
        raise ConfigError("%s: top level must be a mapping of sections" % path)
    sections = {"model": cfg.model, "train": cfg.train,
                "data": cfg.data, "eval": cfg.eval}
    for name, values in doc.items():
        if name not in sections:
            raise ConfigError(
                "%s: unknown config section %r (known: %s)"
                % (path, name, ", ".join(sorted(sections)))
            )
        if values is not None:
            read_section("%s: %s" % (path, name), sections[name], values)
    return cfg


# -- ablation presets -----------------------------------------------------------------

# Each named variant is a single-switch delta against the full model.
_ABLATIONS = {
    "w/o-dg": ("model.beta_mix = 0 (dynamic graph disabled)",
               lambda c: setattr(c.model, "beta_mix", 0.0)),
    "w/o-preA": ("model.gamma_mix = 0 (static pre-defined graph disabled)",
                 lambda c: setattr(c.model, "gamma_mix", 0.0)),
    "w/o-hypernet": ("model.hypernet = affine (filter net without graph conv)",
                     lambda c: setattr(c.model, "hypernet", "affine")),
    "dg2sg": ("model.filter_mode = frozen (static adaptive graph)",
              lambda c: setattr(c.model, "filter_mode", "frozen")),
    "mul2matmul": ("model.filter_mode = matmul (filters act by matrix product)",
                   lambda c: setattr(c.model, "filter_mode", "matmul")),
    "w/o-cl": ("train.curriculum = false (full horizon from the start)",
               lambda c: setattr(c.train, "curriculum", False)),
}


def ablation_names():
    return sorted(_ABLATIONS)


def apply_ablation(cfg: AppConfig, name: str) -> AppConfig:
    if name not in _ABLATIONS:
        raise ConfigError(
            "unknown ablation %r (known: %s)" % (name, ", ".join(ablation_names()))
        )
    _ABLATIONS[name][1](cfg)
    return cfg


# -- documentation --------------------------------------------------------------------

_FIELD_HELP = {
    "model.hidden": "hidden state width per node",
    "model.emb_dim": "node embedding width for graph generation",
    "model.hyper_dim": "hidden width inside the filter-generating net",
    "model.hops": "propagation depth of each graph convolution",
    "model.hyper_hops": "propagation depth inside the filter-generating net",
    "model.alpha_sat": "saturation rate of tanh in graph generation",
    "model.alpha_mix": "hop-mixing weight of the unpropagated signal",
    "model.beta_mix": "hop-mixing weight of the dynamic-graph term",
    "model.gamma_mix": "hop-mixing weight of the static-graph term",
    "model.input_len": "observed steps fed to the encoder (P)",
    "model.output_len": "future steps predicted by the decoder (Q)",
    "model.hypernet": "filter net form: gcn | affine",
    "model.filter_mode": "filter application: hadamard | matmul | frozen",
    "model.share_embeddings": "reuse encoder embeddings in the decoder",
    "model.readout_hidden": "hidden width of the readout (0 = single affine)",
    "train.learning_rate": "optimizer step size",
    "train.batch_size": "samples per optimization step",
    "train.step_size": "iterations between horizon increments",
    "train.ss_decay_tau": "decay steps of the teacher-forcing probability",
    "train.max_epochs": "hard epoch cap",
    "train.patience": "non-improving epochs tolerated before stopping",
    "train.grad_clip_norm": "global gradient-norm ceiling",
    "train.curriculum": "grow the trained horizon on a schedule",
    "train.seed": "training-run seed (batch order, sampling coins)",
    "train.beta1": "first-moment decay of the optimizer",
    "train.beta2": "second-moment decay of the optimizer",
    "train.eps": "optimizer denominator floor",
    "data.speeds": "speed file path (.csv timestamped or .bin)",
    "data.distances": "distance CSV or cached graph .bin",
    "data.zero_as_missing": "treat 0.0 readings as missing",
    "data.split": "split policy: ratio | days",
    "data.train": "train share (fraction, or days when split=days)",
    "data.val": "validation share",
    "data.test": "test share",
    "data.kappa": "drop graph edges with kernel weight below this",
    "data.n_nodes": "gen-data: nodes to synthesize",
    "data.n_days": "gen-data: days to synthesize",
    "data.dt_seconds": "gen-data: seconds between samples",
    "data.congestion_rate": "gen-data: event probability per node-step",
    "data.noise_std": "gen-data: additive noise level",
    "eval.split": "which segment to score: train | val | test",
    "eval.horizons": "horizons to report (filtered to <= output_len)",
    "eval.batch_size": "evaluation batch size",
}


def config_help_text() -> str:
    """Every config key with its default, for --help output."""
    cfg = AppConfig()
    sections = (("model", cfg.model), ("train", cfg.train),
                ("data", cfg.data), ("eval", cfg.eval))
    lines = ["config keys (section.key, default, meaning):"]
    for name, obj in sections:
        for f in fields(obj):
            key = "%s.%s" % (name, f.name)
            default = getattr(obj, f.name)
            help_text = _FIELD_HELP.get(key, "")
            lines.append("  %-24s %-14r %s" % (key, default, help_text))
    lines.append("ablations: " + ", ".join(
        "%s (%s)" % (n, _ABLATIONS[n][0]) for n in ablation_names()))
    return "\n".join(lines)
