from dataclasses import asdict

import pytest

from dgcrn.config import (
    AppConfig,
    ablation_names,
    apply_ablation,
    config_help_text,
    load_config,
)
from dgcrn.errors import ConfigError


def write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_defaults_round_trip():
    cfg = AppConfig()
    snap = asdict(cfg)
    assert snap["model"]["hidden"] == 64
    assert snap["train"]["learning_rate"] == 0.001
    assert snap["data"]["split"] == "ratio"
    assert snap["eval"]["horizons"] == [3, 6, 12]
    cfg.validate()


def test_load_missing_path_uses_defaults():
    cfg = load_config(None)
    assert asdict(cfg) == asdict(AppConfig())


def test_load_overrides(tmp_path):
    path = write(
        tmp_path,
        """
model:
  hidden: 16
  hops: 1
train:
  learning_rate: 0.01
  curriculum: false
data:
  split: days
  train: 14
  val: 2
  test: 4
eval:
  horizons: [3]
""",
    )
    cfg = load_config(path)
    assert cfg.model.hidden == 16
    assert cfg.model.hops == 1
    assert cfg.train.learning_rate == 0.01
    assert cfg.train.curriculum is False
    assert cfg.data.split == "days"
    assert cfg.data.train == 14.0
    assert cfg.eval.horizons == [3]
    # untouched keys keep their defaults
    assert cfg.model.emb_dim == 40
    assert cfg.train.batch_size == 64


def test_empty_file_is_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert asdict(cfg) == asdict(AppConfig())


def test_empty_section_allowed(tmp_path):
    cfg = load_config(write(tmp_path, "model:\n"))
    assert cfg.model.hidden == 64


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="optimizer"):
        load_config(write(tmp_path, "optimizer:\n  lr: 0.1\n"))


def test_unknown_key_rejected_with_name(tmp_path):
    with pytest.raises(ConfigError, match=r"model\.hiden"):
        load_config(write(tmp_path, "model:\n  hiden: 3\n"))


def test_type_errors(tmp_path):
    with pytest.raises(ConfigError, match=r"model\.hidden"):
        load_config(write(tmp_path, "model:\n  hidden: wide\n"))
    with pytest.raises(ConfigError, match=r"train\.curriculum"):
        load_config(write(tmp_path, "train:\n  curriculum: 1\n"))
    # bool is not an acceptable integer
    with pytest.raises(ConfigError, match=r"model\.hops"):
        load_config(write(tmp_path, "model:\n  hops: true\n"))
    with pytest.raises(ConfigError, match=r"eval\.horizons"):
        load_config(write(tmp_path, "eval:\n  horizons: [1, two]\n"))


def test_int_promotes_to_float(tmp_path):
    cfg = load_config(write(tmp_path, "train:\n  learning_rate: 1\n"))
    assert cfg.train.learning_rate == 1.0
    assert isinstance(cfg.train.learning_rate, float)


def test_non_mapping_top_level(tmp_path):
    with pytest.raises(ConfigError, match="mapping"):
        load_config(write(tmp_path, "- a\n- b\n"))


def test_malformed_yaml(tmp_path):
    with pytest.raises(ConfigError, match="syntax"):
        load_config(write(tmp_path, "model: [unclosed\n"))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/cfg.yaml")


def test_ablations_change_one_switch():
    cases = {
        "w/o-dg": lambda c: c.model.beta_mix == 0.0,
        "w/o-preA": lambda c: c.model.gamma_mix == 0.0,
        "w/o-hypernet": lambda c: c.model.hypernet == "affine",
        "dg2sg": lambda c: c.model.filter_mode == "frozen",
        "mul2matmul": lambda c: c.model.filter_mode == "matmul",
        "w/o-cl": lambda c: c.train.curriculum is False,
    }
    assert sorted(cases) == ablation_names()
    for name, check in cases.items():
        cfg = apply_ablation(AppConfig(), name)
        assert check(cfg), name
        cfg.validate()


def test_unknown_ablation_lists_names():
    with pytest.raises(ConfigError, match="w/o-dg"):
        apply_ablation(AppConfig(), "w/o-everything")


def test_validate_rejects_bad_values():
    cases = [
        ("data", "split", "sideways", r"data\.split"),
        ("data", "kappa", 1.5, "kappa"),
        # build_adjacency trusts kappa in (0, 1); graphs and models need 2 nodes
        ("data", "kappa", 0.0, "kappa"),
        ("data", "n_nodes", 1, "n_nodes"),
        # synth_generate and split trust these; this is their only check
        ("data", "congestion_rate", 1.0, r"data\.congestion_rate"),
        ("data", "n_days", 0, r"data\.n_days"),
        ("data", "val", -1.0, r"data\.val must be positive"),
        ("eval", "split", "dev", r"eval\.split"),
        ("eval", "horizons", [0], "horizons"),
        # Adam trusts these; validation must catch them before data loads
        ("train", "beta1", 1.0, "betas"),
        ("train", "beta2", -0.1, "betas"),
        ("train", "eps", 0.0, "eps"),
    ]
    for section, key, value, match in cases:
        cfg = AppConfig()
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()


def test_day_split_needs_whole_days():
    # data.split truncates day counts, so a fractional one must fail here
    for name in ("train", "val", "test"):
        cfg = AppConfig()
        cfg.data.split = "days"
        cfg.data.train, cfg.data.val, cfg.data.test = 14.0, 2, 4
        setattr(cfg.data, name, 2.5)
        with pytest.raises(ConfigError, match=r"data\.%s must be a whole number of days" % name):
            cfg.validate()
        setattr(cfg.data, name, float("inf"))
        with pytest.raises(ConfigError, match=r"data\.%s must be a whole" % name):
            cfg.validate()
        setattr(cfg.data, name, 3.0)
        cfg.validate()
    cfg = AppConfig()  # ratio shares are fractions
    assert cfg.data.split == "ratio" and not float(cfg.data.train).is_integer()
    cfg.validate()


# every float range check, with the key its message names
@pytest.mark.parametrize("section, key", [
    ("model", "alpha_sat"), ("train", "learning_rate"), ("train", "grad_clip_norm"),
    ("train", "ss_decay_tau"), ("train", "eps"), ("data", "noise_std"),
    ("data", "train"), ("data", "val"), ("data", "test"),
])
def test_nan_fails_validation(tmp_path, section, key):
    cfg = load_config(write(tmp_path, "%s:\n  %s: .nan\n" % (section, key)))
    value = getattr(getattr(cfg, section), key)
    assert value != value  # loaded as NaN
    with pytest.raises(ConfigError, match=r"\b%s must" % key):
        cfg.validate()


def test_help_lists_every_key():
    text = config_help_text()
    from dataclasses import fields

    cfg = AppConfig()
    for section, obj in (("model", cfg.model), ("train", cfg.train),
                         ("data", cfg.data), ("eval", cfg.eval)):
        for f in fields(obj):
            assert "%s.%s" % (section, f.name) in text
    for name in ablation_names():
        assert name in text
