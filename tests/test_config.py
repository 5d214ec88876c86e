"""Every config key of the README parses and lands in each of its fields."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import signalshift as ss

README = Path(__file__).resolve().parents[1] / "README.md"

# key -> (override lines, [(section, field, expected value)]); every value
# differs from its default, so a key that lands nowhere is caught
CASES = {
    "n_movements": ("n_movements=4\nphases=0+2;1+3", [("intersection", "n_movements", 4)]),
    "phases": ("phases=1+5;0+4;2+6;3+7",
               [("intersection", "phases", ((1, 5), (0, 4), (2, 6), (3, 7)))]),
    "saturation_rate": ("saturation_rate=0.4", [("intersection", "saturation_rate", 0.4)]),
    "approach_time": ("approach_time=15", [("intersection", "approach_time", 15.0)]),
    "lost_time": ("lost_time=2", [("intersection", "lost_time", 2.0)]),
    "decision_interval": ("decision_interval=5",
                          [("intersection", "decision_interval", 5.0)]),
    "tick": ("tick=0.5", [("intersection", "tick", 0.5)]),
    "horizon": ("horizon=1800", [("intersection", "horizon", 1800.0)]),
    "drain": ("drain=300", [("intersection", "drain", 300.0)]),
    "gamma": ("gamma=0.9", [("dqn", "gamma", 0.9), ("meta", "gamma", 0.9)]),
    "batch_size": ("batch_size=16", [("dqn", "batch_size", 16), ("meta", "batch_size", 16)]),
    "replay_capacity": ("replay_capacity=500",
                        [("dqn", "capacity", 500), ("meta", "capacity", 500)]),
    "grad_clip": ("grad_clip=2.5", [("dqn", "grad_clip", 2.5), ("meta", "grad_clip", 2.5)]),
    "lr": ("lr=0.01", [("dqn", "lr", 0.01)]),
    "epsilon_start": ("epsilon_start=0.7", [("dqn", "epsilon_start", 0.7)]),
    "epsilon_end": ("epsilon_end=0.1", [("dqn", "epsilon_end", 0.1)]),
    "epsilon_fraction": ("epsilon_fraction=0.5", [("dqn", "epsilon_fraction", 0.5)]),
    "episodes": ("episodes=7", [("dqn", "episodes", 7)]),
    "target_sync": ("target_sync=50", [("dqn", "target_sync", 50)]),
    "alpha": ("alpha=0.002", [("meta", "alpha", 0.002)]),
    "beta": ("beta=0.003", [("meta", "beta", 0.003)]),
    "task_batch": ("task_batch=2", [("meta", "task_batch", 2)]),
    "meta_iterations": ("meta_iterations=9", [("meta", "meta_iterations", 9)]),
    "adapt_steps": ("adapt_steps=4", [("meta", "adapt_steps", 4)]),
    "adapt_data_budget": ("adapt_data_budget=2", [("meta", "adapt_data_budget", 2)]),
    "rollout_epsilon": ("rollout_epsilon=0.2", [("meta", "rollout_epsilon", 0.2)]),
    "embed_dim": ("embed_dim=8", [("network", "embed_dim", 8)]),
    "compete_dim": ("compete_dim=12", [("network", "compete_dim", 12)]),
    "kl_epsilon": ("kl_epsilon=1e-5", [("metrics", "kl_epsilon", 1e-5)]),
}


def readme_keys() -> set[str]:
    """The backquoted key names in the README's config-override table."""
    text = README.read_text()
    table = text[text.index("| group"):].split("\n\n")[0]
    return {key for row in table.splitlines()[2:]
            for key in re.findall(r"`([a-z_]+)`", row.split("|")[2])}


def field_value(settings: ss.Settings, section: str, field: str):
    if section == "network":
        return dict(zip(("embed_dim", "compete_dim"), settings.dims))[field]
    if section == "metrics":
        return getattr(settings, field)
    return getattr(getattr(settings, section), field)


def test_the_accepted_keys_are_the_cases_and_the_readme_rows():
    # the keys follow the settings records' fields, so a new field is a new
    # key: it needs a case above and a README row
    assert set(ss.config.KEY_PARSERS) == set(CASES) == readme_keys()


def test_seed_in_a_config_file_is_an_unknown_key_at_its_line(tmp_path):
    # the seed comes from --seed and the manifest, never from the config
    path = tmp_path / "config.txt"
    path.write_text("gamma=0.9\nseed=3\n")
    with pytest.raises(ss.ParseError, match=r"config\.txt:2: unknown key 'seed'"):
        ss.load_settings(path)


@pytest.mark.parametrize("key", ["embed_dim", "compete_dim"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_file_with_a_non_positive_network_dim_is_rejected(tmp_path, key, value):
    path = tmp_path / "config.txt"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ValueError, match=f"^{key} must be positive$"):
        ss.load_settings(path)


@pytest.mark.parametrize("key", sorted(CASES))
def test_key_lands_in_each_field(key, tmp_path):
    lines, expected = CASES[key]
    path = tmp_path / "config.txt"
    path.write_text(lines + "\n")
    settings = ss.load_settings(path)
    for section, field, value in expected:
        got = field_value(settings, section, field)
        assert got == value and type(got) is type(value), (section, field, got)


def test_line_without_equals_names_its_line(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("# tuned\ngamma=0.9\nlr 0.01\n")
    with pytest.raises(ValueError, match=r"config\.txt:3: expected key=value, got 'lr 0.01'"):
        ss.load_settings(path)


@pytest.mark.parametrize("line,message", [
    ("episodes=abc", r"episodes: invalid literal for int\(\) with base 10: 'abc'"),
    ("lr=fast", r"lr: could not convert string to float: 'fast'"),
    ("phases=0+4;x", r"phases: cannot parse phases spec '0\+4;x'"),
], ids=["int", "float", "phases"])
def test_value_that_does_not_parse_names_its_line(tmp_path, line, message):
    # each once raised a bare conversion error without file or line
    path = tmp_path / "config.txt"
    path.write_text(f"# tuned\ngamma=0.9\n{line}\n")
    with pytest.raises(ss.ParseError, match=rf"config\.txt:3: {message}"):
        ss.load_settings(path)


# every float field of the three settings dataclasses, NaN and infinite
FLOAT_FIELDS = [(cls, f.name) for cls in (ss.IntersectionConfig, ss.DqnHyper, ss.MetaHyper)
                for f in fields(cls) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_non_finite_float_field_is_rejected(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


def test_non_finite_cases_include_the_fields_that_went_unchecked():
    names = {(cls.__name__, name) for cls, name in FLOAT_FIELDS}
    assert {("IntersectionConfig", "lost_time"), ("IntersectionConfig", "horizon"),
            ("DqnHyper", "lr"), ("DqnHyper", "grad_clip"), ("MetaHyper", "alpha"),
            ("MetaHyper", "beta"), ("MetaHyper", "grad_clip")} <= names


def test_config_file_with_a_nan_value_is_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("lost_time=nan\n")
    with pytest.raises(ValueError, match="lost_time must be finite"):
        ss.load_settings(path)


@pytest.mark.parametrize("value,message", [("nan", "kl_epsilon must be finite"),
                                           ("inf", "kl_epsilon must be finite"),
                                           ("-1e-6", "kl_epsilon must be non-negative")])
def test_config_file_with_a_bad_kl_epsilon_is_rejected(tmp_path, value, message):
    path = tmp_path / "config.txt"
    path.write_text(f"kl_epsilon={value}\n")
    with pytest.raises(ValueError, match=message):
        ss.load_settings(path)


def test_kl_epsilon_of_zero_loads(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("kl_epsilon=0\n")
    assert ss.load_settings(path).kl_epsilon == 0.0


# one value per range-checked field, each just outside its range
RANGE_CASES = [
    (ss.DqnHyper, "gamma", 1.0), (ss.DqnHyper, "gamma", -0.1),
    (ss.DqnHyper, "epsilon_start", 1.1), (ss.DqnHyper, "epsilon_end", -0.1),
    (ss.DqnHyper, "epsilon_fraction", 1.1), (ss.DqnHyper, "batch_size", 0),
    (ss.DqnHyper, "target_sync", 0), (ss.DqnHyper, "capacity", 0),
    (ss.DqnHyper, "episodes", -1), (ss.DqnHyper, "lr", -1e-3),
    (ss.MetaHyper, "alpha", -1e-3), (ss.MetaHyper, "beta", -1e-3),
    (ss.MetaHyper, "task_batch", 0), (ss.MetaHyper, "adapt_steps", 0),
    (ss.MetaHyper, "adapt_data_budget", 0), (ss.MetaHyper, "batch_size", 0),
    (ss.MetaHyper, "capacity", 0), (ss.MetaHyper, "meta_iterations", -1),
    (ss.MetaHyper, "rollout_epsilon", 1.1), (ss.MetaHyper, "rollout_epsilon", -0.1),
    (ss.MetaHyper, "gamma", 1.0), (ss.MetaHyper, "gamma", -0.1),
]


@pytest.mark.parametrize("cls,name,value", RANGE_CASES,
                         ids=[f"{cls.__name__}.{name}={value}" for cls, name, value in RANGE_CASES])
def test_out_of_range_hyperparameter_is_rejected(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must"):
        cls(**{name: value})


@pytest.mark.parametrize("settings,message", [
    ({"batch_size": 0}, "batch_size must be positive"),
    ({"capacity": 0}, "capacity must be positive"),
    ({"gamma": 1.0}, r"gamma must be in \[0, 1\)"),
    ({"capacity": 16}, r"replay_capacity \(16\) must be at least batch_size \(32\)"),
    ({"grad_clip": math.nan}, "grad_clip must be finite, got nan"),
], ids=["batch_size", "capacity", "gamma", "capacity-below-batch", "grad_clip-nan"])
def test_both_hypers_refuse_a_shared_setting_with_one_message(settings, message):
    # the settings every TD learner reads: once MetaHyper said ">= 1" where
    # DqnHyper said "must be positive"
    for cls in (ss.DqnHyper, ss.MetaHyper):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**settings)


@pytest.mark.parametrize("cls", [ss.DqnHyper, ss.MetaHyper])
def test_replay_capacity_below_the_batch_is_rejected(cls):
    with pytest.raises(ValueError, match=r"^replay_capacity \(31\) must be at least "
                                         r"batch_size \(32\)$"):
        cls(capacity=31, batch_size=32)
    assert cls(capacity=32, batch_size=32).capacity == 32


def test_range_cases_cover_every_checked_field():
    # every field but the unchecked grad_clip (<= 0 disables the clip) and seed
    for cls in (ss.DqnHyper, ss.MetaHyper):
        checked = {name for case, name, _ in RANGE_CASES if case is cls}
        assert checked == {f.name for f in fields(cls)} - {"grad_clip", "seed"}
