"""Every config key of the README parses and lands in each of its fields."""

import re
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


def test_every_readme_key_has_a_case():
    assert readme_keys() == set(CASES)


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
