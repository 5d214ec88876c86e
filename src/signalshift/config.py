"""Hyperparameter defaults and the optional key=value override file.

One flat file can override any default used by the CLI and the experiment
harness.  Recognized keys (all optional):

  intersection : n_movements, phases (e.g. "0+4;1+5;2+6;3+7"),
                 saturation_rate, approach_time, lost_time,
                 decision_interval, tick, horizon, drain
  dqn and meta : gamma, batch_size, replay_capacity, grad_clip (each key
                 sets the field of both)
  dqn          : lr, epsilon_start, epsilon_end, epsilon_fraction, episodes,
                 target_sync
  meta         : alpha, beta, task_batch, meta_iterations, adapt_steps,
                 adapt_data_budget, rollout_epsilon
  network      : embed_dim, compete_dim
  metrics      : kl_epsilon
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .dqn import DqnHyper
from .intersection import IntersectionConfig, check_finite_fields
from .meta import MetaHyper
from .metrics import DEFAULT_KL_EPSILON
from .network import DEFAULT_COMPETE_DIM, DEFAULT_EMBED_DIM
from .scenarios import parse_value, read_key_values


def _parse_phases(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(tuple(int(m) for m in group.split("+"))
                     for group in text.split(";") if group)
    except ValueError as exc:
        raise ValueError(f"cannot parse phases spec {text!r}") from exc


_SHARED = ("dqn", "meta")

# config key -> (parser, the (section, field) pairs it sets).  Sections
# "intersection", "dqn" and "meta" are the fields of IntersectionConfig,
# DqnHyper and MetaHyper; "network" and "metrics" feed Settings.
_KEYS = {
    "n_movements": (int, [("intersection", "n_movements")]),
    "phases": (_parse_phases, [("intersection", "phases")]),
    "saturation_rate": (float, [("intersection", "saturation_rate")]),
    "approach_time": (float, [("intersection", "approach_time")]),
    "lost_time": (float, [("intersection", "lost_time")]),
    "decision_interval": (float, [("intersection", "decision_interval")]),
    "tick": (float, [("intersection", "tick")]),
    "horizon": (float, [("intersection", "horizon")]),
    "drain": (float, [("intersection", "drain")]),
    "gamma": (float, [(s, "gamma") for s in _SHARED]),
    "batch_size": (int, [(s, "batch_size") for s in _SHARED]),
    "replay_capacity": (int, [(s, "capacity") for s in _SHARED]),
    "grad_clip": (float, [(s, "grad_clip") for s in _SHARED]),
    "lr": (float, [("dqn", "lr")]),
    "epsilon_start": (float, [("dqn", "epsilon_start")]),
    "epsilon_end": (float, [("dqn", "epsilon_end")]),
    "epsilon_fraction": (float, [("dqn", "epsilon_fraction")]),
    "episodes": (int, [("dqn", "episodes")]),
    "target_sync": (int, [("dqn", "target_sync")]),
    "alpha": (float, [("meta", "alpha")]),
    "beta": (float, [("meta", "beta")]),
    "task_batch": (int, [("meta", "task_batch")]),
    "meta_iterations": (int, [("meta", "meta_iterations")]),
    "adapt_steps": (int, [("meta", "adapt_steps")]),
    "adapt_data_budget": (int, [("meta", "adapt_data_budget")]),
    "rollout_epsilon": (float, [("meta", "rollout_epsilon")]),
    "embed_dim": (int, [("network", "embed_dim")]),
    "compete_dim": (int, [("network", "compete_dim")]),
    "kl_epsilon": (float, [("metrics", "kl_epsilon")]),
}


@dataclass
class Settings:
    intersection: IntersectionConfig
    dqn: DqnHyper
    meta: MetaHyper
    dims: tuple[int, int] = (DEFAULT_EMBED_DIM, DEFAULT_COMPETE_DIM)
    kl_epsilon: float = DEFAULT_KL_EPSILON

    def __post_init__(self):
        check_finite_fields(self)
        if self.kl_epsilon < 0:
            raise ValueError("kl_epsilon must be non-negative")


def read_overrides(path) -> dict:
    """Parse a key=value override file, rejecting unknown keys."""
    lines = Path(path).read_text().splitlines()
    overrides = read_key_values(lines, path)
    for key in overrides:
        if key not in _KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
    return {key: parse_value(overrides, key, _KEYS[key][0], lines, path) for key in overrides}


def load_settings(path=None, seed: int | None = None) -> Settings:
    """Defaults, overridden by the config file, then by the seed flag."""
    sections: dict[str, dict] = {"intersection": {}, "dqn": {}, "meta": {},
                                 "network": {}, "metrics": {}}
    for key, value in (read_overrides(path) if path else {}).items():
        for section, field in _KEYS[key][1]:
            sections[section][field] = value
    intersection = IntersectionConfig(**sections["intersection"])
    dqn = DqnHyper(**sections["dqn"])
    meta = MetaHyper(**sections["meta"])
    network = sections["network"]
    dims = (network.get("embed_dim", DEFAULT_EMBED_DIM),
            network.get("compete_dim", DEFAULT_COMPETE_DIM))
    kl_epsilon = sections["metrics"].get("kl_epsilon", DEFAULT_KL_EPSILON)

    if seed is not None:
        dqn = replace(dqn, seed=int(seed))
        meta = replace(meta, seed=int(seed))
    return Settings(intersection, dqn, meta, dims, kl_epsilon)
