"""Hyperparameter defaults and the optional key=value override file.

One flat file can override any default used by the CLI and the experiment
harness.  Every key is optional, and the keys follow one rule:

  - a key is the name of a field of IntersectionConfig, DqnHyper or
    MetaHyper, and sets that field in every record that has it (so `gamma`,
    `batch_size`, `replay_capacity` and `grad_clip` set both hypers);
  - a value parses as the type of the field's default.

The exceptions: the `capacity` field is keyed `replay_capacity`; `phases`
reads as e.g. "0+4;1+5;2+6;3+7"; `seed` is no key, since it comes from
`--seed` and the manifest; and Settings adds `embed_dim`, `compete_dim`
(ints) and `kl_epsilon` (a float).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .dqn import DqnHyper
from .intersection import IntersectionConfig, check_finite_fields
from .meta import MetaHyper
from .metrics import DEFAULT_KL_EPSILON
from .network import DEFAULT_COMPETE_DIM, DEFAULT_EMBED_DIM
from .scenarios import read_known_keys


def _parse_phases(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(tuple(int(m) for m in group.split("+"))
                     for group in text.split(";") if group)
    except ValueError as exc:
        raise ValueError(f"cannot parse phases spec {text!r}") from exc


_RECORDS = (IntersectionConfig, DqnHyper, MetaHyper)


def config_key(field: str) -> str:
    return "replay_capacity" if field == "capacity" else field


# config key -> the parser of its value
KEY_PARSERS = {config_key(f.name): _parse_phases if f.name == "phases" else type(f.default)
               for record in _RECORDS for f in fields(record) if f.name != "seed"}
KEY_PARSERS.update(embed_dim=int, compete_dim=int, kl_epsilon=float)


@dataclass
class Settings:
    intersection: IntersectionConfig
    dqn: DqnHyper
    meta: MetaHyper
    dims: tuple[int, int] = (DEFAULT_EMBED_DIM, DEFAULT_COMPETE_DIM)
    kl_epsilon: float = DEFAULT_KL_EPSILON

    def __post_init__(self):
        check_finite_fields(self)
        for name, dim in zip(("embed_dim", "compete_dim"), self.dims):
            if dim <= 0:
                raise ValueError(f"{name} must be positive")
        if self.kl_epsilon < 0:
            raise ValueError("kl_epsilon must be non-negative")


def load_settings(path=None, seed: int | None = None) -> Settings:
    """Defaults, overridden by the config file, then by the seed flag."""
    kv = read_known_keys(Path(path).read_text().splitlines(), path, KEY_PARSERS) \
        if path else {}
    if seed is not None:
        kv["seed"] = int(seed)
    records = (record(**{f.name: kv[config_key(f.name)] for f in fields(record)
                         if config_key(f.name) in kv}) for record in _RECORDS)
    return Settings(*records,
                    (kv.get("embed_dim", DEFAULT_EMBED_DIM),
                     kv.get("compete_dim", DEFAULT_COMPETE_DIM)),
                    kv.get("kl_epsilon", DEFAULT_KL_EPSILON))
