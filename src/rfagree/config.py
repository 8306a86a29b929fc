"""Experiment configuration: a versioned JSON document mapped to a dataclass.

Exactly one of ``n`` (explicit per-axis qubit count) or ``q_target``
(auto-sizing) must be given.  ``q_target_scope`` says what the target
means: ``"per_link"`` is the per-link estimation success probability,
``"overall"`` converts through the headline exponent m^2 (one full
exchange generation), and ``"overall_strict"`` through the conservative
exponent m^2 * (t+1), i.e. every link of every phase must succeed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

CONFIG_VERSION = 1

#: q_target_scope -> how many per-link successes one success at that scope takes.
_EXPONENTS = {
    "per_link": lambda m, t: 1,
    "overall": lambda m, t: m * m,
    "overall_strict": lambda m, t: m * m * (t + 1),
}
_SCOPES = tuple(_EXPONENTS)


def success_exponent(scope: str, m: int, t=None) -> int:
    """1, m^2 or m^2 (t+1) by scope; ``t`` is read only by ``overall_strict``."""
    return _EXPONENTS[scope](m, t)


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 2."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A Python int (not a bool) or a finite float."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _or_none(check):
    return lambda value: value is None or check(value)


#: field -> (type check, what the field must be).  Checked before any value
#: check, so a JSON document of the wrong types fails as a ConfigError.
_FIELD_TYPES = {
    "m": (_is_int, "an integer"),
    "t": (_is_int, "an integer"),
    "delta": (_is_number, "a finite number"),
    "epsilon": (_is_number, "a finite number"),
    "n": (_or_none(_is_int), "an integer or null"),
    "q_target": (_or_none(_is_number), "a finite number or null"),
    "adversary_params": (lambda v: isinstance(v, dict), "an object"),
    "faulty_ids": (
        _or_none(lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
        "a list of integers or null",
    ),
    "trials": (_is_int, "an integer"),
    "master_seed": (_is_int, "an integer"),
    "out_dir": (_or_none(lambda v: isinstance(v, str)), "a string or null"),
    "write_transcript": (lambda v: isinstance(v, bool), "true or false"),
    "jobs": (_is_int, "an integer"),
    "config_version": (_is_int, "an integer"),
}


@dataclass
class ExperimentConfig:
    m: int
    t: int
    delta: float
    epsilon: float = 0.0
    n: Optional[int] = None
    q_target: Optional[float] = None
    q_target_scope: str = "per_link"
    adversary: str = "honest-shadow"
    adversary_params: dict = field(default_factory=dict)
    faulty_ids: Optional[tuple] = None
    trials: int = 1
    master_seed: int = 0
    out_dir: Optional[str] = None
    write_transcript: bool = False
    jobs: int = 1
    config_version: int = CONFIG_VERSION

    def validate(self) -> None:
        for name, (check, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not check(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(
                f"config_version {self.config_version} unsupported (expected {CONFIG_VERSION})"
            )
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        if self.t < 0 or 3 * self.t >= self.m:
            raise ConfigError(f"fault bound must satisfy t < m/3, got m={self.m}, t={self.t}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if (self.n is None) == (self.q_target is None):
            raise ConfigError("exactly one of n / q_target must be set")
        if self.n is not None and self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.q_target is not None and not 0.0 < self.q_target < 1.0:
            raise ConfigError(f"q_target must be in (0, 1), got {self.q_target}")
        if self.q_target_scope not in _SCOPES:
            raise ConfigError(f"q_target_scope must be one of {_SCOPES}")
        if self.q_target is not None and not self.per_link_target() < 1.0:
            raise ConfigError(
                f"q_target {self.q_target!r} at scope {self.q_target_scope!r} rounds to "
                "a per-link target of 1.0, which no n reaches"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.faulty_ids is not None:
            ids = tuple(self.faulty_ids)
            if len(set(ids)) != len(ids):
                raise ConfigError("faulty_ids contains duplicates")
            if any(not 0 <= i < self.m for i in ids):
                raise ConfigError(f"faulty_ids outside [0, {self.m})")
            if len(ids) > self.t:
                raise ConfigError(f"{len(ids)} faulty ids exceeds fault bound t={self.t}")
        from .adversaries import make_adversary, strategy_catalog
        from .quantum_link import ChannelParams
        from .rf_protocols import ProtocolParams

        if self.adversary not in strategy_catalog():
            raise ConfigError(
                f"unknown adversary {self.adversary!r}; known: {strategy_catalog()}"
            )
        # Build the strategy once, so that parameters it rejects fail here
        # and not in the first trial.
        params = ProtocolParams(
            self.m, self.t, self.delta, ChannelParams(self.epsilon, self.resolved_n())
        )
        try:
            make_adversary(
                self.adversary, self.resolved_faulty_ids(), params, **self.adversary_params
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"adversary {self.adversary!r} rejects adversary_params "
                f"{self.adversary_params!r}: {exc}"
            ) from exc

    def per_link_target(self) -> Optional[float]:
        if self.q_target is None:
            return None
        return self.q_target ** (1.0 / success_exponent(self.q_target_scope, self.m, self.t))

    def resolved_n(self) -> int:
        if self.n is not None:
            return self.n
        from .quantum_link import required_qubits

        return required_qubits(self.delta, self.per_link_target())

    def resolved_faulty_ids(self) -> tuple:
        if self.faulty_ids is not None:
            return tuple(self.faulty_ids)
        # Default: corrupt the first t nodes, i.e. the first t kings, which
        # forces the protocol through its faulty-king phases.
        return tuple(range(self.t))

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["faulty_ids"] is not None:
            d["faulty_ids"] = list(d["faulty_ids"])
        return d

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = ExperimentConfig(**data)
        cfg.validate()
        if cfg.faulty_ids is not None:
            cfg.faulty_ids = tuple(cfg.faulty_ids)
        return cfg

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return ExperimentConfig.from_dict(data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
