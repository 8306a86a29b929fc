"""Experiment configuration: a versioned JSON document mapped to a dataclass.

Exactly one of ``n`` (explicit per-axis qubit count) or ``q_target``
(auto-sizing) must be given.  ``q_target_scope`` says what the target
means: ``"per_link"`` is the per-link estimation success probability,
``"overall"`` converts through the headline exponent m^2 (one full
exchange generation), and ``"overall_strict"`` through the conservative
exponent m^2 * (t+1), i.e. every link of every phase must succeed.

The module imports only the standard library, so validating and sizing a
config loads no numpy.  It holds the estimator's Hoeffding-based
calculators, and :data:`STRATEGY_PARAMS`, each adversary strategy's
keyword parameters with their checks, which ``validate`` and
``adversaries.make_adversary`` both apply.
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

#: Consistency holds when the correct outputs lie within this many delta_eff.
CONSISTENCY_FACTOR = 30.0


def success_exponent(scope: str, m: int, t=None) -> int:
    """1, m^2 or m^2 (t+1) by scope; ``t`` is read only by ``overall_strict``."""
    return _EXPONENTS[scope](m, t)


def ted_accuracy_bound(delta: float, epsilon: float) -> float:
    """Estimation accuracy over a depolarizing channel: (1-eps)*delta + 5 eps/2."""
    return (1.0 - epsilon) * delta + 2.5 * epsilon


def ted_success_bound(n: int, delta: float) -> float:
    """Lower bound on the estimation success probability.

    Three Hoeffding events (one per axis), each of probability at least
    1 - 2 exp(-2 n delta^2 / 25); the cube is clamped below at zero where
    the bound collapses.
    """
    base = 1.0 - 2.0 * math.exp(-2.0 * n * delta * delta / 25.0)
    return max(0.0, base) ** 3


def required_qubits(delta: float, q_target: float) -> int:
    """Smallest per-axis n with ted_success_bound(n, delta) >= q_target.

    Closed form: n = ceil(25 / (2 delta^2) * ln(2 / (1 - q_target^(1/3)))),
    nudged by +-1 afterwards to absorb floating-point rounding of the ceil.
    """
    if not 0.0 < q_target < 1.0:
        raise ValueError(f"q_target must be in (0, 1), got {q_target}")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    n = math.ceil(25.0 / (2.0 * delta * delta) * math.log(2.0 / (1.0 - q_target ** (1.0 / 3.0))))
    n = max(1, n)
    while ted_success_bound(n, delta) < q_target:
        n += 1
    while n > 1 and ted_success_bound(n - 1, delta) >= q_target:
        n -= 1
    return n


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 2."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A Python int (not a bool) or a finite float."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _or_none(check):
    return lambda value: value is None or check(value)


def _is_str(value) -> bool:
    return isinstance(value, str)


#: strategy name -> {keyword parameter: (check, what it must be)}; the
#: defaults live in the strategies' constructors.
STRATEGY_PARAMS = {
    "crash": {},
    "equivocator": {
        "separation": (lambda v: _is_number(v) and 0.0 <= v <= 2.0, "a chord in [0, 2]"),
    },
    "grade-poisoner": {},
    "honest-shadow": {},
    "random-noise": {},
    "rusher": {"shift": (_is_number, "a finite number of radians")},
}


def check_strategy_params(name: str, params: dict) -> None:
    """Raise ConfigError unless strategy ``name`` takes ``params`` as they are."""
    checks = STRATEGY_PARAMS[name]
    for key, value in params.items():
        if key not in checks:
            raise ConfigError(f"adversary {name!r} takes no parameter {key!r}")
        check, what = checks[key]
        if not check(value):
            raise ConfigError(f"adversary {name!r}: {key} must be {what}, got {value!r}")


#: field -> (type check, what the field must be).  Checked before any value
#: check, so a JSON document of the wrong types fails as a ConfigError.
_FIELD_TYPES = {
    "m": (_is_int, "an integer"),
    "t": (_is_int, "an integer"),
    "delta": (_is_number, "a finite number"),
    "epsilon": (_is_number, "a finite number"),
    "n": (_or_none(_is_int), "an integer or null"),
    "q_target": (_or_none(_is_number), "a finite number or null"),
    "q_target_scope": (_is_str, "a string"),
    "adversary": (_is_str, "a string"),
    "adversary_params": (lambda v: isinstance(v, dict), "an object"),
    "faulty_ids": (
        _or_none(lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
        "a list of integers or null",
    ),
    "trials": (_is_int, "an integer"),
    "master_seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2**64)"),
    "out_dir": (_or_none(_is_str), "a string or null"),
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
        try:
            n = self.resolved_n()
        except (OverflowError, ZeroDivisionError):  # sizing at a delta past the float range
            n = math.inf
        if n > 2**63 - 1:  # Generator.binomial takes n as an int64
            raise ConfigError(f"n must be at most 2**63 - 1, the binomial draws' limit; got {n}")
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
        if self.adversary not in STRATEGY_PARAMS:
            raise ConfigError(
                f"unknown adversary {self.adversary!r}; known: {sorted(STRATEGY_PARAMS)}"
            )
        check_strategy_params(self.adversary, self.adversary_params)

    def per_link_target(self) -> Optional[float]:
        if self.q_target is None:
            return None
        return self.q_target ** (1.0 / success_exponent(self.q_target_scope, self.m, self.t))

    def resolved_n(self) -> int:
        if self.n is not None:
            return self.n
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
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return ExperimentConfig.from_dict(data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
