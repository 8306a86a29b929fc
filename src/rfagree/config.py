"""Experiment configuration: a versioned JSON document mapped to a plain class.

Exactly one of ``n`` (explicit per-axis qubit count) or ``q_target``
(auto-sizing) must be given.  ``q_target_scope`` says what the target
means: ``"per_link"`` is the per-link estimation success probability,
``"overall"`` converts through the headline exponent m^2 (one full
exchange generation), and ``"overall_strict"`` through the conservative
exponent m^2 * (t+1), i.e. every link of every phase must succeed.

The module imports only the standard library, so validating and sizing a
config loads no numpy.  It holds the estimator's Hoeffding-based
calculators; :data:`FIELD_RULES`, the one list of config fields, each with
its default, type and range; :data:`STRATEGY_PARAMS`, each adversary
strategy's keyword parameters with their checks, which ``validate`` and
``adversaries.make_adversary`` both apply; and :func:`cell`, a value as
report.csv and a sweep's run names write it.
"""

from __future__ import annotations

import json
import math

CONFIG_VERSION = 1

#: q_target_scope -> how many per-link successes one success at that scope takes.
_EXPONENTS = {
    "per_link": lambda m, t: 1,
    "overall": lambda m, t: m * m,
    "overall_strict": lambda m, t: m * m * (t + 1),
}

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


#: The default of a field that must be given: m, t and delta.
REQUIRED = object()


def _int_from(low: int, default=REQUIRED):
    """Entry of :data:`FIELD_RULES`: an integer (not a bool) of at least ``low``."""
    return default, (lambda v: _is_int(v) and v >= low), f"an integer >= {low}"


def _one_of(names, default):
    """Entry of :data:`FIELD_RULES`: one of the strings ``names``."""
    return default, (lambda v: isinstance(v, str) and v in names), f"one of {sorted(names)}"


def _or_null(rule):
    """Entry of :data:`FIELD_RULES`: null, the default, or what entry ``rule`` accepts."""
    _, check, what = rule
    return None, (lambda v: v is None or check(v)), f"{what} or null"


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


#: field -> (default, check, what the field must be): the one list of
#: config fields.  A callable default is a factory, called once per config.
#: Each check tests the field's type and range together, so a JSON document
#: of the wrong types fails as a ConfigError.  config_version comes first,
#: so that a config of another version is reported as that.
FIELD_RULES = {
    "config_version": (
        CONFIG_VERSION, lambda v: _is_int(v) and v == CONFIG_VERSION, str(CONFIG_VERSION)
    ),
    "m": _int_from(2),
    "t": _int_from(0),
    "delta": (REQUIRED, lambda v: _is_number(v) and v > 0.0, "a finite number > 0"),
    "epsilon": (0.0, lambda v: _is_number(v) and 0.0 <= v <= 1.0, "a number in [0, 1]"),
    "n": _or_null(_int_from(1)),
    "q_target": _or_null((None, lambda v: _is_number(v) and 0.0 < v < 1.0, "a number in (0, 1)")),
    "q_target_scope": _one_of(_EXPONENTS, "per_link"),
    "adversary": _one_of(STRATEGY_PARAMS, "honest-shadow"),
    "adversary_params": (dict, lambda v: isinstance(v, dict), "an object"),
    "faulty_ids": _or_null((
        None,
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)) and len(set(v)) == len(v),
        "a list of distinct integers",
    )),
    "trials": _int_from(1, 1),
    "master_seed": (0, lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2**64)"),
    "out_dir": _or_null((None, lambda v: isinstance(v, str), "a string")),
    "write_transcript": (False, lambda v: isinstance(v, bool), "true or false"),
    "jobs": _int_from(1, 1),
}


#: The bytes of ``json.dumps(value, separators=(",", ":"))``, with the encoder built once.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def cell(value) -> str:
    """``value`` as a report.csv cell or sweep run-name part: a string as is, else compact JSON."""
    return value if isinstance(value, str) else _COMPACT.encode(value)


class ExperimentConfig:
    """The fields of :data:`FIELD_RULES`, by keyword; :meth:`validate` checks their values."""

    def __init__(self, /, **fields):
        unknown = fields.keys() - FIELD_RULES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, (default, _, _) in FIELD_RULES.items():
            if name in fields:
                value = fields[name]
            elif default is REQUIRED:
                raise ConfigError(f"missing config key: {name}")
            else:
                value = default() if callable(default) else default
            setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"ExperimentConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def validate(self) -> None:
        """Check each field alone (:data:`FIELD_RULES`), then the rules that join fields."""
        for name, (_, check, what) in FIELD_RULES.items():
            value = getattr(self, name)
            if not check(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if 3 * self.t >= self.m:
            raise ConfigError(f"fault bound must satisfy t < m/3, got m={self.m}, t={self.t}")
        if (self.n is None) == (self.q_target is None):
            raise ConfigError("exactly one of n / q_target must be set")
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
        ids = self.faulty_ids or ()
        if any(not 0 <= i < self.m for i in ids):
            raise ConfigError(f"faulty_ids outside [0, {self.m})")
        if len(ids) > self.t:
            raise ConfigError(f"{len(ids)} faulty ids exceeds fault bound t={self.t}")
        check_strategy_params(self.adversary, self.adversary_params)

    def per_link_target(self) -> float | None:
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
        d = {name: getattr(self, name) for name in FIELD_RULES}
        d["adversary_params"] = dict(d["adversary_params"])
        if d["faulty_ids"] is not None:
            d["faulty_ids"] = list(d["faulty_ids"])
        return d

    @staticmethod
    def from_dict(data: dict) -> ExperimentConfig:
        cfg = ExperimentConfig(**data)
        cfg.validate()
        if cfg.faulty_ids is not None:
            cfg.faulty_ids = tuple(cfg.faulty_ids)
        return cfg

    @staticmethod
    def load(path) -> ExperimentConfig:
        try:
            with open(path) as fh:
                data = json.load(fh)
        # ValueError covers UnicodeDecodeError, JSONDecodeError and an integer too long to read.
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return ExperimentConfig.from_dict(data)
