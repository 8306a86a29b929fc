import numpy as np
import pytest

from rfagree.adversaries import make_adversary, strategy_catalog
from rfagree.quantum_link import ChannelParams
from rfagree.rf_protocols import ProtocolParams, run_rf_consensus

from helpers import random_frame, result_metrics, transcript_signature


def params_for(m, t, n=20000, delta=0.05, epsilon=0.0):
    return ProtocolParams(m, t, delta, ChannelParams(epsilon=epsilon, n=n))


def frames_for(m, seed):
    return [random_frame(np.random.default_rng((seed, node))) for node in range(m)]


def run_with(name, m, t, seed, faulty=None, n=20000, epsilon=0.0, **kwargs):
    params = params_for(m, t, n=n, epsilon=epsilon)
    faulty = tuple(range(t)) if faulty is None else faulty
    adversary = make_adversary(name, faulty, params, **kwargs)
    return run_rf_consensus(params, frames_for(m, seed), faulty, adversary, master_seed=seed)


def test_catalog_contents():
    assert strategy_catalog() == [
        "crash",
        "equivocator",
        "grade-poisoner",
        "honest-shadow",
        "random-noise",
        "rusher",
    ]
    with pytest.raises(ValueError):
        make_adversary("nonexistent", (), params_for(4, 1))


def test_faulty_set_must_respect_bound():
    with pytest.raises(ValueError):
        make_adversary("crash", (0, 1), params_for(4, 1))


@pytest.mark.parametrize("m, t", [(4, 1), (7, 2), (10, 3)])
def test_honest_shadow_transcript_matches_all_honest(m, t):
    # Shadow nodes reuse the per-node streams an honest node would use, so
    # the transcript is bit-identical to a genuinely all-honest run.
    seed = 77
    faulty = tuple(range(t))
    params = params_for(m, t)
    frames = frames_for(m, seed)
    honest = run_rf_consensus(
        params, frames, (), make_adversary("crash", (), params), master_seed=seed
    )
    shadow = run_rf_consensus(
        params,
        frames,
        faulty,
        make_adversary("honest-shadow", faulty, params),
        master_seed=seed,
    )
    assert transcript_signature(honest.transcript) == transcript_signature(shadow.transcript)
    for i in shadow.outputs:
        assert np.array_equal(shadow.outputs[i], honest.outputs[i])


def test_strategies_deterministic_per_seed():
    for name in strategy_catalog():
        kwargs = {"separation": 1.0} if name == "equivocator" else {}
        a = run_with(name, 4, 1, seed=5, faulty=(0,), **kwargs)
        b = run_with(name, 4, 1, seed=5, faulty=(0,), **kwargs)
        assert transcript_signature(a.transcript) == transcript_signature(b.transcript), name


def consistency_disjunction(result):
    metrics = result_metrics(result)
    produced = [v for v in result.outputs.values() if v is not None]
    if not produced:
        return True
    return metrics.termination_ok and (
        metrics.eta_emp is None or metrics.eta_emp <= 30.0 * result.params.delta_eff
    )


@pytest.mark.parametrize("name", ["crash", "random-noise", "grade-poisoner", "rusher"])
def test_strategy_preserves_consistency_disjunction(name):
    for seed in range(10):
        result = run_with(name, 7, 2, seed=300 + seed, faulty=(0, 1))
        assert consistency_disjunction(result), (name, seed)
        assert all(p is not None for p in result.accept_phase.values()) or all(
            v is None for v in result.outputs.values()
        )


@pytest.mark.parametrize("separation", [0.2, 0.5, 1.4, 2.0])
def test_equivocator_angles(separation):
    for seed in range(8):
        result = run_with(
            "equivocator", 7, 2, seed=400 + seed, faulty=(0, 1), separation=separation
        )
        assert consistency_disjunction(result), (separation, seed)


def test_crash_faulty_king_leaves_honest_phases_clean():
    result = run_with("crash", 4, 1, seed=31, faulty=(0,))
    # Phase 0 king crashed: phase decision must be a joint bottom.
    assert all(y == 0 for y in result.phases[0].decisions.values())
    # Phase 1 has an honest king: everyone accepts within delta_eff.
    metrics = result_metrics(result)
    assert metrics.persistency[0]["phase"] == 1
    if metrics.fully_successful:
        assert metrics.persistency_ok


def test_rusher_outlier_excluded_at_large_shift():
    # A rusher echoing at a large angular shift is just an outlier in the
    # estimate exchange; correct nodes agree among themselves regardless.
    result = run_with("rusher", 4, 1, seed=32, faulty=(0,), shift=2.5)
    assert len(set(result.accept_phase.values())) == 1
    metrics = result_metrics(result)
    assert metrics.termination_ok
    if metrics.fully_successful:
        assert metrics.consistency_ok


def test_grade_poisoner_cannot_split_decisions():
    for seed in range(10):
        result = run_with("grade-poisoner", 7, 2, seed=500 + seed, faulty=(0, 1))
        for phase in result.phases:
            assert len(set(phase.decisions.values())) == 1
