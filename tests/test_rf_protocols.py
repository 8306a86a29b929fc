import numpy as np
import pytest

from rfagree import rf_protocols
from rfagree.geometry import distance, random_direction, to_global
from rfagree.quantum_link import ChannelParams
from rfagree.rf_protocols import (
    ProtocolParams,
    graded_consensus,
    run_rf_consensus,
    weak_consensus,
)
from rfagree.adversaries import make_adversary

from helpers import (
    random_frame,
    reference_graded_consensus,
    reference_weak_consensus,
    result_metrics,
)


Z = np.array([0.0, 0.0, 1.0])
FAR = np.array([1.0, 0.0, 0.0])


def small_params(m=4, t=1, delta=0.05, epsilon=0.0, n=20000):
    return ProtocolParams(m, t, delta, ChannelParams(epsilon=epsilon, n=n))


def perturbed(base, chord, rng):
    """A unit vector at the given chord distance from base."""
    from rfagree.geometry import any_orthogonal, rotate_about, angle_from_chord

    axis = any_orthogonal(base)
    return rotate_about(base, axis, angle_from_chord(chord))


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(6, 2, 0.05, ChannelParams(0.0, 10))  # 3t = m
    with pytest.raises(ValueError):
        ProtocolParams(4, 1, -0.1, ChannelParams(0.0, 10))
    p = small_params(epsilon=0.1, delta=0.05)
    assert p.delta_eff == pytest.approx(0.295)


def test_weak_consensus_all_close_keeps_input():
    p = small_params()
    estimates = {j: Z.copy() for j in range(4)}
    out = weak_consensus(Z, estimates, p.m, p.t, p.delta_eff)
    assert out is not None and np.array_equal(out, Z)


def test_weak_consensus_threshold_boundary():
    # m - t - 1 close estimates is one short: output bottom.
    p = small_params()
    estimates = {0: Z, 1: Z, 2: FAR, 3: FAR}
    assert weak_consensus(Z, estimates, p.m, p.t, p.delta_eff) is None


def test_weak_consensus_hand_trace():
    p = small_params()
    estimates = {0: Z, 1: Z, 2: FAR, 3: np.array([0.0, 1.0, 0.0])}
    assert weak_consensus(Z, estimates, p.m, p.t, p.delta_eff) is None
    estimates[2] = Z
    out = weak_consensus(Z, estimates, p.m, p.t, p.delta_eff)
    assert np.array_equal(out, Z)


def test_weak_consensus_inclusive_threshold():
    # Distance exactly 3*delta counts as inside the set.
    p = small_params()
    rng = np.random.default_rng(0)
    edge = perturbed(Z, 3.0 * p.delta_eff - 1e-12, rng)
    estimates = {0: Z, 1: edge, 2: Z, 3: FAR}
    assert weak_consensus(Z, estimates, p.m, p.t, p.delta_eff) is not None


def test_graded_consensus_no_flags_degenerate():
    p = small_params()
    estimates = {j: Z for j in range(4)}
    flags = {j: 0 for j in range(4)}
    v, g = graded_consensus(Z, estimates, flags, 0, p.m, p.t, p.delta_eff)
    assert g == 0
    assert np.array_equal(v, Z)


def test_graded_consensus_hand_trace_three_flagged():
    # Three honest flagged nodes with mutually close estimates and a silent
    # faulty node: the winning cluster has size 3 = m - t, hence grade 1.
    p = small_params()
    rng = np.random.default_rng(1)
    estimates = {
        0: Z,
        1: perturbed(Z, p.delta_eff, rng),
        2: perturbed(Z, 2.0 * p.delta_eff, rng),
        3: FAR,
    }
    flags = {0: 1, 1: 1, 2: 1, 3: 0}
    v, g = graded_consensus(Z, estimates, flags, 1, p.m, p.t, p.delta_eff)
    assert g == 1
    assert np.array_equal(v, Z)  # own flag set: keep own direction


def test_graded_consensus_adopts_largest_cluster_when_unflagged():
    p = small_params()
    target = np.array([0.0, 1.0, 0.0])
    estimates = {0: Z, 1: target, 2: target, 3: target}
    flags = {0: 0, 1: 1, 2: 1, 3: 1}
    v, g = graded_consensus(Z, estimates, flags, 0, p.m, p.t, p.delta_eff)
    assert g == 1
    assert np.array_equal(v, target)


def test_graded_consensus_tie_breaks_to_lowest_id():
    p = small_params()
    a = Z
    b = np.array([0.0, 1.0, 0.0])
    estimates = {0: b, 1: b, 2: a, 3: a}
    flags = {0: 1, 1: 1, 2: 1, 3: 1}
    # Two clusters of size 2: argmax must pick node 0's cluster.
    v, g = graded_consensus(Z, estimates, flags, 0, p.m, p.t, p.delta_eff)
    assert np.array_equal(v, b)
    assert g == 0  # 2 < m - t


SIZES = (4, 7, 10, 31)


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("seed", range(12))
def test_weak_consensus_matches_full_count_reference(m, seed):
    # 3*delta is 0.125 exactly: points on a line 0.125 from w are exactly on
    # the radius and 0.25 from it outside; the rest are random unit vectors
    # within the radius, or anywhere.  The share drawn close varies with the
    # seed, so both outcomes and early stops on either side occur.
    rng = np.random.default_rng(seed)
    t, delta = (m - 1) // 3, 0.125 / 3
    w = np.array([0.0, 0.0, 1.0])
    share = rng.uniform(0.4, 1.0)
    estimates = {}
    for j in range(m):
        close, on_line = rng.random() < share, rng.random() < 0.5
        if on_line:
            estimates[j] = np.array([0.125 * int(rng.integers(0, 2)) if close else 0.25, 0.0, 1.0])
        else:
            estimates[j] = _perturbed_estimate(w, 0.125, rng) if close else random_direction(rng)
    out = weak_consensus(w, estimates, m, t, delta)
    assert out is reference_weak_consensus(w, estimates, m, t, delta)


@pytest.mark.parametrize(
    "m, seed",
    [pytest.param(7, seed, id=str(seed)) for seed in range(40)]
    + [pytest.param(m, seed, id=f"m{m}-{seed}") for m in (4, 10, 31) for seed in range(12)],
)
def test_graded_consensus_matches_all_pairs_reference(m, seed):
    # Estimates on a line 10*delta apart are exactly on the cluster radius
    # (0.125 and its square are exact); the rest are random unit vectors
    # near a second centre, so cluster sizes, ties and grades vary with the
    # seed.
    rng = np.random.default_rng(seed)
    t, delta = (m - 1) // 3, 0.0125
    centre = random_direction(rng)
    estimates = {}
    for j in range(m):
        if rng.random() < 0.6:
            estimates[j] = np.array([0.125 * int(rng.integers(0, 3)), 0.0, 1.0])
        else:
            estimates[j] = _perturbed_estimate(centre, 10.0 * delta, rng)
    flags = {j: int(rng.random() < 0.85) for j in range(m)}
    own_flag = int(rng.integers(0, 2))
    w = random_direction(rng)
    v, g = graded_consensus(w, estimates, flags, own_flag, m, t, delta)
    ref_v, ref_g = reference_graded_consensus(w, estimates, flags, own_flag, m, t, delta)
    assert g == ref_g and v.tobytes() == ref_v.tobytes()


def _line(x):
    return np.array([x, 0.0, 1.0])


def _graded_case(case, m):
    """Estimates (0.125 is the cluster radius) for which the rows stop early, late or never."""
    if case == "identical":  # decided after row 0
        return {j: Z for j in range(m)}
    if case == "late-cluster":  # a pair first, singletons, the largest cluster last in id order
        big = m // 2 + 1
        return {
            j: _line(5.0) if j < 2 else _line(10.0) if j >= m - big else _line(0.25 * j)
            for j in range(m)
        }
    if case == "singletons":  # every pair computed
        return {j: _line(0.25 * j) for j in range(m)}
    # "ties-across-rows": two clusters of equal size, ids interleaved, and a
    # singleton when m is odd; the tie goes to node 0's cluster.
    return {j: _line(5.0) if j == m - 1 and m % 2 else _line(2.0 * (j % 2)) for j in range(m)}


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("case", ["identical", "late-cluster", "singletons", "ties-across-rows"])
def test_graded_consensus_stopping_rows_match_reference(m, case):
    estimates = _graded_case(case, m)
    t, delta = (m - 1) // 3, 0.0125
    for flags in ({j: 1 for j in range(m)}, {j: int(j % 3 != 1) for j in range(m)}):
        v, g = graded_consensus(FAR, estimates, flags, 0, m, t, delta)
        ref_v, ref_g = reference_graded_consensus(FAR, estimates, flags, 0, m, t, delta)
        assert g == ref_g and np.asarray(v).tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("m", SIZES)
def test_consensus_stops_once_decided(monkeypatch, m):
    # The counts decide early: weak consensus keeps w at the (m - t)-th
    # close estimate and gives bottom at the (t + 1)-th far one; k identical
    # flagged estimates fill every cluster count in row 0's k - 1 distances.
    calls = []
    monkeypatch.setattr(rf_protocols, "distance", lambda u, v: calls.append(None) or distance(u, v))
    t, delta = (m - 1) // 3, 0.05
    assert weak_consensus(Z, {j: Z for j in range(m)}, m, t, delta) is Z
    assert len(calls) == m - t
    calls.clear()
    assert weak_consensus(Z, {j: FAR for j in range(m)}, m, t, delta) is None
    assert len(calls) == t + 1
    for flags in ({j: 1 for j in range(m)}, {j: int(j >= t) for j in range(m)}):
        calls.clear()
        v, g = graded_consensus(FAR, {j: Z for j in range(m)}, flags, 0, m, t, delta)
        assert (v is Z, g) == (True, 1)
        assert len(calls) == sum(flags.values()) - 1


def test_graded_consensus_radius_is_inclusive():
    # Chords of exactly 10*delta count: 0 - 1 - 2 on a line, 0.125 apart.
    estimates = {j: np.array([0.125 * j, 0.0, 1.0]) for j in range(3)}
    estimates[3] = FAR
    flags = {j: 1 for j in range(4)}
    v, g = graded_consensus(Z, estimates, flags, 0, 4, 1, 0.0125)
    assert np.array_equal(v, estimates[1]) and g == 1  # node 1 reaches 0, 1 and 2


def _perturbed_estimate(w, max_chord, rng):
    from rfagree.geometry import any_orthogonal, rotate_about, angle_from_chord

    chord = rng.uniform(0.0, max_chord)
    axis = rotate_about(any_orthogonal(w), w, rng.uniform(0.0, 2.0 * np.pi))
    return rotate_about(w, axis, angle_from_chord(chord))


def _adversarial_round(m, t, delta, honest_inputs, rng):
    """Honest estimate matrices with delta-accurate honest columns and
    fully arbitrary faulty columns/flags, in one shared global frame."""
    honest = sorted(honest_inputs)
    estimates = {}
    for i in honest:
        row = {}
        for j in range(m):
            if j == i:
                row[j] = honest_inputs[i]
            elif j in honest_inputs:
                row[j] = _perturbed_estimate(honest_inputs[j], delta, rng)
            else:
                row[j] = random_direction(rng)
        estimates[i] = row
    return estimates


@pytest.mark.parametrize("seed", range(12))
def test_weak_consistency_eight_delta(seed):
    # Any two correct nodes that keep their direction are within 8*delta,
    # for arbitrary faulty estimate columns.  The honest inputs share one
    # cluster, so correct nodes keep theirs and the pairs are checked.
    m, t, delta = 7, 2, 0.05
    rng = np.random.default_rng(seed)
    anchor = random_direction(rng)
    honest_inputs = {i: _perturbed_estimate(anchor, delta, rng) for i in range(t, m)}
    estimates = _adversarial_round(m, t, delta, honest_inputs, rng)
    kept = {
        i: u
        for i, u in (
            (i, weak_consensus(honest_inputs[i], estimates[i], m, t, delta))
            for i in honest_inputs
        )
        if u is not None
    }
    ids = sorted(kept)
    assert len(ids) >= 2
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            assert distance(kept[ids[x]], kept[ids[y]]) <= 8.0 * delta + 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_weak_persistency_delta(seed):
    m, t, delta = 7, 2, 0.05
    rng = np.random.default_rng(100 + seed)
    anchor = random_direction(rng)
    honest_inputs = {i: _perturbed_estimate(anchor, delta, rng) for i in range(t, m)}
    estimates = _adversarial_round(m, t, delta, honest_inputs, rng)
    for i in honest_inputs:
        u = weak_consensus(honest_inputs[i], estimates[i], m, t, delta)
        assert u is not None
        assert distance(anchor, u) <= delta + 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_graded_consistency_thirty_delta(seed):
    # Once a correct node grades 1, the correct outputs are within
    # 30*delta.  The honest inputs share one cluster, so some node grades 1.
    m, t, delta = 7, 2, 0.05
    rng = np.random.default_rng(200 + seed)
    anchor = random_direction(rng)
    honest_inputs = {i: _perturbed_estimate(anchor, delta, rng) for i in range(t, m)}
    estimates = _adversarial_round(m, t, delta, honest_inputs, rng)
    weak_out = {
        i: weak_consensus(honest_inputs[i], estimates[i], m, t, delta)
        for i in honest_inputs
    }
    results = {}
    for i in honest_inputs:
        own_flag = 0 if weak_out[i] is None else 1
        flags = {}
        for j in range(m):
            if j in honest_inputs:
                flags[j] = 0 if weak_out[j] is None else 1
            else:
                flags[j] = int(rng.integers(0, 2))  # faulty flags vary per receiver
        results[i] = graded_consensus(
            honest_inputs[i], estimates[i], flags, own_flag, m, t, delta
        )
    assert any(g == 1 for _, g in results.values())
    ids = sorted(results)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            vx = results[ids[x]][0]
            vy = results[ids[y]][0]
            assert distance(vx, vy) <= 30.0 * delta + 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_graded_persistency_delta(seed):
    m, t, delta = 7, 2, 0.05
    rng = np.random.default_rng(300 + seed)
    anchor = random_direction(rng)
    honest_inputs = {i: _perturbed_estimate(anchor, delta, rng) for i in range(t, m)}
    estimates = _adversarial_round(m, t, delta, honest_inputs, rng)
    for i in honest_inputs:
        u = weak_consensus(honest_inputs[i], estimates[i], m, t, delta)
        assert u is not None
        flags = {}
        for j in range(m):
            flags[j] = 1 if j in honest_inputs else int(rng.integers(0, 2))
        v, g = graded_consensus(honest_inputs[i], estimates[i], flags, 1, m, t, delta)
        assert g == 1
        assert distance(anchor, v) <= delta + 1e-12


def run_trial_with(adversary_name, m, t, seed, n=20000, delta=0.05, epsilon=0.0, faulty=None, **kwargs):
    params = ProtocolParams(m, t, delta, ChannelParams(epsilon=epsilon, n=n))
    rng_frames = [
        random_frame(np.random.default_rng((seed, node)))
        for node in range(m)
    ]
    faulty = tuple(range(t)) if faulty is None else faulty
    adversary = make_adversary(adversary_name, faulty, params, **kwargs)
    return run_rf_consensus(params, rng_frames, faulty, adversary, master_seed=seed)


def test_all_honest_accepts_in_first_phase():
    result = run_trial_with("honest-shadow", 4, 1, seed=10, faulty=())
    assert set(result.accept_phase.values()) == {0}
    king_global = to_global(result.phases[0].king_direction, result.frames[0])
    for i, v in result.outputs.items():
        assert v is not None
        assert distance(to_global(v, result.frames[i]), king_global) <= result.params.delta_eff


def test_crash_king_first_phase_all_bottom_then_accept():
    result = run_trial_with("crash", 4, 1, seed=11, faulty=(0,))
    phase0 = result.phases[0]
    assert all(v is None for v in phase0.outputs.values())
    assert set(result.accept_phase.values()) == {1}
    assert all(v is not None for v in result.outputs.values())


def test_decisions_agree_within_every_phase():
    for seed in range(6):
        result = run_trial_with(
            "equivocator", 7, 2, seed=seed, faulty=(0, 1), separation=2.0
        )
        for phase in result.phases:
            assert len(set(phase.decisions.values())) == 1
        assert len(set(result.accept_phase.values())) == 1


def test_king_consistency_disjunction_per_phase():
    # Each phase: correct nodes all output bottom or pairwise within
    # 30 * delta_eff (in the global frame).
    for seed in range(8):
        result = run_trial_with(
            "equivocator", 7, 2, seed=100 + seed, faulty=(0, 1), separation=0.5
        )
        bound = 30.0 * result.params.delta_eff
        for phase in result.phases:
            produced = {
                i: to_global(v, result.frames[i])
                for i, v in phase.outputs.items()
                if v is not None
            }
            assert len(produced) in (0, len(phase.outputs))
            ids = sorted(produced)
            for x in range(len(ids)):
                for y in range(x + 1, len(ids)):
                    assert distance(produced[ids[x]], produced[ids[y]]) <= bound


def test_conditional_exactness_small_scale():
    # On trials where every correct-to-correct link met the accuracy target,
    # consistency and honest-king persistency must hold exactly.
    checked = 0
    for seed in range(30):
        result = run_trial_with(
            "equivocator", 4, 1, seed=200 + seed, faulty=(0,), separation=1.2
        )
        metrics = result_metrics(result)
        if metrics.fully_successful:
            checked += 1
            assert metrics.consistency_ok
            assert metrics.persistency_ok
            assert metrics.termination_ok
    assert checked > 0


def test_outputs_frozen_at_first_accept():
    result = run_trial_with("honest-shadow", 4, 1, seed=12, faulty=())
    for i, v in result.outputs.items():
        first = result.accept_phase[i]
        assert np.array_equal(v, result.phases[first].outputs[i])


def test_sentinel_substitution_on_silent_king():
    result = run_trial_with("crash", 4, 1, seed=13, faulty=(0,))
    phase0 = result.phases[0]
    for i in phase0.inputs:
        if i != 0:
            assert np.array_equal(phase0.inputs[i], Z)
