"""Golden digests: the output bytes of every shipped config, pinned.

Each config in ``configs/`` is run with a small trial count and transcript
export; the SHA-256 of ``trials.jsonl`` and ``transcript.jsonl`` must match
the values below, and so must that of the transcript expanded back to the
per-slot form it was once written in.  A refactor that changes a single output byte fails here,
so any change to these digests must be deliberate and recorded together
with the new values.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rfagree.adversaries import strategy_catalog
from rfagree.config import ExperimentConfig
from rfagree.harness import run_experiment, verify_records

from helpers import expand_round_record

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_TRIALS = 2

# Recorded with numpy 2.4.6 (Python 3.11.7).  The Philox streams and the
# binomial sampler are numpy's; another numpy release may legitimately
# change these bytes.
GOLDEN = {
    "equivocator.json": (
        "8093d6e5b0c6e9b213b42b9aa3b19cd3a6731b8b07bcd99bbfbb8ac75b3e4926",
        "d183b1060df10596dab3122176a23b497038a739f8116b307ea9e67c25157d1e",
    ),
    "honest_small.json": (
        "3781f5ed225b675e575c2692435e3115a4481b458c1d335746c630b93a2a8709",
        "dc6ce0e022adf31e572937a73782f2d9920a10209e96e62caa2f735eaeb473b5",
    ),
    "noisy_channel.json": (
        "602405f30381d19016b93ca8458dd9e6c281716f9021f612e2796b2f0c6e7559",
        "c9efc3059120d1b36e478fbff49de5b01cc016190236849cc6a59e6fc6dc08cd",
    ),
}


# Every catalog strategy at m=7 with t=2 faulty nodes (0 and 1: two faulty
# kings, then an honest one), so each strategy's emit path is pinned too.
STRATEGY_GOLDEN = {
    "crash": (
        "75dc9ef5b720b3ec291c099c8f2a817972cff09f0ea10aadd3585e5eff51c9f5",
        "107e241464b2ea3871f077a40bc434c18f5d72dec3e01d2220678557d3b5b56a",
    ),
    "equivocator": (
        "82160c3184ffef1a44d35d2c134e8c330b7816511c7fbe08aeb80cd3fb25c0cf",
        "82f13c89a515fa155a0e4378595a316f088af1a1136ccaa3f2d2e91fbeaac44b",
    ),
    "grade-poisoner": (
        "e77c709be16769ee5bd479859fd4e3f751f0ee4bd920fd53a59d0757b0520503",
        "fcd9c6c1893c6d84a265162902ef1b99a90d7e6b634705a715532d5b3c9b1a1b",
    ),
    "honest-shadow": (
        "fcc20ab9a434f3f759b1dc68035a47ca56cdad4225ce381cc4635c2f29b281e9",
        "40f2cc6ca691d8dac52a0391bc3707f44f7095e372d1ed41ee71eeaacb659d4f",
    ),
    "random-noise": (
        "cfdb6ceb28bbdda9a422e6e48092c4bdfd3420149dabc7ef67481a555fe9e1c8",
        "9218fa8b457ad1d335ab5fb01cf7a7598fdd4235b8c015a5b49e98fbd787af83",
    ),
    "rusher": (
        "e77c709be16769ee5bd479859fd4e3f751f0ee4bd920fd53a59d0757b0520503",
        "c7119512f87a28df37651bb866297312f3df954894b47553fb16fd4b3154c9c5",
    ),
}

# SHA-256 of transcript.jsonl in the per-slot form it had before it became
# one line per round: the records that helpers.expand_round_record rebuilds,
# one ``json.dumps(..., sort_keys=True)`` line per slot.  Every shipped
# config and catalog strategy must still reproduce it, so the per-round
# export is lossless.
PER_SLOT_TRANSCRIPT_GOLDEN = {
    "equivocator.json": "767add2ae3d515e9bc0fa38663244b7adc7fb031b7a42a9d533876d9ec407e81",
    "honest_small.json": "1956edf57b85acb4f107996b6e41f07ba1eb8307b3d3d14a86b3b953696fe200",
    "noisy_channel.json": "0a37b4806c6ae22bef60aa293cbdebc2b0d7a9761c06edd7baa099eaf62d79c3",
    "crash": "0f05d70e686ea5ee3014e8e03eb2be286fddfece749bdc5e870d771c810d5ced",
    "equivocator": "d620071962f38618e1e5ef5237ebeddfbad78e5a6898fffc3971c654d31403c7",
    "grade-poisoner": "3ba227e4b2036f1af2d5da62015ba7b840d36fc5ea83465abcec0f9131cad68a",
    "honest-shadow": "42569581f0eaa21a4af62e01d1db79c6685da4bedf53efe5efd02ba451e04a41",
    "random-noise": "626f8088d7101673ad323d4eeb9503d34de76abec09be4f436cfb2ec04253ace",
    "rusher": "f0771a26f60528c16e1d12aae9adb5e25e617cca4bf590a95bb44f6bc9c4da9f",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digests(config, out_dir) -> tuple:
    """SHA-256 of trials.jsonl, transcript.jsonl and its per-slot expansion.

    The export must also verify: every stored metric recomputes from it.
    """
    config.out_dir = str(out_dir)
    config.write_transcript = True
    run_experiment(config)
    trials, transcript = out_dir / "trials.jsonl", out_dir / "transcript.jsonl"
    assert verify_records(trials, transcript, config) == []
    assert verify_records(trials, None, config) == []
    per_slot = "".join(
        json.dumps(slot, sort_keys=True) + "\n"
        for line in (out_dir / "transcript.jsonl").read_text().splitlines()
        for slot in expand_round_record(json.loads(line), config.m)
    )
    return (
        sha256(trials),
        sha256(transcript),
        hashlib.sha256(per_slot.encode()).hexdigest(),
    )


def test_every_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    config = ExperimentConfig.load(CONFIG_DIR / name)
    config.trials = GOLDEN_TRIALS
    assert output_digests(config, tmp_path) == GOLDEN[name] + (PER_SLOT_TRANSCRIPT_GOLDEN[name],)


def test_every_strategy_is_pinned():
    assert sorted(STRATEGY_GOLDEN) == strategy_catalog()


@pytest.mark.parametrize("name", sorted(STRATEGY_GOLDEN))
def test_strategy_golden_digests(name, tmp_path):
    config = ExperimentConfig(
        m=7, t=2, delta=0.05, epsilon=0.02, n=2000, adversary=name,
        trials=GOLDEN_TRIALS, master_seed=4242,
    )
    assert output_digests(config, tmp_path) == (
        STRATEGY_GOLDEN[name] + (PER_SLOT_TRANSCRIPT_GOLDEN[name],)
    )


# Two qubits per axis make all-half tallies common, so correct receivers
# hit the degenerate-estimate sentinel; seed 1 gives some in both trials.
DEGENERATE_GOLDEN = (
    "33e3dc5f04294b263bb701f083952b101c0a28d945d387b230fff683104ceb99",
    "8c12908ff2888bfdda2b28325b08dc73393ccce4c102fd90bbb51c94aa41ddf6",
)


def test_degenerate_tallies_golden_digests(tmp_path):
    config = ExperimentConfig(
        m=7, t=2, delta=0.05, epsilon=0.02, n=2, adversary="random-noise",
        trials=GOLDEN_TRIALS, master_seed=1,
    )
    assert output_digests(config, tmp_path)[:2] == DEGENERATE_GOLDEN
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["degenerate_tallies"] > 0
