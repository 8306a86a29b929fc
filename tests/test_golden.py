"""Golden digests: the output bytes of every shipped config, pinned.

Each config in ``configs/`` is run with a small trial count and transcript
export; the SHA-256 of ``trials.jsonl`` and ``transcript.jsonl`` must match
the values below.  A refactor that changes a single output byte fails here,
so any change to these digests must be deliberate and recorded together
with the new values.
"""

import hashlib
from pathlib import Path

import pytest

from rfagree.adversaries import strategy_catalog
from rfagree.config import ExperimentConfig
from rfagree.harness import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_TRIALS = 2

# Recorded with numpy 2.4.6 (Python 3.11.7).  The Philox streams and the
# binomial sampler are numpy's; another numpy release may legitimately
# change these bytes.
GOLDEN = {
    "equivocator.json": (
        "8093d6e5b0c6e9b213b42b9aa3b19cd3a6731b8b07bcd99bbfbb8ac75b3e4926",
        "767add2ae3d515e9bc0fa38663244b7adc7fb031b7a42a9d533876d9ec407e81",
    ),
    "honest_small.json": (
        "3781f5ed225b675e575c2692435e3115a4481b458c1d335746c630b93a2a8709",
        "1956edf57b85acb4f107996b6e41f07ba1eb8307b3d3d14a86b3b953696fe200",
    ),
    "noisy_channel.json": (
        "602405f30381d19016b93ca8458dd9e6c281716f9021f612e2796b2f0c6e7559",
        "0a37b4806c6ae22bef60aa293cbdebc2b0d7a9761c06edd7baa099eaf62d79c3",
    ),
}


# Every catalog strategy at m=7 with t=2 faulty nodes (0 and 1: two faulty
# kings, then an honest one), so each strategy's emit path is pinned too.
STRATEGY_GOLDEN = {
    "crash": (
        "75dc9ef5b720b3ec291c099c8f2a817972cff09f0ea10aadd3585e5eff51c9f5",
        "0f05d70e686ea5ee3014e8e03eb2be286fddfece749bdc5e870d771c810d5ced",
    ),
    "equivocator": (
        "82160c3184ffef1a44d35d2c134e8c330b7816511c7fbe08aeb80cd3fb25c0cf",
        "d620071962f38618e1e5ef5237ebeddfbad78e5a6898fffc3971c654d31403c7",
    ),
    "grade-poisoner": (
        "e77c709be16769ee5bd479859fd4e3f751f0ee4bd920fd53a59d0757b0520503",
        "3ba227e4b2036f1af2d5da62015ba7b840d36fc5ea83465abcec0f9131cad68a",
    ),
    "honest-shadow": (
        "fcc20ab9a434f3f759b1dc68035a47ca56cdad4225ce381cc4635c2f29b281e9",
        "42569581f0eaa21a4af62e01d1db79c6685da4bedf53efe5efd02ba451e04a41",
    ),
    "random-noise": (
        "cfdb6ceb28bbdda9a422e6e48092c4bdfd3420149dabc7ef67481a555fe9e1c8",
        "626f8088d7101673ad323d4eeb9503d34de76abec09be4f436cfb2ec04253ace",
    ),
    "rusher": (
        "e77c709be16769ee5bd479859fd4e3f751f0ee4bd920fd53a59d0757b0520503",
        "f0771a26f60528c16e1d12aae9adb5e25e617cca4bf590a95bb44f6bc9c4da9f",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digests(config, out_dir) -> tuple:
    config.out_dir = str(out_dir)
    config.write_transcript = True
    run_experiment(config)
    return sha256(out_dir / "trials.jsonl"), sha256(out_dir / "transcript.jsonl")


def test_every_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    config = ExperimentConfig.load(CONFIG_DIR / name)
    config.trials = GOLDEN_TRIALS
    assert output_digests(config, tmp_path) == GOLDEN[name]


def test_every_strategy_is_pinned():
    assert sorted(STRATEGY_GOLDEN) == strategy_catalog()


@pytest.mark.parametrize("name", sorted(STRATEGY_GOLDEN))
def test_strategy_golden_digests(name, tmp_path):
    config = ExperimentConfig(
        m=7, t=2, delta=0.05, epsilon=0.02, n=2000, adversary=name,
        trials=GOLDEN_TRIALS, master_seed=4242,
    )
    assert output_digests(config, tmp_path) == STRATEGY_GOLDEN[name]
