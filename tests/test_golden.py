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


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_every_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    config = ExperimentConfig.load(CONFIG_DIR / name)
    config.trials = GOLDEN_TRIALS
    config.out_dir = str(tmp_path)
    config.write_transcript = True
    run_experiment(config)
    digests = (sha256(tmp_path / "trials.jsonl"), sha256(tmp_path / "transcript.jsonl"))
    assert digests == GOLDEN[name]
