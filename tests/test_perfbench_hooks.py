"""The benchmark's tracing hooks still attach to the program.

``perfbench/tracing.py`` patches entry points by name from outside the
package.  A renamed or bypassed entry point leaves a counter short of the
work the run's transcript shows, or a layer without spans; this catches
that in the ordinary test run.
"""

import importlib.util
import json
from pathlib import Path

from rfagree import harness
from rfagree.config import ExperimentConfig

from helpers import expand_round_record

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_counter_and_layer_is_hit(tmp_path):
    tracing = load_tracing()
    # crash leaves the faulty node's slots absent, so every counter moves.
    config = ExperimentConfig(
        m=4, t=1, delta=0.05, n=2000, adversary="crash", trials=1,
        master_seed=3, out_dir=str(tmp_path), write_transcript=True,
    )
    original = harness.run_experiment
    with tracing.installed(tracing.Tracer()) as tracer:
        harness.run_experiment(config)
    assert [name for name in tracing.COUNTERS if not tracer.counts[name]] == []
    # Each slot of the transcript was resolved by a traced round, and each
    # delivered quantum slot was measured by the traced measure_batch.
    rounds = [json.loads(line) for line in (tmp_path / "transcript.jsonl").read_text().splitlines()]
    slots = [slot for rec in rounds for slot in expand_round_record(rec, config.m)]
    absent = [slot for slot in slots if slot["kind"] == "absent"]
    delivered = [slot for slot in slots if slot["tally"] is not None]
    assert tracer.counts["netsim.slots_resolved"] == len(slots)
    # The crashed node's slots are the absent ones; no gated workload
    # resolves an absent slot, so this is where their count is checked.
    assert tracer.counts["netsim.absent_deliveries"] == len(absent) > 0
    assert tracer.counts["quantum_link.measure_batch_calls"] == len(delivered) > 0
    layers = {span[0] for span in tracer.spans}
    assert set(tracing.SELF_TIME_METRICS) - layers == set()
    assert harness.run_experiment is original  # restored on exit
