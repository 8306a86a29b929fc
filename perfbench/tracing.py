"""Outside-in tracing of rfagree's layers for the traced benchmark run.

:func:`installed` wraps the public entry points of each module (by patching
module and class attributes, never by editing the package) so that every
call records a span ``[name, start, end, parent]`` in memory and bumps the
exact counters the benchmark reports.  Everything is restored on exit, so
untraced runs and ``verify`` execute the shipped code unmodified.

Span tree of one ``run_experiment`` call (self time = duration minus the
time covered by direct children)::

    harness.run_experiment            self -> harness.write_s
      harness.run_trial               self -> unattributed
        rf_protocols.run_rf_consensus self -> unattributed
          rf_protocols.run_king_phase
            netsim.<step kind>        (one of the four RoundEngine steps)
              adversaries.emit
              quantum_link.measure_batch
            rf_protocols.honest_node  (HonestNode begin/receive_*/finish)
            classical_consensus.absorb
        harness.compute_metrics
      harness.trial_record
      harness.transcript_records
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

from rfagree import classical_consensus, harness, netsim, rf_protocols

ROOT = "harness.run_experiment"

STEP_KINDS = (
    netsim.KING_BROADCAST,
    netsim.DIRECTION_EXCHANGE,
    netsim.FLAG_EXCHANGE,
    netsim.CLASSICAL_ROUND,
)

#: Span name -> reported self-time metric.  Spans missing here (run_trial,
#: run_rf_consensus) make up the unattributed residual.
SELF_TIME_METRICS = {
    ROOT: "harness.write_s",
    "rf_protocols.run_king_phase": "rf_protocols.run_king_phase.self_s",
    **{f"netsim.{kind}": f"netsim.{kind}.self_s" for kind in STEP_KINDS},
    "quantum_link.measure_batch": "quantum_link.measure_batch_s",
    "adversaries.emit": "adversaries.emit_s",
    "rf_protocols.honest_node": "rf_protocols.honest_node_s",
    "classical_consensus.absorb": "classical_consensus.absorb_s",
    "harness.compute_metrics": "harness.compute_metrics_s",
    "harness.trial_record": "harness.trial_record_s",
    "harness.transcript_records": "harness.transcript_records_s",
}

#: Counters bumped by the wrappers; all are exact for a fixed (config, seed).
COUNTERS = (
    "classical_consensus.absorb_calls",
    "quantum_link.measure_batch_calls",
    "adversaries.emit_calls",
    "netsim.slots_resolved",
    "netsim.absent_deliveries",
    "netsim.transcript_entries",
    "geometry.distance_calls",
)

HONEST_NODE_METHODS = (
    "begin_phase",
    "receive_king",
    "receive_directions",
    "receive_flags",
    "finish_phase",
)


class Tracer:
    """In-memory span recorder plus exact counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []

    def wrap(self, name, fn, counter=None, name_of=None, after=None):
        """Return ``fn`` recording a span per call.

        ``name_of(args)`` picks the span name per call when given;
        ``counter`` is bumped once per call; ``after(args, result)`` runs
        before the span closes, so its cost shows in this span's self time
        (and in the tracing overhead).
        """
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name if name_of is None else name_of(args), clock(), 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()
                if counter is not None:
                    counts[counter] += 1

        return traced

    def count_calls(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict:
        """Self seconds per span name; their sum equals :meth:`wall`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def wall(self) -> float:
        """Total duration of the root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _round_name(args):
    return "netsim." + args[1].kind


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch rfagree's entry points to report into ``tracer``; undo on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    counts = tracer.counts

    def after_round(args, deliveries):
        counts["netsim.slots_resolved"] += len(deliveries)
        counts["netsim.absent_deliveries"] += sum(1 for d in deliveries.values() if d is None)

    def after_consensus(args, result):
        counts["netsim.transcript_entries"] += len(result.transcript)

    make_adversary = harness.make_adversary

    def traced_make_adversary(*args, **kwargs):
        adversary = make_adversary(*args, **kwargs)
        adversary.emit = tracer.wrap(
            "adversaries.emit", adversary.emit, counter="adversaries.emit_calls"
        )
        return adversary

    try:
        patch(harness, "run_experiment", tracer.wrap(ROOT, harness.run_experiment))
        patch(harness, "run_trial", tracer.wrap("harness.run_trial", harness.run_trial))
        patch(harness, "run_rf_consensus", tracer.wrap(
            "rf_protocols.run_rf_consensus", harness.run_rf_consensus, after=after_consensus))
        patch(harness, "make_adversary", traced_make_adversary)
        patch(harness, "compute_metrics",
              tracer.wrap("harness.compute_metrics", harness.compute_metrics))
        patch(harness, "trial_record", tracer.wrap("harness.trial_record", harness.trial_record))
        patch(harness, "transcript_records",
              tracer.wrap("harness.transcript_records", harness.transcript_records))
        patch(rf_protocols, "run_king_phase",
              tracer.wrap("rf_protocols.run_king_phase", rf_protocols.run_king_phase))
        for method in HONEST_NODE_METHODS:
            patch(rf_protocols.HonestNode, method, tracer.wrap(
                "rf_protocols.honest_node", getattr(rf_protocols.HonestNode, method)))
        patch(classical_consensus.PhaseKingNode, "absorb", tracer.wrap(
            "classical_consensus.absorb", classical_consensus.PhaseKingNode.absorb,
            counter="classical_consensus.absorb_calls"))
        patch(netsim.RoundEngine, "run_round", tracer.wrap(
            None, netsim.RoundEngine.run_round, name_of=_round_name, after=after_round))
        patch(netsim, "measure_batch", tracer.wrap(
            "quantum_link.measure_batch", netsim.measure_batch,
            counter="quantum_link.measure_batch_calls"))
        for module in (rf_protocols, harness):
            patch(module, "distance",
                  tracer.count_calls("geometry.distance_calls", module.distance))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
