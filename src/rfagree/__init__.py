"""Byzantine-tolerant reference frame agreement over quantum links.

m networked nodes, each with a private spatial frame, establish an
approximately common direction despite up to t < m/3 arbitrarily faulty
nodes.  The package provides the geometry and measurement statistics of the
per-link direction estimator, the consensus stack built on top of it, a
deterministic synchronous network simulator with pluggable adversaries, and
a Monte Carlo harness that checks the stack's quantitative guarantees.
"""

from .classical_consensus import PhaseKingNode, rounds_for
from .config import ConfigError, ExperimentConfig
from .geometry import distance, random_direction, to_global
from .harness import compute_metrics, emit_report, run_experiment, run_trial
from .netsim import AuthenticationError, RoundEngine, substream
from .quantum_link import (
    ChannelParams,
    MeasurementTally,
    QuantumMessage,
    frame_axes,
    link_cells,
    measure_batch,
    required_qubits,
    ted_accuracy_bound,
    ted_receive,
    ted_success_bound,
)
from .rf_protocols import (
    HonestNode,
    ProtocolParams,
    graded_consensus,
    run_king_phase,
    run_rf_consensus,
    weak_consensus,
)
from .adversaries import make_adversary, strategy_catalog

__version__ = "0.1.0"

__all__ = [
    "AuthenticationError",
    "ChannelParams",
    "ConfigError",
    "ExperimentConfig",
    "HonestNode",
    "MeasurementTally",
    "PhaseKingNode",
    "ProtocolParams",
    "QuantumMessage",
    "RoundEngine",
    "compute_metrics",
    "distance",
    "emit_report",
    "frame_axes",
    "graded_consensus",
    "link_cells",
    "make_adversary",
    "measure_batch",
    "random_direction",
    "required_qubits",
    "rounds_for",
    "run_experiment",
    "run_king_phase",
    "run_rf_consensus",
    "run_trial",
    "strategy_catalog",
    "substream",
    "ted_accuracy_bound",
    "ted_receive",
    "ted_success_bound",
    "to_global",
    "weak_consensus",
]
