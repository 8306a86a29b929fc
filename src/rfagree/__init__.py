"""Byzantine-tolerant reference frame agreement over quantum links.

m networked nodes, each with a private spatial frame, establish an
approximately common direction despite up to t < m/3 arbitrarily faulty
nodes.  The package provides the geometry and measurement statistics of the
per-link direction estimator, the consensus stack built on top of it, a
deterministic synchronous network simulator with pluggable adversaries, and
a Monte Carlo harness that checks the stack's quantitative guarantees.
The top level holds only ``__version__``, so ``import rfagree`` loads no
module; import the modules (``rfagree.harness`` and so on) directly.
"""

__version__ = "0.1.0"
