"""NCS — the communication-blind comparison scheduler of section 6.

Identical machinery to CS, but the annealing energy drops the
communication term of eq. (4): it sees node speeds and CPU loads, not
latencies.  Because the score is not a time prediction, the paper
"processed each mapping selected by NCS with the full evaluation
operation" to obtain the normalized prediction — our base class already
reports the full predicted time for the selected mapping.
"""

from __future__ import annotations

from repro.core.evaluation import EvaluationOptions
from repro.schedulers.cs import CbesScheduler

__all__ = ["NoCommScheduler"]


class NoCommScheduler(CbesScheduler):
    """Simulated annealing on the computation-only cost function."""

    name = "NCS"
    energy_options = EvaluationOptions(communication=False)
    #: NCS must pick randomly among equal-speed nodes (paper section 6).
    use_greedy_start = False
