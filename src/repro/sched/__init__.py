"""Straggler-mitigation scheduling policies.

Clock-agnostic building blocks shared by the real MASTER_WORKER dispatcher
(`repro.mrmpi.mapreduce`) and the simulated Ranger fleet
(`repro.cluster.dispatch`): an online P² quantile estimator, a speculation
policy, and a tracker that decides when a unit is a straggler and which
completion wins; plus the master's queue policy (`UnitQueue`).
"""

from repro.sched.speculation import (
    P2Quantile,
    SchedReport,
    SpeculationPolicy,
    StragglerTracker,
)
from repro.sched.unitqueue import UnitQueue

__all__ = [
    "P2Quantile",
    "SchedReport",
    "SpeculationPolicy",
    "StragglerTracker",
    "UnitQueue",
]
