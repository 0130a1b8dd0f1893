"""Scheduling policies, clock-agnostic: callers pass ``now``.

An online P² quantile, a speculation policy and a straggler tracker shared
by the real MASTER_WORKER master (`repro.mrmpi.mapreduce`) and the
simulated fleet (`repro.cluster.dispatch`); the queue policy
(`UnitQueue`); and the master's whole dispatch policy (`Dispatcher`).
"""

from repro.sched.dispatcher import Dispatcher, UnitQueue
from repro.sched.speculation import (
    P2Quantile,
    SchedReport,
    SpeculationPolicy,
    StragglerTracker,
)

__all__ = [
    "Dispatcher",
    "P2Quantile",
    "SchedReport",
    "SpeculationPolicy",
    "StragglerTracker",
    "UnitQueue",
]
