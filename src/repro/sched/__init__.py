"""Scheduling policies, clock-agnostic: callers pass ``now``.

The MASTER_WORKER dispatch policy (`Dispatcher`), which the real MPI master
(`repro.mrmpi.mapreduce`) and the simulated fleet (`repro.cluster.dispatch`)
both drive; the speculation policy it takes and the report it gives; and
the online P² quantile.  Its parts, the queue policy
(`dispatcher.UnitQueue`) and the straggler tracker
(`speculation.StragglerTracker`), stay inside the package.
"""

from repro.sched.dispatcher import Dispatcher
from repro.sched.speculation import P2Quantile, SchedReport, SpeculationPolicy

__all__ = ["Dispatcher", "P2Quantile", "SchedReport", "SpeculationPolicy"]
