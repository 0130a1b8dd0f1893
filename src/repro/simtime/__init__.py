"""A small discrete-event simulation kernel (SimPy-flavoured).

The paper's performance results come from 32-1024 cores of TACC Ranger;
this kernel is the time substrate on which :mod:`repro.cluster` rebuilds
those experiments.  Processes are Python generators that ``yield`` events;
the environment advances virtual time from event to event, so a 5-hour
1024-core run simulates in milliseconds and is bit-reproducible.

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0 and proc.value == "done"
"""

from repro.simtime.events import Environment, Event, Process
from repro.simtime.resources import Resource

__all__ = ["Environment", "Event", "Process", "Resource"]
