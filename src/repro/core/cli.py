"""The command-line surface both batch programs share.

``mrblast`` and ``mrsom`` are launched the same way: a rank count, a
transport, fault injection and supervision, a trace and the straggler
knobs.  :func:`add_job_flags` declares those flags once; :func:`run_job`
builds the program's config with them, runs it plain or supervised, and
prints how the runtime fared.
"""

from __future__ import annotations

import argparse
from typing import Callable

from repro.core.spine import JobConfig
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import RetryPolicy

__all__ = ["add_job_flags", "run_job"]


def add_job_flags(ap: argparse.ArgumentParser) -> None:
    """The flags every batch program takes, with one spelling and one help."""
    ap.add_argument("--np", type=int, default=4, help="number of MPI ranks")
    ap.add_argument("--backend", choices=["thread", "process"], default=None,
                    help="transport backend: 'process' runs each rank as an OS "
                         "process (real multi-core); 'thread' is the in-process "
                         "parity oracle (default: $REPRO_MPI_BACKEND or thread)")
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault-injection plan, e.g. 'crash=1@20' or "
                         "'seed=7,crashes=1,drops=2' (see FaultPlan.parse)")
    ap.add_argument("--retries", type=int, default=0, metavar="N",
                    help="run under the supervisor with up to N relaunches "
                         "(each resumes from the last committed checkpoint)")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write a Chrome trace_event JSON of the run here "
                         "(open in chrome://tracing or Perfetto)")
    ap.add_argument("--speculate", type=float, default=None, metavar="FACTOR",
                    help="straggler mitigation: re-issue a work unit once its "
                         "elapsed time exceeds FACTOR x the running median "
                         "(must be > 1.0; first copy to finish wins)")
    ap.add_argument("--no-degraded", action="store_true",
                    help="abort the job when a worker rank dies instead of "
                         "reassigning its work to survivors (degraded-mode "
                         "completion is the default)")


def run_job(ap: argparse.ArgumentParser, args: argparse.Namespace, make_config: Callable,
            spmd: Callable, supervised: Callable) -> tuple:
    """Run one batch job from its parsed flags; return its config and the
    live ranks' results.

    ``make_config(**shared)`` builds the program's config from its own flags
    and the shared knobs.  A :class:`ValueError` from the ``--faults`` spec,
    the shared knobs, ``make_config`` or the config's ``validate()`` is a
    usage error (one line, exit 2).  ``--retries`` or ``--faults`` runs the
    job through ``supervised``, otherwise through ``spmd``.
    """
    shared = dict(backend=args.backend, degraded=not args.no_degraded,
                  speculation_factor=args.speculate)
    try:
        fault_plan = FaultPlan.parse(args.faults, args.np) if args.faults else None
        JobConfig(**shared).validate()  # before make_config, which may run a pilot search
        config = make_config(trace_path=args.trace, **shared)
        config.validate()
    except ValueError as exc:
        ap.error(str(exc))
    if args.retries > 0 or fault_plan is not None:
        outcome = supervised(args.np, config, fault_plan=fault_plan,
                             retry=RetryPolicy(max_attempts=max(1, args.retries + 1)))
        print(f"supervisor: {outcome.retries} retries, "
              f"{outcome.faults_injected} faults injected")
        results = outcome.results
    else:
        results = spmd(args.np, config)
    live = [r for r in results if r is not None]
    head = live[0]
    if head.speculated_units:
        print(f"speculation: {head.speculated_units} extra copies launched, "
              f"{head.wasted_units} discarded as losers")
    if head.degraded:
        print(f"degraded completion: lost ranks {list(head.lost_ranks)}, "
              f"{head.reassigned_units} work units reassigned to survivors")
    if args.trace:
        print(f"trace written to {args.trace}")
    return config, live
