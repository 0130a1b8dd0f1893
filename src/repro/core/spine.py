"""The runtime both MR-MPI programs run on, written once.

The paper runs BLAST and SOM as two programs on one MR-MPI runtime.  What
they share lives here: the knobs every job declares (:class:`JobConfig`)
and those a batch job adds (:class:`BatchConfig`), the fields of every
per-rank result (:class:`RankResult`), and the one launcher, which takes a
rank function and its config and runs it plain or supervised.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

from repro.mpi.exceptions import MPIError
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import (RetryPolicy, SupervisedOutcome, resolve_backend, run_spmd,
                               run_supervised)
from repro.mrmpi.mapreduce import MapStyle
from repro.obs.export import exported_trace
from repro.obs.metrics import metric_field
from repro.obs.trace import TraceSession
from repro.sched import SpeculationPolicy

__all__ = ["JobConfig", "BatchConfig", "RankResult", "launch", "check_writable_dir"]


@dataclass(kw_only=True)
class JobConfig:
    """The knobs every job shares: its transport and how its map survives
    slow or dying workers.

    Keyword-only, so a config extending it keeps its own positional fields.
    """

    #: transport backend: "thread" (in-process, GIL-bound parity oracle) or
    #: "process" (one OS process per rank, real multi-core compute).
    #: None defers to the REPRO_MPI_BACKEND environment default.
    backend: str | None = None
    #: degraded-mode completion: a worker dying mid-map no longer aborts the
    #: job — the master reassigns its units to survivors, the run finishes
    #: on the shrunk communicator, with loss counters in the result.
    degraded: bool = False
    #: straggler mitigation: re-issue a work unit to an idle worker once its
    #: elapsed time exceeds this factor times the running median unit
    #: runtime (None disables speculation).  First completion wins; output
    #: is the same as a no-speculation run's.  Only effective under
    #: MASTER_WORKER dispatch on >1 rank.
    speculation_factor: float | None = None

    def __post_init__(self) -> None:
        if self.speculation_factor is not None and self.speculation_factor <= 1.0:
            raise ValueError(
                f"speculation_factor must be > 1.0, got {self.speculation_factor}")

    def speculation_policy(self) -> SpeculationPolicy | None:
        """The straggler policy ``speculation_factor`` asks for, if any."""
        if self.speculation_factor is None:
            return None
        return SpeculationPolicy(factor=self.speculation_factor)

    def validate(self) -> None:
        """Fail-fast checks before any rank spawns: one clear error in the
        launcher beats N ranks aborting mid-map.  Raises :class:`ValueError`
        naming the config and the field; subclasses add their own checks."""
        try:
            resolve_backend(self.backend)
        except MPIError as exc:
            source = "" if self.backend is not None else " (from $REPRO_MPI_BACKEND)"
            raise ValueError(f"{type(self).__name__}: backend{source}: {exc}") from None


@dataclass(kw_only=True)
class BatchConfig(JobConfig):
    """The knobs a closed batch job adds to :class:`JobConfig`."""

    mapstyle: MapStyle = MapStyle.MASTER_WORKER
    #: continue from the last committed checkpoint instead of starting over
    resume: bool = False
    #: write a Chrome ``trace_event`` JSON of the whole run here (open in
    #: chrome://tracing or Perfetto).  None disables tracing entirely —
    #: the zero-cost default.
    trace_path: str | None = None
    #: stop after this many (additional) passes of the program's outer loop
    #: (mrblast's iterations, mrsom's epochs): incremental processing, and a
    #: run to resume from
    stop_after: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be >= 1 when set, got {self.stop_after}")


def check_writable_dir(path: str, what: str) -> None:
    """Create ``path`` if needed and prove a file can be written there."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{what} {path!r} cannot be created ({exc})") from exc
    probe = os.path.join(path, ".write-probe")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.unlink(probe)
    except OSError as exc:
        raise ValueError(f"{what} {path!r} is not writable ({exc})") from exc


@dataclass(kw_only=True)
class RankResult:
    """What every rank of either program returns besides its own output.

    Every number the rank counted lives in :attr:`metrics` (names in
    :mod:`repro.obs.metrics`) and nowhere else; the count attributes read it.
    """

    rank: int
    #: the rank's :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    metrics: dict
    #: how hard the supervisor had to work to get here (stamped by
    #: :func:`launch`)
    faults_injected: int = 0
    retries: int = 0
    #: *global* ranks lost while the run completed degraded
    lost_ranks: tuple[int, ...] = ()

    speculated_units = metric_field("sched.speculated_units", int)
    wasted_units = metric_field("sched.wasted_units", int)
    reassigned_units = metric_field("sched.reassigned_units", int)

    @property
    def degraded(self) -> bool:
        """True when the run lost ranks and completed without them."""
        return bool(self.lost_ranks)


def launch(nprocs: int, rank_main: Callable, config: BatchConfig,
           trace: TraceSession | None = None, *, supervised: bool = False,
           fault_plan: FaultPlan | None = None, retry: RetryPolicy | None = None,
           op_timeout: float | None = None) -> list | SupervisedOutcome:
    """Run ``rank_main(comm, config)`` on ``nprocs`` ranks of ``config.backend``
    and return the results by rank; ``config`` is validated first.

    Tracing: pass a :class:`~repro.obs.trace.TraceSession`, or set
    ``config.trace_path`` to have one created and exported as Chrome trace
    JSON automatically.  Both may be combined.

    ``supervised=True`` runs the job under the supervisor (crash → detect →
    back off → relaunch, up to ``retry``'s budget); every relaunch sets
    ``resume=True``, so it continues from the last committed checkpoint.
    Returns the ``SupervisedOutcome``, whose surviving results carry its
    counters, or raises ``SupervisionExhausted``.
    """
    config.validate()

    def prepare(attempt: int) -> tuple[tuple, dict]:
        cfg = config if attempt == 1 else dataclasses.replace(config, resume=True)
        return (cfg,), {}

    with exported_trace(config.trace_path, nprocs, trace) as trace:
        if not supervised:
            return run_spmd(nprocs, rank_main, config, trace=trace, backend=config.backend,
                            fault_plan=fault_plan, op_timeout=op_timeout)
        outcome = run_supervised(nprocs, rank_main, prepare=prepare, trace=trace,
                                 backend=config.backend, fault_plan=fault_plan,
                                 retry=retry, op_timeout=op_timeout)
    for result in outcome.results:
        if result is not None:  # None: a rank lost in a degraded-mode run
            result.faults_injected = outcome.faults_injected
            result.retries = outcome.retries
    return outcome
