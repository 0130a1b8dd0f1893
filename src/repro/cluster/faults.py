"""Fault-tolerance trade-off: the price of the MPI execution model.

"The price for this extra flexibility and portability is a lack of
fault-tolerance inherent in the underlying MPI execution model" (§II.A).
An MPI job dies whole when any rank dies; an HTC workflow only re-runs the
failed task.  This module quantifies that trade-off analytically:

- an MPI job of W cores running T hours survives with probability
  ``exp(-λ·W·T)`` for a per-core-hour failure rate λ, and the *expected*
  completed-work cost includes full restarts (geometric retry);
- the HTC workflow pays only the failed tasks again, so its expected
  overhead is ≈ λ·(core-hours)·(mean task hours).

``compare_fault_costs`` puts the two side by side for a simulated run —
at small λ·W·T the MPI path is essentially free; the crossover where
restarts start to dominate is where checkpointing or HTC decompositions
earn their keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.dispatch import SimResult

__all__ = [
    "FaultModel",
    "FaultComparison",
    "RestartObservation",
    "RestartValidation",
    "compare_fault_costs",
    "validate_restart_overhead",
]


@dataclass(frozen=True)
class FaultModel:
    """Exponential per-core failure model."""

    #: failures per core-hour (clusters see roughly 1e-6 .. 1e-4)
    failures_per_core_hour: float = 1e-5

    def __post_init__(self) -> None:
        if self.failures_per_core_hour < 0:
            raise ValueError("failure rate must be >= 0")

    def job_survival(self, cores: int, hours: float) -> float:
        """P(an MPI job of this size and length sees no failure)."""
        if cores < 1 or hours < 0:
            raise ValueError("cores must be >= 1 and hours >= 0")
        return math.exp(-self.failures_per_core_hour * cores * hours)

    def expected_mpi_attempts(self, cores: int, hours: float) -> float:
        """Expected number of full runs until one completes (geometric).

        Conservative model: a failed attempt costs a full run's core-hours
        (failures near the end dominate the expectation anyway for small
        rates).  Infinite when survival is ~0.
        """
        p = self.job_survival(cores, hours)
        if p <= 0:
            return math.inf
        return 1.0 / p

    def expected_htc_overhead_fraction(self, mean_task_hours: float) -> float:
        """Extra fraction of core-hours the HTC path re-runs on failures.

        Each failure costs one task redo: overhead ≈ λ × mean task length.
        """
        if mean_task_hours < 0:
            raise ValueError("mean_task_hours must be >= 0")
        return self.failures_per_core_hour * mean_task_hours


@dataclass(frozen=True)
class FaultComparison:
    mpi_survival: float
    mpi_expected_core_hours: float
    htc_expected_core_hours: float
    base_core_hours: float

    @property
    def mpi_overhead_fraction(self) -> float:
        return self.mpi_expected_core_hours / self.base_core_hours - 1.0

    @property
    def htc_overhead_fraction(self) -> float:
        return self.htc_expected_core_hours / self.base_core_hours - 1.0


@dataclass(frozen=True)
class RestartObservation:
    """What a supervised run with injected faults actually did.

    ``units_useful`` is the work a fault-free run executes once;
    ``units_executed`` counts every execution across all attempts (resumed
    attempts redo the part of a checkpoint interval lost to the crash);
    ``units_per_checkpoint`` is the checkpoint cadence in work units.
    """

    units_useful: int
    units_executed: int
    n_failures: int
    units_per_checkpoint: float

    def __post_init__(self) -> None:
        if self.units_useful < 1:
            raise ValueError("units_useful must be >= 1")
        if self.units_executed < self.units_useful:
            raise ValueError("units_executed cannot be below units_useful")
        if self.n_failures < 0 or self.units_per_checkpoint <= 0:
            raise ValueError("n_failures >= 0 and units_per_checkpoint > 0 required")

    @property
    def observed_overhead_fraction(self) -> float:
        """Redone work as a fraction of useful work."""
        return (self.units_executed - self.units_useful) / self.units_useful

    @property
    def predicted_overhead_fraction(self) -> float:
        """Half-interval-per-failure prediction.

        Each failure loses, on average, half a checkpoint interval of
        already-executed work; here the failure count is known (injected)
        rather than drawn from the exponential model, so the prediction is
        ``n_failures · units_per_checkpoint / 2`` redone units.
        """
        return (self.n_failures * self.units_per_checkpoint / 2.0) / self.units_useful


@dataclass(frozen=True)
class RestartValidation:
    observation: RestartObservation
    observed: float
    predicted: float

    @property
    def absolute_error(self) -> float:
        return abs(self.observed - self.predicted)

    def within(self, intervals: float = 1.0) -> bool:
        """True when observed and predicted agree to ``intervals`` checkpoint
        intervals of redone work — the half-interval mean has worst-case
        error of half an interval per failure, so the default tolerance is
        one interval (per observation, scaled by failures)."""
        budget = (
            max(self.observation.n_failures, 1)
            * self.observation.units_per_checkpoint
            * intervals
        ) / self.observation.units_useful
        return self.absolute_error <= budget


def validate_restart_overhead(observation: RestartObservation) -> RestartValidation:
    """Check a simulated (fault-injected) run against the analytic model.

    The acceptance loop for the fault-tolerance subsystem: inject a known
    number of crashes into a supervised run, count redone work units, and
    confirm the restart overhead lands where the half-interval model says
    it should.
    """
    return RestartValidation(
        observation=observation,
        observed=observation.observed_overhead_fraction,
        predicted=observation.predicted_overhead_fraction,
    )


def compare_fault_costs(
    result: SimResult,
    model: FaultModel | None = None,
    mean_task_hours: float | None = None,
) -> FaultComparison:
    """Fault-cost comparison for one simulated MR-MPI run.

    ``mean_task_hours`` defaults to the run's mean work-unit time.
    """
    model = model or FaultModel()
    hours = result.makespan / 3600.0
    cores = result.cluster.cores
    base = result.core_seconds / 3600.0
    if mean_task_hours is None:
        n_units = sum(t.units for t in result.traces)
        mean_task_hours = (result.total_compute_seconds / 3600.0) / max(n_units, 1)
    survival = model.job_survival(cores, hours)
    attempts = model.expected_mpi_attempts(cores, hours)
    return FaultComparison(
        mpi_survival=survival,
        mpi_expected_core_hours=base * attempts,
        htc_expected_core_hours=base * (1.0 + model.expected_htc_overhead_fraction(mean_task_hours)),
        base_core_hours=base,
    )
