"""Workload model: per-work-unit BLAST cost for the scaling experiments.

A work unit is one (query block, DB partition) pair.  Its compute time is
drawn from a lognormal around ``base_unit_seconds × queries/1000`` with an
occasional extreme straggler — the paper: "the BLAST search time can vary
widely for specific query and DB sequences ... some combinations of the
query blocks and DB partitions take much longer than others".  Draws are
keyed by (seed, block, partition), so a unit costs the same no matter which
worker runs it or in which order — schedulers can be compared apples to
apples.

Two factory functions configure the paper's workloads:

- :func:`nucleotide_workload` — Fig. 3/4: 109 × 1 GB partitions, 364 Gbp,
  shredded-read query blocks of 1000 or 2000, I/O-sensitive.
- :func:`protein_workload` — Fig. 5 and §IV.A: env_nr subset vs UniRef100
  in 58 partitions of 200 k sequences, CPU-bound (partitions are small and
  per-residue work is much higher).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.rng import derive_rng

__all__ = ["BlastWorkloadModel", "nucleotide_workload", "protein_workload"]


@dataclass(frozen=True)
class BlastWorkloadModel:
    """Deterministic per-unit cost model."""

    name: str
    n_blocks: int
    queries_per_block: int
    n_partitions: int
    partition_gb: float
    #: mean compute seconds for 1000 queries against one partition
    base_unit_seconds: float
    #: lognormal shape of per-unit variability
    sigma: float
    #: probability and size of extreme straggler units
    straggler_prob: float = 0.003
    straggler_factor: float = 8.0
    #: KV bytes emitted per query (hits survive to collate)
    kv_bytes_per_query: float = 400.0
    #: fraction of in-search time that is CPU (vs internal BLAST I/O)
    cpu_fraction: float = 0.92
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_blocks < 1 or self.n_partitions < 1:
            raise ValueError("need at least one block and one partition")
        if self.base_unit_seconds <= 0 or self.partition_gb <= 0:
            raise ValueError("base_unit_seconds and partition_gb must be positive")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (0 <= self.straggler_prob <= 1):
            raise ValueError("straggler_prob must be in [0, 1]")

    @property
    def n_units(self) -> int:
        return self.n_blocks * self.n_partitions

    @property
    def total_queries(self) -> int:
        return self.n_blocks * self.queries_per_block

    def compute_seconds(self, block: int, partition: int) -> float:
        """Compute time of one unit (same value for every scheduler/run)."""
        if not (0 <= block < self.n_blocks):
            raise ValueError(f"block {block} outside [0, {self.n_blocks})")
        if not (0 <= partition < self.n_partitions):
            raise ValueError(f"partition {partition} outside [0, {self.n_partitions})")
        rng = derive_rng(self.seed, self.name, block, partition)
        mean = self.base_unit_seconds * self.queries_per_block / 1000.0
        # Lognormal with the chosen mean: mu = ln(mean) - sigma^2/2.
        mu = math.log(mean) - 0.5 * self.sigma * self.sigma
        value = float(rng.lognormal(mu, self.sigma))
        if rng.random() < self.straggler_prob:
            value *= self.straggler_factor
        return value

    def kv_bytes(self, block: int, partition: int) -> float:
        """Shuffle payload this unit contributes to collate()."""
        del partition
        return self.kv_bytes_per_query * self.queries_per_block


def nucleotide_workload(
    n_queries: int,
    queries_per_block: int = 1000,
    seed: int = 0,
) -> BlastWorkloadModel:
    """The Fig. 3/4 blastn setup for a given query-set size."""
    if n_queries % queries_per_block:
        raise ValueError(
            f"{n_queries} queries do not divide into blocks of {queries_per_block}"
        )
    return BlastWorkloadModel(
        name="blastn-ranger",
        n_blocks=n_queries // queries_per_block,
        queries_per_block=queries_per_block,
        n_partitions=109,
        partition_gb=1.0,
        base_unit_seconds=20.0,
        sigma=0.50,
        straggler_prob=0.003,
        straggler_factor=5.0,
        cpu_fraction=0.85,
        seed=seed,
    )


def protein_workload(
    n_queries: int = 139_846,
    queries_per_block: int = 500,
    seed: int = 0,
) -> BlastWorkloadModel:
    """The §IV.A blastp setup: env_nr subset vs UniRef100 (58 partitions).

    Protein search is far more CPU-bound than nucleotide (remote homologies
    mean many more candidate matches per database residue), so partitions
    are small, per-unit compute huge, and variability mild — which is what
    produces the paper's near-perfect scaling (1024 cores cost only ~6 %
    more core·min/query than 512) and its 294-minute 1024-core wall time.
    """
    n_blocks = max(1, round(n_queries / queries_per_block))
    return BlastWorkloadModel(
        name="blastp-ranger",
        n_blocks=n_blocks,
        queries_per_block=queries_per_block,
        n_partitions=58,
        partition_gb=0.2,
        base_unit_seconds=2050.0,
        sigma=0.25,
        straggler_prob=0.001,
        straggler_factor=2.0,
        cpu_fraction=0.97,
        seed=seed,
    )
