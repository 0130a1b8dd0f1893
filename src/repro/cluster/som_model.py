"""Performance model of the MR-MPI batch SOM (Fig. 6).

Per epoch (accumulate → reduce → smooth): map over vector blocks (uniform
compute — a block costs 2·rows·K·dim for the BMU distance matmul plus the
class-sum scatter, and every 40-vector block costs the same), one allreduce
of the class sums and counts, 2·K·K·dim of neighbourhood smoothing split
over the cores, and one all-gather of the new codebook: the flow that holds
the paper's 96 % at 1024 cores (``repro.core.mrsom`` smooths separably on
the master instead, cheaper below ~800 cores: DESIGN.md §5).  The paper
chose input sizes that are multiples of the core counts ("81,920 random
vectors (the multiple of our core counts)"), so blocks divide evenly and the
map is balance-perfect; the model distributes blocks round-robin over all
cores accordingly (the master's bookkeeping is negligible next to a 51-MFLOP
block and the paper notes master/worker "is not as critical" here).

Collectives are modelled as pipelined large-message trees:
``log2(P)·latency + 2·payload/bandwidth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.machine import ClusterSpec
from repro.util.rng import derive_rng

__all__ = ["SomScalingModel", "SomSimResult", "simulate_som_run"]


@dataclass(frozen=True)
class SomScalingModel:
    """The Fig. 6 workload: 81 920 × 256-d vectors, 50×50 map, 40-row blocks."""

    n_vectors: int = 81_920
    dim: int = 256
    map_rows: int = 50
    map_cols: int = 50
    block_rows: int = 40
    epochs: int = 100
    #: calibrated flops of one epoch per (vector, unit, dimension): the BMU
    #: distance matmul (2), argmin and class-sum scatter, and the epoch's
    #: smoothing amortised over the vectors (2K/N).  The Fig. 6 anchor fixes
    #: the total; how it splits between map and smoothing does not move it.
    flops_per_element: float = 3.5
    #: False leaves the once-per-epoch smoothing on one core (the Amdahl
    #: ablation: why the driver splits it into rank-owned strips)
    split_smoothing: bool = True
    #: relative jitter of per-block times (cache effects etc.)
    jitter: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_vectors < 1 or self.dim < 1 or self.block_rows < 1:
            raise ValueError("n_vectors, dim and block_rows must be positive")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def map_units(self) -> int:
        return self.map_rows * self.map_cols

    @property
    def n_blocks(self) -> int:
        return -(-self.n_vectors // self.block_rows)

    @property
    def codebook_gb(self) -> float:
        # platform single-precision floats, as the paper's dense matrix
        return self.map_units * self.dim * 4 / 1e9

    @property
    def smooth_flops(self) -> float:
        """Neighbourhood applied once per epoch to the reduced class sums."""
        return 2.0 * self.map_units * self.map_units * self.dim

    def block_seconds(self, cluster: ClusterSpec, block: int) -> float:
        rows = min(self.block_rows, self.n_vectors - block * self.block_rows)
        speed = cluster.core_gflops * 1e9
        base = rows * self.map_units * self.dim * self.flops_per_element / speed
        rng = derive_rng(self.seed, "somblock", block)
        # the (jittered) calibrated total less this block's share of the smoothing
        share = self.smooth_flops * rows / self.n_vectors / speed
        return base * (1.0 + self.jitter * float(rng.standard_normal())) - share


@dataclass
class SomSimResult:
    cluster: ClusterSpec
    model: SomScalingModel
    makespan: float
    compute_seconds: float
    comm_seconds: float

    @property
    def core_seconds(self) -> float:
        return self.makespan * self.cluster.cores

    def efficiency_vs(self, baseline: "SomSimResult") -> float:
        return baseline.core_seconds / self.core_seconds


def _pipelined_collective(cluster: ClusterSpec, payload_gb: float) -> float:
    rounds = max(1, math.ceil(math.log2(max(cluster.cores, 2))))
    return rounds * cluster.net_latency + 2.0 * payload_gb / cluster.net_bw_gbps


def simulate_som_run(cluster: ClusterSpec, model: SomScalingModel) -> SomSimResult:
    """Closed-form epoch assembly (blocks round-robin over all cores)."""
    per_core_seconds = [0.0] * cluster.cores
    for block in range(model.n_blocks):
        per_core_seconds[block % cluster.cores] += model.block_seconds(cluster, block)
    map_epoch = max(per_core_seconds)
    smooth_total = model.smooth_flops / (cluster.core_gflops * 1e9)
    compute_epoch = sum(per_core_seconds) + smooth_total
    smooth_epoch = smooth_total / cluster.cores if model.split_smoothing else smooth_total
    # all-gather(codebook strips) + allreduce(class sums and counts: the
    # reduce and the bcast of the totals pipeline, moving 2x the payload).
    comm_epoch = _pipelined_collective(cluster, model.codebook_gb) + _pipelined_collective(
        cluster, 2.0 * model.codebook_gb
    )
    dispatch_epoch = cluster.dispatch_latency * model.n_blocks / cluster.cores
    makespan = model.epochs * (map_epoch + smooth_epoch + comm_epoch + dispatch_epoch)
    return SomSimResult(
        cluster=cluster,
        model=model,
        makespan=makespan,
        compute_seconds=model.epochs * compute_epoch,
        comm_seconds=model.epochs * comm_epoch,
    )
