"""Cluster hardware description and the calibrated Ranger instance.

"Each node has 16 AMD cores and 32 GB of RAM.  The shared file system is
Lustre, and no locally attached storage is available to the user programs.
... the cluster always allocates entire nodes to the MPI job, [so] total
core counts were always multiples of 16." (paper §IV)

Calibration notes (documented, not measured — see DESIGN.md):

- ``lustre_stream_gbps``: a *memory-mapped* 1 GB DB volume loads through
  4 KB page faults against Lustre; effective streaming rates in the tens of
  MB/s are typical for that access pattern, and the paper's 167 %
  superlinear efficiency at 128 cores requires the cold-load cost to be a
  large fraction of a work unit — 0.027 GB/s puts a 1 GB volume at ~37 s.
- ``ram_stream_gbps``: re-touching an already-cached mapping.
- latencies: InfiniBand-class small-message latency plus MapReduce-MPI
  bookkeeping per dispatched unit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterSpec", "ranger"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster allocation."""

    n_nodes: int
    cores_per_node: int = 16
    node_ram_gb: float = 32.0
    #: RAM unavailable for the page cache (application + OS working set:
    #: 16 BLAST processes with query/lookup/MR-MPI pages per node)
    app_ram_gb: float = 8.0
    #: effective mmap-fault streaming rate from the shared FS (GB/s);
    #: calibrated so the 80 K-query run hits the paper's 167 % efficiency
    #: anchor at 128 cores (see EXPERIMENTS.md)
    lustre_stream_gbps: float = 0.057
    #: re-read rate for volumes resident in the page cache (GB/s)
    ram_stream_gbps: float = 2.0
    #: master/worker request-assign round trip (s)
    dispatch_latency: float = 5e-4
    #: network small-message latency (s) and per-link bandwidth (GB/s)
    net_latency: float = 5e-5
    net_bw_gbps: float = 2.5
    #: effective per-core compute throughput for the SOM kernel (GFLOP/s)
    core_gflops: float = 0.5

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.cores_per_node < 1:
            raise ValueError(f"cores_per_node must be >= 1, got {self.cores_per_node}")
        if self.app_ram_gb >= self.node_ram_gb:
            raise ValueError("app_ram_gb must leave room for the page cache")

    @property
    def cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    @property
    def workers(self) -> int:
        """Worker count under master/worker mode (rank 0 only dispatches)."""
        return max(self.cores - 1, 1)

    @property
    def page_cache_gb(self) -> float:
        """Combined page-cache capacity of the allocation.

        Modelled cluster-wide (see DESIGN.md): the paper attributes its
        superlinear region to "all 109 1GB DB partitions begin[ning] to fit
        entirely into the combined RAM of the MPI process ranks".
        """
        return self.n_nodes * (self.node_ram_gb - self.app_ram_gb)

    def load_seconds(self, size_gb: float, cached: bool) -> float:
        """Time to (re)open a DB volume of ``size_gb``."""
        rate = self.ram_stream_gbps if cached else self.lustre_stream_gbps
        return size_gb / rate


def ranger(cores: int) -> ClusterSpec:
    """A Ranger allocation of ``cores`` (must be a multiple of 16)."""
    if cores < 16 or cores % 16 != 0:
        raise ValueError(f"Ranger allocates whole 16-core nodes, got {cores}")
    return ClusterSpec(n_nodes=cores // 16)
