"""LRU page-cache model for memory-mapped DB volumes.

"The memory mapped DB partitions stay cached in RAM after being loaded upon
the first read access" (§IV.A).  Capacity is the allocation's combined
page-cache RAM; entries are whole volumes (the unit mmap actually touches
during a scan).  The crossover this produces — all volumes resident once
``nodes × (32-app) GB ≥ total DB size`` — is the paper's superlinear region.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["PartitionCache"]


class PartitionCache:
    """Cluster-wide LRU over DB volumes keyed by partition index."""

    def __init__(self, capacity_gb: float) -> None:
        if capacity_gb < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_gb}")
        self.capacity_gb = capacity_gb
        self._entries: OrderedDict[int, float] = OrderedDict()
        self._used_gb = 0.0
        self.hits = 0
        self.misses = 0

    def access(self, partition: int, size_gb: float) -> bool:
        """Touch a volume; returns True on hit.  Misses insert + evict LRU."""
        if size_gb < 0:
            raise ValueError(f"size must be >= 0, got {size_gb}")
        if partition in self._entries:
            self._entries.move_to_end(partition)
            self.hits += 1
            return True
        self.misses += 1
        if size_gb > self.capacity_gb:
            return False  # cannot be cached at all
        while self._used_gb + size_gb > self.capacity_gb and self._entries:
            _evicted, evicted_size = self._entries.popitem(last=False)
            self._used_gb -= evicted_size
        self._entries[partition] = size_gb
        self._used_gb += size_gb
        return False
