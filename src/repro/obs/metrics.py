"""Counters, gauges and histograms behind one get-or-create registry.

The registry is the one record of every number a rank reports.  Each
instrumented component (``MapReduce``, the mrblast mapper and reducer, the
mrsom epoch loop, the resident rank loop, the query service) is handed its
rank's :class:`MetricsRegistry`, holds the instruments it bumps and writes
each number once.  Results are views: a driver returns
:meth:`MetricsRegistry.snapshot` and its result struct reads fields off it
(:func:`metric_field`); :func:`merge_snapshots` folds per-rank snapshots
into job totals.

Names are ``<layer>.<what>``, with the unit as a suffix when it is not a
count (``_s`` seconds, ``_bytes``):

- ``mr.<phase>_s`` / ``mr.<phase>_pairs`` / ``mr.<phase>_bytes`` — a
  ``MapReduce`` phase's seconds and the pairs and exact array bytes it
  staged for other ranks;
- ``sched.{speculated,wasted,reassigned}_units``, ``sched.lost_ranks`` —
  the master/worker scheduler's re-issued work and degraded-mode losses;
- ``blast.{seed,ungapped,gapped}_s``, ``blast.lookup_cache_hits``,
  ``blast.fused_rounds``, ``blast.peak_slab_bytes`` (a high-water gauge) —
  the engine, summed over a rank's work units;
- ``mrblast.{units,busy_s,partition_switches,hits_emitted,queries_written,
  hits_written,quarantined_units,map_failures}`` — the mrblast map and
  reduce callables;
- ``mrsom.{units,busy_s,init_s,bcast_s,reduce_s,smooth_s}`` — the mrsom
  epoch loop;
- ``serve.{jobs,ticks}`` — a resident rank's loop; the query service's own
  registry adds ``serve.{submitted,delivered,batches,rejected,restarts,
  resubmitted,degraded_batches,backpressure_engages}`` and the
  ``serve.latency_s`` / ``serve.batch_size`` histograms.

Everything is plain Python on purpose — a counter bump is one float add on
an instrument the caller already holds, cheap enough to sit on the shuffle
hot path.
"""

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "metric_field",
]


class Counter:
    """Monotonically increasing value (float-capable, e.g. seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def inc(self, amount=1):
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    add = inc

    def snapshot(self):
        """Return the current value."""
        return self.value


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def set(self, value):
        """Overwrite the gauge with *value*."""
        self.value = float(value)

    def raise_to(self, value):
        """Keep the larger of the gauge and *value* (a high-water mark)."""
        if value > self.value:
            self.value = float(value)

    def snapshot(self):
        """Return the current value."""
        return self.value


class Histogram:
    """Fixed-bound bucketed distribution with count/sum/min/max.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in the implicit overflow bucket.
    """

    DEFAULT_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name, bounds=DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        """Record one observation."""
        value = float(value)
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self):
        """Return ``{count, sum, min, max, bounds, buckets}``."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Get-or-create host for named instruments.

    Asking twice for the same name returns the same object; asking for an
    existing name with a different instrument kind raises.
    """

    def __init__(self):
        self._instruments = {}

    def _get(self, name, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name):
        """Get or create the :class:`Counter` called *name*."""
        return self._get(name, Counter)

    def gauge(self, name):
        """Get or create the :class:`Gauge` called *name*."""
        return self._get(name, Gauge)

    def histogram(self, name, bounds=Histogram.DEFAULT_BOUNDS):
        """Get or create the :class:`Histogram` called *name*."""
        return self._get(name, Histogram, bounds)

    def value(self, name):
        """Current value of the counter or gauge *name* (0 if never made)."""
        inst = self._instruments.get(name)
        return 0 if inst is None else inst.value

    def snapshot(self):
        """Return ``{name: snapshot}`` for every instrument, sorted."""
        return {name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)}


def merge_snapshots(snapshots):
    """Fold per-rank registry snapshots into job-level totals.

    Counters and gauges sum; histogram snapshots merge bucket-wise
    (bounds must agree).  Returns a dict shaped like a single snapshot.
    """
    merged = {}
    for snap in snapshots:
        for name, value in snap.items():
            cur = merged.get(name)
            if not isinstance(value, dict):
                merged[name] = (cur or 0.0) + value
            elif cur is None:
                merged[name] = dict(value, bounds=list(value["bounds"]),
                                    buckets=list(value["buckets"]))
            elif cur["bounds"] != list(value["bounds"]):
                raise ValueError(f"histogram {name!r}: mismatched bounds")
            else:
                cur["count"] += value["count"]
                cur["sum"] += value["sum"]
                cur["min"] = min((m for m in (cur["min"], value["min"]) if m is not None),
                                 default=None)
                cur["max"] = max((m for m in (cur["max"], value["max"]) if m is not None),
                                 default=None)
                cur["buckets"] = [a + b for a, b in zip(cur["buckets"], value["buckets"])]
    return dict(sorted(merged.items()))


def metric_field(name, kind=float):
    """A read-only result attribute backed by ``self.metrics[name]``.

    Result structs hold their rank's registry snapshot in a ``metrics``
    field and declare each reported number as ``units = metric_field(
    "mrblast.units", int)``: the number lives in the snapshot only, and a
    metric the rank never touched reads as zero.
    """
    return property(lambda self: kind(self.metrics.get(name, 0)),
                    doc=f"``{name}`` of :attr:`metrics`.")
