"""Always-on BLAST query service over the resident SPMD runtime.

The one-shot drivers in ``repro.core.mrblast`` spawn ranks, load the
database and tear everything down per call.  This package keeps the ranks
*resident*: they come up once, hold warm DB partitions and lookup caches,
and serve a stream of queries coalesced into query blocks.

Layers (front to back):

- :mod:`repro.serve.service` — :class:`QueryService`: async submit /
  future-based results, a ``max_pending`` intake cap, backpressure, crash
  restart with exactly-once delivery.
- :mod:`repro.serve.coalescer` — one FIFO of submissions, batched on
  max-delay/size/idle triggers on an injected clock, up to a fixed
  ``max_batch``.
- :mod:`repro.serve.admission` — the refusal type and the watermark
  backpressure gauge.
- :mod:`repro.serve.session` — the resident rank loop itself.
- :mod:`repro.serve.cli` — the ``mrblast-serve`` console entry point.
"""

from repro.serve.admission import AdmissionError, BackpressureGauge
from repro.serve.coalescer import Coalescer, QueryBatch, Submission
from repro.serve.service import DeliveryLedger, QueryFuture, QueryService
from repro.serve.session import (
    BlockJob,
    BlockResult,
    ResidentBlastSession,
    ServeConfig,
    serve_rank_main,
)

__all__ = [
    "QueryService",
    "QueryFuture",
    "DeliveryLedger",
    "ServeConfig",
    "ResidentBlastSession",
    "BlockJob",
    "BlockResult",
    "serve_rank_main",
    "Coalescer",
    "Submission",
    "QueryBatch",
    "AdmissionError",
    "BackpressureGauge",
]
