"""Self-Organizing Maps: online and batch trainers (paper §II.D).

A SOM is a grid of K neurons, each carrying an n-dimensional weight vector;
the matrix of all weight vectors is the *codebook*.  Training pulls weight
vectors toward input patterns, with a neighbourhood kernel coupling nearby
neurons so the map becomes a topology-preserving projection.

- :class:`~repro.som.online.OnlineSOM` — Kohonen's original sequential rule
  (Eqs. 1-4): one input at a time, learning rate α(t) and shrinking
  neighbourhood σ(t).
- :class:`~repro.som.batch.BatchSOM` — the "batch" formulation (Eq. 5): all
  updates applied at the end of an epoch from neighbourhood-weighted sums.
  Batch training is *independent of input order*, which is what makes the
  MapReduce parallelisation exact rather than approximate.

An epoch is accumulate → reduce → smooth, exposed as two standalone kernels:
:func:`~repro.som.batch.accumulate_classes` adds a block into the per-BMU
class sums, :func:`~repro.som.batch.smooth_classes` applies the
neighbourhood to the reduced sums, one grid axis at a time.  The parallel
implementation in :mod:`repro.core.mrsom` runs the same two functions — the
parallel == serial parity tests rest on that.
"""

from repro.som.codebook import SOMGrid, init_codebook
from repro.som.neighborhood import gaussian_kernel, bubble_kernel, radius_schedule
from repro.som.bmu import best_matching_units, pairwise_sq_distances
from repro.som.batch import (
    BatchSOM, accumulate_batch, accumulate_classes, batch_update, smooth_classes,
)
from repro.som.online import OnlineSOM
from repro.som.umatrix import umatrix, component_planes
from repro.som.quality import quantization_error, topographic_error
from repro.som.classify import classify, label_units, propagate_labels
from repro.som.export import codebook_to_rgb, write_pgm, write_ppm

__all__ = [
    "SOMGrid",
    "init_codebook",
    "gaussian_kernel",
    "bubble_kernel",
    "radius_schedule",
    "best_matching_units",
    "pairwise_sq_distances",
    "BatchSOM",
    "accumulate_batch",
    "accumulate_classes",
    "smooth_classes",
    "batch_update",
    "OnlineSOM",
    "umatrix",
    "component_planes",
    "quantization_error",
    "topographic_error",
    "classify",
    "label_units",
    "propagate_labels",
    "write_pgm",
    "write_ppm",
    "codebook_to_rgb",
]
