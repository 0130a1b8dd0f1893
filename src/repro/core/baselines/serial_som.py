"""Serial SOM baseline with the mrsom configuration surface.

Runs :class:`repro.som.batch.BatchSOM` over the same memory-mapped matrix
file the parallel driver consumes, with identical initialisation and radius
schedule — so ``run_serial_batch_som(cfg)`` and ``mrsom_spmd(P, cfg)`` are
comparable bit-for-bit (up to floating-point summation order).
"""

from __future__ import annotations

import numpy as np

from repro.core.mrsom.driver import MrSomConfig
from repro.core.mrsom.mmap_input import MatrixFile
from repro.som.batch import BatchSOM, accumulate_classes, batch_update, smooth_classes
from repro.som.codebook import init_codebook

__all__ = ["run_serial_batch_som"]


def run_serial_batch_som(config: MrSomConfig) -> np.ndarray:
    """Train serially with exactly the parallel driver's schedule and init."""
    matrix = MatrixFile(config.matrix_path)
    grid = config.grid
    sample = matrix.rows(0, min(config.init_sample_rows, matrix.n))
    codebook = init_codebook(grid, sample, method=config.init, seed_or_rng=config.seed)
    sigmas = BatchSOM(grid, matrix.dim, initial_radius=config.initial_radius,
                      final_radius=config.final_radius).radii(config.epochs)
    k = grid.n_units
    for sigma in sigmas:
        sums, counts = np.zeros((k, matrix.dim)), np.zeros(k)
        codebook_sq = (codebook**2).sum(axis=1)
        # Walk the same work units the parallel driver would, in order.
        for start, stop in matrix.work_units(config.block_rows):
            accumulate_classes(matrix.rows(start, stop), codebook, sums, counts, codebook_sq)
        num, denom = smooth_classes(grid, float(sigma), sums, counts)
        codebook = batch_update(codebook, num, denom)
    return codebook
