"""Baselines the paper compares against (or replaces).

- :mod:`serial_blast` — the plain serial search over all partitions: the
  ground truth every parallel decomposition must reproduce.
- :mod:`serial_som` — serial batch/online SOM runs with the mrsom config
  surface.
"""

from repro.core.baselines.serial_blast import run_serial_blast
from repro.core.baselines.serial_som import run_serial_batch_som

__all__ = [
    "run_serial_blast",
    "run_serial_batch_som",
]
