"""Rank-aware logging.

All library components log through :func:`get_logger`; code running inside an
SPMD region uses :func:`rank_logger` so that each line is prefixed with the
MPI rank, matching how one reads interleaved per-rank output from a real MPI
job.  Logging defaults to WARNING so tests and benchmarks stay quiet.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "rank_logger"]

_ROOT_NAME = "repro"
_configured = False


def _ensure_configured() -> None:
    global _configured
    if _configured:
        return
    root = logging.getLogger(_ROOT_NAME)
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s", "%H:%M:%S")
        )
        root.addHandler(handler)
    root.setLevel(logging.WARNING)
    _configured = True


def get_logger(name: str) -> logging.Logger:
    """Return a logger namespaced under the package root."""
    _ensure_configured()
    if not name.startswith(_ROOT_NAME):
        name = f"{_ROOT_NAME}.{name}"
    return logging.getLogger(name)


def rank_logger(name: str, rank: int) -> logging.LoggerAdapter:
    """Logger whose records carry the originating MPI rank."""
    base = get_logger(name)
    return logging.LoggerAdapter(base, extra={"rank": rank})


