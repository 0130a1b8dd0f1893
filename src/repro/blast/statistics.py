"""E-values, bit scores and effective search-space computation.

Implements NCBI's machinery:

- bit score  S' = (λ·S − ln K) / ln 2
- E-value    E = m'·n'·2^(−S')   over the *effective* search space
- length adjustment: the expected alignment length ℓ = ln(K·m'·n')/H removed
  from both query and database lengths (BLAST_ComputeLengthAdjustment's
  fixed-point iteration).

The DB-split override: when a partition of a larger database is searched,
``db_length_override``/``db_num_seqs_override`` supply the *full* database
size so E-values come out identical to an unsplit search — the invariant
mrblast's collate/reduce merging rests on (paper §III.A).
"""

from __future__ import annotations

import math

from repro.blast.karlin import KarlinParams

__all__ = [
    "bit_score",
    "effective_lengths",
    "SearchSpace",
]


def bit_score(raw_score: int | float, params: KarlinParams) -> float:
    """Normalised (bit) score of a raw alignment score."""
    return (params.lam * raw_score - params.log_k) / math.log(2.0)


def length_adjustment(
    params: KarlinParams, query_len: int, db_len: int, db_num_seqs: int
) -> float:
    """Expected-HSP-length correction ℓ solving ℓ = ln(K·(m−ℓ)·(n−N·ℓ))/H.

    Solved by bisection on g(ℓ) = ln(K·(m−ℓ)·(n−N·ℓ))/H − ℓ, which is
    strictly decreasing on the feasible interval, so the root is unique
    (naive fixed-point iteration — NCBI's first published algorithm —
    oscillates for tiny search spaces).  ℓ is clamped so both effective
    lengths stay positive and at most half the query is removed.
    """
    if query_len <= 0 or db_len <= 0 or db_num_seqs <= 0:
        raise ValueError("lengths and sequence count must be positive")
    K = max(params.K, 1e-300)
    hi = min(query_len / 2.0, (db_len - 1.0) / db_num_seqs)
    if hi <= 0:
        return 0.0

    def g(ell: float) -> float:
        m_eff = max(query_len - ell, 1.0)
        n_eff = max(db_len - db_num_seqs * ell, 1.0)
        return math.log(K * m_eff * n_eff) / params.H - ell

    if g(0.0) <= 0:
        return 0.0
    if g(hi) >= 0:
        return hi
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def effective_lengths(
    params: KarlinParams,
    query_len: int,
    db_len: int,
    db_num_seqs: int,
) -> tuple[float, float]:
    """(effective query length, effective DB length) after adjustment.

    Kept as floats: rounding the adjustment to whole residues (as early
    NCBI code did) makes E-values non-monotone in the database length at
    regime boundaries, which both the property suite and the DB-split
    invariant care about.
    """
    ell = length_adjustment(params, query_len, db_len, db_num_seqs)
    m_eff = max(query_len - ell, 1.0)
    n_eff = max(db_len - db_num_seqs * ell, 1.0)
    return m_eff, n_eff


class SearchSpace:
    """Engine-lifetime E-value calculator with cached length adjustments.

    λ/K/H are fixed when the engine is built, and the
    :func:`length_adjustment` bisection — the dominant per-HSP statistics
    cost — runs once per distinct ``(query_len, db_len, db_num_seqs)``
    triple instead of once per HSP per block.
    """

    def __init__(self, params: KarlinParams) -> None:
        self.params = params
        self._lengths: dict[tuple[int, int, int], tuple[float, float]] = {}

    def effective_lengths(
        self, query_len: int, db_len: int, db_num_seqs: int
    ) -> tuple[float, float]:
        key = (query_len, db_len, db_num_seqs)
        ent = self._lengths.get(key)
        if ent is None:
            ent = effective_lengths(self.params, query_len, db_len, db_num_seqs)
            self._lengths[key] = ent
        return ent

    def bit_score(self, raw_score: int | float) -> float:
        return bit_score(raw_score, self.params)

    def evalue(
        self, raw_score: int | float, query_len: int, db_len: int, db_num_seqs: int
    ) -> float:
        m_eff, n_eff = self.effective_lengths(query_len, db_len, db_num_seqs)
        log_e = (
            math.log(self.params.K)
            + math.log(m_eff)
            + math.log(n_eff)
            - self.params.lam * raw_score
        )
        if log_e > 700.0:
            return math.inf
        return math.exp(log_e)

    def evalue_to_score(
        self, target_evalue: float, query_len: int, db_len: int, db_num_seqs: int
    ) -> int:
        if target_evalue <= 0:
            raise ValueError(f"target E-value must be positive, got {target_evalue}")
        m_eff, n_eff = self.effective_lengths(query_len, db_len, db_num_seqs)
        s = (
            math.log(self.params.K)
            + math.log(m_eff)
            + math.log(n_eff)
            - math.log(target_evalue)
        ) / self.params.lam
        return max(int(math.ceil(s)), 1)


