"""Dict-of-arrays word lookup: the parity oracle for ``repro.blast.lookup``.

The pre-CSR implementation, kept out of the shipped package: a Python dict
from packed word to query positions, built position by position (protein:
one neighbourhood cube per position), scanned with ``np.isin`` and a loop
over the matching windows.  ``tests/blast/test_lookup_csr.py`` asserts that
the production presence-vector + CSR scan returns the same hits in the same
order, element for element; ``benchmarks/bench_seeding.py`` times the
production builders against these.

Self-contained on purpose: word packing and window masking are this file's
own, so a mistake in the package's helpers cannot cancel out.
"""

from __future__ import annotations

import numpy as np

from repro.blast.matrices import BLOSUM62

__all__ = ["ReferenceNucleotideLookup", "ReferenceProteinLookup"]


def _pack_words(codes: np.ndarray, word_size: int, alphabet_size: int) -> np.ndarray:
    """Packed integer of every window of ``word_size`` letters."""
    n = codes.size - word_size + 1
    words = np.zeros(max(n, 0), dtype=np.int64)
    for k in range(word_size):
        words = words * alphabet_size + codes[k : k + max(n, 0)].astype(np.int64)
    return words


def _window_unmasked(mask: np.ndarray, word_size: int) -> np.ndarray:
    """True where a window of ``word_size`` contains no masked position."""
    if mask.size < word_size:
        return np.empty(0, dtype=bool)
    masked_before = np.concatenate(([0], np.cumsum(mask)))
    return masked_before[word_size:] == masked_before[:-word_size]


class _DictLookupBase:
    """Dict-based word table + per-matching-window scan loop."""

    word_size: int
    alphabet_size: int

    def __init__(self, block) -> None:
        self.block = block
        self._table: dict[int, np.ndarray] = {}
        self._build()
        self._keys = np.array(sorted(self._table), dtype=np.int64)

    def _build(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def n_words(self) -> int:
        return len(self._table)

    def scan(self, subject_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sub = subject_codes
        if self.alphabet_size == 20:
            valid = _window_unmasked(sub >= 20, self.word_size)
            words = _pack_words(np.minimum(sub, 19), self.word_size, self.alphabet_size)
            words = np.where(valid, words, -1)
        else:
            words = _pack_words(sub, self.word_size, self.alphabet_size)
        if words.size == 0 or self._keys.size == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        candidate = np.isin(words, self._keys)
        q_out: list[np.ndarray] = []
        s_out: list[np.ndarray] = []
        for spos in np.nonzero(candidate)[0]:
            qpositions = self._table[int(words[spos])]
            q_out.append(qpositions)
            s_out.append(np.full(qpositions.size, spos, dtype=np.int64))
        if not q_out:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(q_out), np.concatenate(s_out)


class ReferenceNucleotideLookup(_DictLookupBase):
    """Per-position nucleotide builder."""

    def __init__(self, block, word_size: int = 11) -> None:
        self.word_size = word_size
        self.alphabet_size = 4
        super().__init__(block)

    def _build(self) -> None:
        table: dict[int, list[int]] = {}
        for ctx in self.block.contexts:
            words = _pack_words(ctx.codes, self.word_size, 4)
            usable = _window_unmasked(ctx.mask, self.word_size)
            for local_pos in np.nonzero(usable)[0]:
                table.setdefault(int(words[local_pos]), []).append(ctx.offset + int(local_pos))
        self._table = {w: np.array(ps, dtype=np.int64) for w, ps in table.items()}


class ReferenceProteinLookup(_DictLookupBase):
    """Per-position neighbourhood-cube builder."""

    def __init__(self, block, word_size: int = 3, threshold: int = 11) -> None:
        if word_size != 3:
            raise ValueError(f"protein lookup supports word_size 3, got {word_size}")
        self.word_size = word_size
        self.alphabet_size = 20
        self.threshold = threshold
        super().__init__(block)

    def _build(self) -> None:
        B = BLOSUM62[:20, :20]
        table: dict[int, list[int]] = {}
        for ctx in self.block.contexts:
            codes = ctx.codes
            usable = _window_unmasked(ctx.mask | (codes >= 20), self.word_size)
            n = codes.size - self.word_size + 1
            for local_pos in range(max(n, 0)):
                if not usable[local_pos]:
                    continue
                a, b, c = codes[local_pos], codes[local_pos + 1], codes[local_pos + 2]
                scores = (
                    B[a][:, None, None] + B[b][None, :, None] + B[c][None, None, :]
                )
                hits = np.nonzero(scores >= self.threshold)
                words = hits[0] * 400 + hits[1] * 20 + hits[2]
                gpos = ctx.offset + local_pos
                for w in words:
                    table.setdefault(int(w), []).append(gpos)
        self._table = {w: np.array(ps, dtype=np.int64) for w, ps in table.items()}
