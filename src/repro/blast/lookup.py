"""Stage 1 of BLAST: word lookup tables over a query block.

NCBI BLAST "iteratively loads the next concatenated subset of query
sequences, builds a word lookup table out of them, and streams the database
past this lookup table" (paper §II.B).  This module is that machinery:

- a :class:`QueryBlock` concatenates the encoded queries (both strands for
  nucleotide searches) into *contexts* with offset bookkeeping;
- :class:`NucleotideLookup` indexes exact packed words (default size 11);
- :class:`ProteinLookup` indexes BLOSUM62 *neighbourhood* words of size 3
  scoring at least T against a query word, which is what lets blastp find
  remote homologies (and why protein search examines many more candidate
  matches — the CPU-bound behaviour the paper's Fig. 5 relies on).

The word table is a flat CSR (compressed sparse row) layout: one sorted
array of distinct word ids, one offsets array, and one concatenated
postings array of query positions, behind a *presence vector* (NCBI's PV
array): a ``bool`` per value of ``word & mask`` saying whether any query
word has it.  ``scan()`` packs the subject's words, drops with one table
gather the ~95 % of windows no query word can match, binary-searches the
survivors against the word array (``np.searchsorted``, the exact join that
also settles hash collisions), and gathers the postings ranges — with no
Python-level loop over matching windows.  The per-work-unit fixed cost of
building the table is what the paper's Fig. 4/Fig. 5 block-size analysis is
about, so the builders work on the concatenated block, never context by
context (one encode, one DUST pass, one mask scan that voids the windows
straddling a context boundary, one word pack), and whole tables can be
reused across DB partitions through :class:`LookupCache`.

``tests/oracles/dict_lookup.py`` holds the original dict-of-arrays
implementation; the parity suite asserts ``scan()`` reproduces its hits
element for element, in order.

Soft-masked query positions (DUST/SEG) produce no words, but extensions may
still run through them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import SeqRecord, reverse_complement
from repro.blast.dust import dust_mask_batch
from repro.blast.matrices import BLOSUM62
from repro.blast.seg import seg_mask

__all__ = [
    "QueryContext",
    "QueryBlock",
    "NucleotideLookup",
    "ProteinLookup",
    "LookupCache",
    "block_fingerprint",
    "nucleotide_postings",
]


@dataclass
class QueryContext:
    """One searchable strand of one query sequence."""

    query_index: int
    strand: int  # +1 or -1
    codes: np.ndarray  # encoded residues of this strand
    mask: np.ndarray  # True = soft-masked (no seeding)
    offset: int = 0  # start position in the concatenated coordinate space

    @property
    def length(self) -> int:
        return int(self.codes.size)

    @property
    def codes_index(self) -> np.ndarray:
        """``codes`` as an ``intp`` index array, converted once and cached.

        Every extension-stage matrix gather indexes with these, so the
        conversion is hoisted here — one copy per context for the life of
        the block (shared across subjects, partitions, and the
        :class:`LookupCache`) instead of one per kernel call.
        """
        idx = getattr(self, "_codes_index", None)
        if idx is None:
            idx = self.codes.astype(np.intp)
            self._codes_index = idx
        return idx


class QueryBlock:
    """Concatenated query contexts with global-position bookkeeping.

    All strands of the block are encoded with one table lookup over their
    joined text and (blastn) DUST-masked in one batched pass; ``codes`` and
    ``mask`` are the whole block in concatenated coordinates, and every
    context's ``codes`` / ``mask`` is a view of its stretch of them.
    """

    def __init__(self, records: Sequence[SeqRecord], program: str, use_mask: bool) -> None:
        if not records:
            raise ValueError("query block must contain at least one sequence")
        self.records = list(records)
        self.program = program
        nucleotide = program == "blastn"
        strands: list[tuple[int, int, str]] = []
        for qi, rec in enumerate(self.records):
            strands.append((qi, 1, rec.seq))
            if nucleotide:
                strands.append((qi, -1, reverse_complement(rec.seq)))
        ends = np.cumsum([len(seq) for _, _, seq in strands], dtype=np.int64)
        self.total_length = int(ends[-1])
        self._starts = np.concatenate(([0], ends[:-1]))
        self.codes = (DNA if nucleotide else PROTEIN).encode("".join(seq for _, _, seq in strands))
        pieces = np.split(self.codes, ends[:-1])
        if not use_mask:
            self.mask = np.zeros(self.total_length, dtype=bool)
        elif nucleotide:
            self.mask = np.concatenate(dust_mask_batch(pieces))
        else:
            self.mask = np.concatenate([seg_mask(seq) for _, _, seq in strands])
        self.contexts = [
            QueryContext(qi, strand, codes, mask, int(offset))
            for (qi, strand, _), codes, mask, offset in zip(
                strands, pieces, np.split(self.mask, ends[:-1]), self._starts
            )
        ]

    @property
    def concat_index(self) -> np.ndarray:
        """The whole block's codes as one ``intp`` array, cached per block.

        Contexts are laid out back to back (``ctx.offset`` strides by
        ``ctx.length``), so this is the block in concatenated coordinates:
        the fused scheduler gathers matrix rows for hits of *all* contexts
        from it in one fancy-index instead of one gather per (subject,
        context) pair.
        """
        idx = getattr(self, "_concat_index", None)
        if idx is None:
            idx = self.codes.astype(np.intp)
            self._concat_index = idx
        return idx

    def context_of(self, concat_pos: int | np.ndarray):
        """Context index (or array of indices) for concatenated positions."""
        return np.searchsorted(self._starts, concat_pos, side="right") - 1

    def localize(self, concat_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised (context indices, context-local positions)."""
        ctx = np.searchsorted(self._starts, concat_pos, side="right") - 1
        return ctx, concat_pos - self._starts[ctx]


def block_fingerprint(records: Sequence[SeqRecord]) -> tuple:
    """Content identity of a query block, for :class:`LookupCache` keys.

    ``hash(str)`` is cached on the string object, so repeated fingerprints
    of the same records are O(1) per record after the first call.
    """
    return tuple((rec.id, len(rec.seq), hash(rec.seq)) for rec in records)


class LookupCache:
    """LRU cache of built ``(QueryBlock, lookup table)`` pairs.

    The DB side of mrblast already caches the open partition per rank; this
    is the query-side mirror the paper's locality-aware dispatch needs: a
    block searched against *m* partitions builds its lookup table once, not
    *m* times.  Keys must capture block content and every option that shapes
    the table (see ``_EngineBase._lookup_key``).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, block, lookup) -> None:
        self._entries[key] = (block, lookup)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


def _join_words(high: np.ndarray, n_high: int, low: np.ndarray, n_low: int) -> np.ndarray:
    """Words of ``n_high + n_low`` two-bit letters at every position, from the
    words of ``n_high`` and of ``n_low`` letters at every position, held in
    the narrowest type that has the bits."""
    letters = n_high + n_low
    m = high.size - n_low
    out = high[:m].astype(np.int64 if letters > 16 else np.min_scalar_type(4**letters - 1))
    out <<= 2 * n_low
    out |= low[n_high : n_high + m]
    return out


def _pack_words(codes: np.ndarray, word_size: int, alphabet_size: int) -> np.ndarray:
    """Packed integer of every window of ``word_size`` letters (vectorised).

    Two-bit letters are packed by shift-or doubling: words of 1, 2, 4, ...
    letters, each pass joining two shorter words, then the powers of two
    that make up ``word_size`` joined high to low (11 = 8 + 2 + 1: five
    passes over the subject, the early ones a byte a word).  Other alphabets
    take one Horner pass a letter.
    """
    n = codes.size - word_size + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    if alphabet_size != 4:
        c = codes.astype(np.int64)
        words = c[:n]
        for k in range(1, word_size):
            words = words * alphabet_size + c[k : k + n]
        return words
    powers = [codes.astype(np.uint8, copy=False)]  # powers[k][i]: the 2**k letters from i
    span = 1
    while 2 * span <= word_size:
        powers.append(_join_words(powers[-1], span, powers[-1], span))
        span *= 2
    words, have = powers[-1], span
    for k in range(len(powers) - 2, -1, -1):
        if (word_size - span) >> k & 1:
            words = _join_words(words, have, powers[k], 1 << k)
            have += 1 << k
    return words.astype(np.int64, copy=False)


def _window_unmasked(mask: np.ndarray, word_size: int) -> np.ndarray:
    """True where a window of ``word_size`` contains no masked position."""
    if mask.size < word_size:
        return np.empty(0, dtype=bool)
    masked_before = np.concatenate(([0], np.cumsum(mask)))
    return masked_before[word_size:] == masked_before[:-word_size]


def _word_starts(block: QueryBlock, word_size: int, bad: np.ndarray | None = None) -> np.ndarray:
    """Block position of every query window a lookup may index.

    One pass over the concatenated block: a window is usable when it touches
    no soft-masked (or ``bad``) position and lies inside one context, so the
    ``word_size - 1`` windows that straddle each context boundary are voided.
    Ascending, which is context by context in offset order.
    """
    usable = _window_unmasked(block.mask if bad is None else block.mask | bad, word_size)
    void = (block._starts[1:, None] - np.arange(1, word_size)).ravel()
    usable[void[(void >= 0) & (void < usable.size)]] = False
    return np.flatnonzero(usable)


def nucleotide_postings(block: QueryBlock, word_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(packed word, block position)`` of every usable query window."""
    starts = _word_starts(block, word_size)
    return _pack_words(block.codes, word_size, 4)[starts], starts


def _csr_rows(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather of CSR rows: the entries ``offsets[r] .. offsets[r + 1]`` of
    every ``r`` in ``rows``, back to back, and how many each row has."""
    row_starts = offsets[rows]
    counts = offsets[rows + 1] - row_starts
    ends = np.cumsum(counts)
    flat = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(ends - counts, counts)
    flat += np.repeat(row_starts, counts)
    return flat, counts


#: entries of a lookup's presence vector (NCBI's PV array): one ``bool`` per
#: value of ``word & (_PV_SIZE - 1)``, true where some query word has that
#: value.  Exact where every word fits (protein 3-mers, blastn words up to
#: 9), a hash for longer words; protein's -1 (unscannable window) lands on
#: the last entry, which no 3-mer sets.  256 KiB per lookup, so it stays in
#: cache beside the subject stream and costs a :class:`LookupCache` entry
#: little (an exact ``4**11`` table is 4 MiB an entry and scanned slower).
_PV_SIZE = 1 << 18


class _LookupBase:
    """Shared CSR machinery: presence vector + searchsorted join."""

    word_size: int
    alphabet_size: int

    def __init__(self, block: QueryBlock) -> None:
        self.block = block
        words, positions = self._build_postings()
        # Stable sort by word: postings of one word stay position-ascending
        # (the builders emit block positions in ascending order), the order
        # stage 2's admission relies on.
        order = np.argsort(words, kind="stable")
        sorted_words = words[order]
        self._positions = positions[order]
        # Words are non-negative: -1 opens the first row of a non-empty table.
        starts = np.flatnonzero(np.diff(sorted_words, prepend=-1))
        self._words = sorted_words[starts]
        self._offsets = np.append(starts, sorted_words.size)
        self._pv = np.zeros(_PV_SIZE, dtype=bool)
        self._pv[self._words & (_PV_SIZE - 1)] = True

    # subclasses return parallel (word, concat query position) arrays
    def _build_postings(self) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    @property
    def n_words(self) -> int:
        return int(self._words.size)

    @property
    def n_postings(self) -> int:
        return int(self._positions.size)

    def postings(self, word: int) -> np.ndarray:
        """Query positions indexed under ``word`` (empty when absent)."""
        i = int(np.searchsorted(self._words, word))
        if i >= self._words.size or self._words[i] != word:
            return np.empty(0, dtype=np.int64)
        return self._positions[self._offsets[i] : self._offsets[i + 1]]

    def _subject_words(self, subject_codes: np.ndarray) -> np.ndarray:
        """Packed word of every subject window; -1 for unscannable windows."""
        sub = subject_codes
        if self.alphabet_size == 20:
            # Protein subjects may contain ambiguity codes >= 20: windows
            # containing them cannot be looked up (give them an impossible
            # word id so they never match).
            valid = _window_unmasked(sub >= 20, self.word_size)
            words = _pack_words(np.minimum(sub, 19), self.word_size, self.alphabet_size)
            return np.where(valid, words, -1)
        return _pack_words(sub, self.word_size, self.alphabet_size)

    def scan(self, subject_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All word hits against one subject.

        Returns ``(query_concat_positions, subject_positions)`` arrays of
        equal length.  The presence vector discards the windows whose word
        (or word hash) no query word shares with one table gather; one
        ``searchsorted`` joins the survivors against the CSR word array,
        and the postings ranges of the matching windows are gathered with
        a single fancy-index — no Python-level loop at any size.
        """
        words = self._subject_words(subject_codes)
        cand = np.flatnonzero(self._pv.take(words & (_PV_SIZE - 1)))
        if cand.size == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        words = words[cand]
        idx = np.searchsorted(self._words, words)
        # A set PV entry means the table is not empty; a hash collision can
        # still point past its last word.
        exact = np.flatnonzero(self._words[np.minimum(idx, self._words.size - 1)] == words)
        if exact.size == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        flat, counts = _csr_rows(self._offsets, idx[exact])
        return self._positions[flat], np.repeat(cand[exact], counts)


class NucleotideLookup(_LookupBase):
    """Exact-word lookup (blastn stage-1), built by sort over packed words."""

    def __init__(self, block: QueryBlock, word_size: int = 11) -> None:
        if word_size < 4 or word_size > 31:
            raise ValueError(f"nucleotide word_size must be in [4, 31], got {word_size}")
        self.word_size = word_size
        self.alphabet_size = 4
        super().__init__(block)

    def _build_postings(self) -> tuple[np.ndarray, np.ndarray]:
        return nucleotide_postings(self.block, self.word_size)


#: threshold -> (neighbour words int16, offsets int64 of length 8001): row t
#: holds every word scoring >= threshold against query triple t.  Computed
#: once per process per threshold and shared by every block build — the
#: neighbourhood of a word depends only on the scoring matrix, never on the
#: query, so this is the "per-residue neighbour columns" precomputation that
#: turns the per-block build into a pure gather.
_NEIGHBOR_CSR_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _neighbor_csr(threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of BLOSUM62 3-mer neighbourhoods for every possible query triple."""
    entry = _NEIGHBOR_CSR_CACHE.get(threshold)
    if entry is not None:
        return entry
    B = BLOSUM62[:20, :20].astype(np.int16)
    words_parts: list[np.ndarray] = []
    counts = np.empty(8000, dtype=np.int64)
    # One first-residue slab at a time keeps the (b, c, x, y, z) score
    # broadcast at 20^5 = 3.2M int16 cells.
    for a in range(20):
        scores = (
            B[a][None, None, :, None, None]
            + B[:, None, None, :, None]
            + B[None, :, None, None, :]
        )
        b_i, c_i, x_i, y_i, z_i = np.nonzero(scores >= threshold)
        # np.nonzero is row-major: grouped by query triple (b, c), with
        # neighbour words ascending within each triple.
        words_parts.append((x_i * 400 + y_i * 20 + z_i).astype(np.int16))
        counts[a * 400 : (a + 1) * 400] = np.bincount(b_i * 20 + c_i, minlength=400)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    entry = (np.concatenate(words_parts), offsets)
    _NEIGHBOR_CSR_CACHE[threshold] = entry
    return entry


class ProteinLookup(_LookupBase):
    """Neighbourhood-word lookup (blastp stage-1).

    For each query word position, every word of the 20-letter alphabet whose
    BLOSUM62 score against the query word is at least ``threshold`` (T) is
    added to the table pointing back at that position.  The per-triple
    neighbourhoods come from the process-wide :func:`_neighbor_csr` table,
    so building a block's postings is one vectorised gather over the
    block's query triples — no per-position cube enumeration.
    """

    def __init__(self, block: QueryBlock, word_size: int = 3, threshold: int = 11) -> None:
        if word_size != 3:
            raise ValueError(f"protein lookup supports word_size 3, got {word_size}")
        self.word_size = word_size
        self.alphabet_size = 20
        self.threshold = threshold
        super().__init__(block)

    def _build_postings(self) -> tuple[np.ndarray, np.ndarray]:
        nbr_words, nbr_offsets = _neighbor_csr(self.threshold)
        block = self.block
        starts = _word_starts(block, self.word_size, bad=block.codes >= 20)
        codes = block.concat_index
        triples = codes[starts] * 400 + codes[starts + 1] * 20 + codes[starts + 2]
        flat, counts = _csr_rows(nbr_offsets, triples)
        return nbr_words[flat].astype(np.int64), np.repeat(starts, counts)
