"""Ground truth: the engine against exhaustive Smith-Waterman on planted homologs.

Every other engine-level check in the suite is new path == old path.  This
one asks what the heuristics cost: per cell of (length, divergence), 40
query/subject pairs with a planted homolog are scored by
``oracles.smith_waterman.smith_waterman_score`` (no seeding, no band, no
X-drop) and searched by the engine, once at the default gap trigger and once
with the old ``ungapped_cutoff_bits=12.0``, which admits every word hit.
The reference set is the pairs whose optimal score reaches the E-value
cutoff score: what a search with no heuristics at all could report.

Pinned here: the engine never scores above the optimum; where homology is
clear (400-bp reads, <= 20 % divergence) it finds every reportable pair and
nearly always the optimal score; the gap trigger (27 bits blastn, 22 bits
blastp) loses next to nothing against admitting everything; and the
containment rule (a seed inside an alignment already found is not extended
again) changes no byte of any cell's output.  The printed table is recorded
in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.bio import SeqRecord, mutate_dna, random_genome, synthetic_protein_database
from repro.bio.alphabet import DNA, PROTEIN
from repro.blast.engine import make_engine
from repro.blast.options import BlastOptions
from repro.blast.tabular import format_tabular

from oracles.smith_waterman import smith_waterman_score
from oracles.staged_scheduler import no_containment

PAIRS = 40
EVALUE = 1e-4
NT_CELLS = [(n, r) for n in (100, 400) for r in (0.05, 0.15, 0.20, 0.25, 0.30, 0.35)]
AA_CELLS = [(n, r) for n in (80, 300) for r in (0.30, 0.45, 0.60, 0.75)]
TRIGGERS = {"default": {}, "12 bits": {"ungapped_cutoff_bits": 12.0}}


class _Subjects:
    """The partition surface the engine iterates, over in-memory records."""

    def __init__(self, records, alphabet):
        self._records, self._alphabet = records, alphabet
        self.name = "planted"
        self.num_seqs = len(records)
        self.total_length = sum(len(r.seq) for r in records)

    def __iter__(self):
        for r in self._records:
            yield r.id, self._alphabet.encode(r.seq)


def _nt_pairs(length, rate):
    """Reads and, per read, a subject holding its mutated copy between two
    300-bp random flanks."""
    rng = np.random.default_rng([length, int(rate * 100)])
    queries, subjects = [], []
    for i in range(PAIRS):
        seeds = [int(x) for x in rng.integers(2**31, size=3)]
        read = random_genome(length, seed_or_rng=seeds[0])
        planted = mutate_dna(read, rate, seed_or_rng=seeds[1])
        flanks = random_genome(600, seed_or_rng=seeds[2])
        queries.append(SeqRecord(f"q{i:02d}", read))
        subjects.append(SeqRecord(f"s{i:02d}", flanks[:300] + planted + flanks[300:]))
    return queries, subjects


def _aa_pairs(length, rate):
    """One query and one point-mutated family member per family."""
    return synthetic_protein_database(
        n_families=PAIRS, members_per_family=1, length=length, mutation_rate=rate,
        seed=length * 100 + int(rate * 100),
    )


def _measure(program, length, rate):
    """One cell: SW scores of the planted pairs, and what each trigger found."""
    if program == "blastn":
        (queries, subjects), alphabet = _nt_pairs(length, rate), DNA
        base = BlastOptions.blastn(evalue=EVALUE).with_db_size(1_000_000, 40)
    else:
        (queries, subjects), alphabet = _aa_pairs(length, rate), PROTEIN
        base = BlastOptions.blastp(evalue=EVALUE).with_db_size(1_000_000, 3_000)
    partition = _Subjects(subjects, alphabet)
    planted = {q.id: s.id for q, s in zip(queries, subjects)}
    cell = {"program": program, "length": length, "rate": rate}
    for label, overrides in TRIGGERS.items():
        engine = make_engine(BlastOptions(**{**base.__dict__, **overrides}))
        best = {}  # planted pair -> best plus-strand score reported
        hits = engine.search_block(queries, partition)
        for h in hits:
            if h.subject_id == planted[h.query_id] and h.strand == 1:
                best[h.query_id] = max(best.get(h.query_id, 0), h.score)
        cell[label] = best
        stats = engine.last_stats
        cell[label + " gapped"] = (stats.n_gapped, stats.n_contained, stats.n_ungapped)
        if label == "default":
            with no_containment():
                cell["tabular"] = (
                    format_tabular(hits),
                    format_tabular(engine.search_block(queries, partition)),
                )
    cutoff = engine.admission_scores(length, base.db_length_override,
                                     base.db_num_seqs_override)[1] + 1
    sw = {
        q.id: smith_waterman_score(alphabet.encode(q.seq), alphabet.encode(s.seq),
                                   engine.matrix, base.gap_open, base.gap_extend)
        for q, s in zip(queries, subjects)
    }
    cell["sw"] = sw
    cell["reportable"] = {qid for qid, score in sw.items() if score >= cutoff}
    return cell


@pytest.fixture(scope="module")
def cells():
    return [_measure("blastn", n, r) for n, r in NT_CELLS] + [
        _measure("blastp", n, r) for n, r in AA_CELLS
    ]


def test_sensitivity_table(cells, capsys):
    lines = [
        "| program | length | divergence | SW-reportable | default | 12 bits "
        "| default == SW | gapped+contained/ungapped default "
        "| gapped+contained/ungapped 12 bits |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for c in cells:
        exact = sum(c["default"][q] == c["sw"][q] for q in c["default"])
        lines.append(
            f"| {c['program']} | {c['length']} | {c['rate']:.2f} | {len(c['reportable'])} "
            f"| {len(c['default'])} | {len(c['12 bits'])} | {exact} "
            f"| {'{}+{}/{}'.format(*c['default gapped'])} "
            f"| {'{}+{}/{}'.format(*c['12 bits gapped'])} |"
        )
    with capsys.disabled():
        print("\n=== Engine sensitivity vs Smith-Waterman (40 planted pairs per cell) ===")
        print("\n".join(lines))
    assert sum(len(c["reportable"]) for c in cells) > 0.6 * PAIRS * len(cells)


def test_engine_never_beats_smith_waterman(cells):
    for c in cells:
        for label in TRIGGERS:
            for qid, score in c[label].items():
                assert score <= c["sw"][qid], (c["program"], c["length"], c["rate"], qid)
            # ... so whatever the engine reports, exhaustive search could too
            assert set(c[label]) <= c["reportable"]


def test_clear_homologs_are_all_found_at_the_optimal_score(cells):
    clear = [c for c in cells
             if c["program"] == "blastn" and c["length"] == 400 and c["rate"] <= 0.20]
    assert len(clear) == 3
    for c in clear:
        assert len(c["reportable"]) == PAIRS
        assert set(c["default"]) == c["reportable"]
        exact = sum(c["default"][q] == c["sw"][q] for q in c["default"])
        assert exact >= 0.95 * len(c["default"])


def test_gap_trigger_costs_next_to_nothing_against_admitting_everything(cells):
    for c in cells:
        assert len(c["default"]) >= len(c["12 bits"]) - 2, (c["program"], c["length"], c["rate"])
    found_default = sum(len(c["default"]) for c in cells)
    found_12 = sum(len(c["12 bits"]) for c in cells)
    assert found_default >= 0.98 * found_12
    # and it is what closes the funnel: far fewer seeds reach stage 3
    gapped_default = sum(c["default gapped"][0] for c in cells)
    gapped_12 = sum(c["12 bits gapped"][0] for c in cells)
    assert gapped_default < 0.25 * gapped_12


def test_containment_changes_no_byte(cells):
    """With the rule patched out every cell reports the same tabular bytes,
    and the rule is not idle: of the seeds admitted at the default trigger
    in the blastn cells (the planted copies have indels; the protein
    families are point mutations) it contains a quarter or more."""
    for c in cells:
        with_rule, without = c["tabular"]
        assert with_rule == without, (c["program"], c["length"], c["rate"])
        for label in TRIGGERS:
            gapped, contained, ungapped = c[label + " gapped"]
            assert gapped + contained <= ungapped
    nt = [c["default gapped"] for c in cells if c["program"] == "blastn"]
    assert sum(c for _, c, _ in nt) >= 0.25 * sum(g + c for g, c, _ in nt)
