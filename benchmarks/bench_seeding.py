"""Stage-1 seeding: CSR lookup tables and the cross-partition lookup cache.

Two claims from the seeding overhaul, measured rather than asserted:

1. The flat CSR builders/scanners beat the dict implementations kept as
   the parity oracle (``tests/oracles/dict_lookup.py``) — most visibly the
   blastp neighbourhood build, which the process-wide BLOSUM neighbour
   table turns from per-position cube enumeration into one gather (≥ 3× on
   a 10 kb-residue block).
2. On a multi-partition ``mrblast_spmd`` run with locality-aware dispatch,
   the per-rank lookup cache removes the per-work-unit block + lookup
   rebuild, cutting end-to-end wall time ≥ 2× when the fixed cost dominates
   (the Fig. 4/Fig. 5 regime the paper analyses).

Results land in ``BENCH_seeding.json`` at the repo root so later PRs have a
perf trajectory to regress against.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from repro.bio import SeqRecord, mutate_dna, random_genome, random_protein
from repro.bio.alphabet import DNA, PROTEIN
from repro.blast import BlastOptions, format_database
from repro.blast.lookup import NucleotideLookup, ProteinLookup, QueryBlock, _neighbor_csr
from repro.core import MrBlastConfig, mrblast_spmd

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from oracles.dict_lookup import ReferenceNucleotideLookup, ReferenceProteinLookup  # noqa: E402

RESULTS_PATH = ROOT / "BENCH_seeding.json"


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _record(key, payload):
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = payload
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_lookup_build_and_scan(benchmark, print_table):
    """Reference dict vs CSR: build and scan cost for both programs."""
    prot = [SeqRecord(f"q{i}", random_protein(500, seed_or_rng=100 + i)) for i in range(20)]
    pblock = QueryBlock(prot, "blastp", use_mask=False)
    psubject = PROTEIN.encode(random_protein(2000, seed_or_rng=9))

    nt = [SeqRecord(f"n{i}", random_genome(2000, seed_or_rng=200 + i)) for i in range(10)]
    nblock = QueryBlock(nt, "blastn", use_mask=False)
    nsubject = DNA.encode(random_genome(3000, seed_or_rng=5))

    _neighbor_csr(11)  # steady state: the per-process neighbour table is warm
    t_pref, ref_p = _best_of(lambda: ReferenceProteinLookup(pblock), repeats=1)
    t_pcsr, csr_p = _best_of(lambda: ProteinLookup(pblock))
    t_nref, ref_n = _best_of(lambda: ReferenceNucleotideLookup(nblock))
    t_ncsr, csr_n = _best_of(lambda: NucleotideLookup(nblock))

    def scan_many(lut, subject, n=10):
        for _ in range(n):
            out = lut.scan(subject)
        return out

    t_psref, (rq, rs) = _best_of(lambda: scan_many(ref_p, psubject))
    t_pscsr, (cq, cs) = _best_of(lambda: scan_many(csr_p, psubject))
    assert (rq == cq).all() and (rs == cs).all()
    t_nsref, _ = _best_of(lambda: scan_many(ref_n, nsubject))
    t_nscsr, _ = _best_of(lambda: scan_many(csr_n, nsubject))

    build_speedup_p = t_pref / t_pcsr
    rows = [
        ["blastp build (10k aa)", f"{t_pref * 1e3:.1f}", f"{t_pcsr * 1e3:.1f}",
         f"{build_speedup_p:.1f}x"],
        ["blastp scan (2k aa x10)", f"{t_psref * 1e3:.1f}", f"{t_pscsr * 1e3:.1f}",
         f"{t_psref / t_pscsr:.1f}x"],
        ["blastn build (20k nt)", f"{t_nref * 1e3:.1f}", f"{t_ncsr * 1e3:.1f}",
         f"{t_nref / t_ncsr:.1f}x"],
        ["blastn scan (3k nt x10)", f"{t_nsref * 1e3:.1f}", f"{t_nscsr * 1e3:.1f}",
         f"{t_nsref / t_nscsr:.1f}x"],
    ]
    print_table("Stage-1 lookup: reference dict vs CSR (ms)",
                ["stage", "reference", "CSR", "speedup"], rows)

    _record("lookup", {
        "protein_build_ref_s": t_pref,
        "protein_build_csr_s": t_pcsr,
        "protein_build_speedup": build_speedup_p,
        "protein_scan_speedup": t_psref / t_pscsr,
        "nt_build_ref_s": t_nref,
        "nt_build_csr_s": t_ncsr,
        "nt_build_speedup": t_nref / t_ncsr,
        "nt_scan_speedup": t_nsref / t_nscsr,
    })
    # Acceptance: >= 3x on the 10 kb-residue protein build.
    assert build_speedup_p >= 3.0

    benchmark.pedantic(lambda: ProteinLookup(pblock), rounds=3, iterations=1)


@pytest.fixture(scope="module")
def cache_workload(tmp_path_factory):
    """Many small partitions x several large blocks: fixed cost dominates."""
    tmp = tmp_path_factory.mktemp("seedcache")
    db = [SeqRecord(f"s{i}", random_genome(4000, seed_or_rng=600 + i)) for i in range(12)]
    alias = format_database(db, tmp / "db", "db", kind="dna", max_volume_bytes=1024)
    blocks = []
    for b in range(4):
        recs = [
            SeqRecord(f"q{b}_{i}", random_genome(5000, seed_or_rng=40 * b + i))
            for i in range(19)
        ]
        recs.append(
            SeqRecord(f"q{b}_hom", mutate_dna(db[b].seq[500:1500], 0.03, seed_or_rng=900 + b))
        )
        blocks.append(recs)
    # The gap trigger keeps chance 11-mer hits out of the gapped stage, so
    # what is left is the per-unit fixed cost the cache removes; the planted
    # homologs still align end to end.
    options = BlastOptions.blastn(evalue=1e-4)
    return str(alias), blocks, options, tmp


def test_lookup_cache_end_to_end(cache_workload, print_table):
    alias_path, blocks, options, tmp = cache_workload

    def run(cache_blocks, out):
        cfg = MrBlastConfig(
            alias_path=alias_path,
            query_blocks=blocks,
            options=options,
            output_dir=str(tmp / out),
            locality_aware=True,
            lookup_cache_blocks=cache_blocks,
        )
        t0 = time.perf_counter()
        results = mrblast_spmd(3, cfg)
        return time.perf_counter() - t0, results

    run(8, "warmup")  # warm the OS file cache and the neighbour table
    w_un, r_un = min(run(0, f"un{i}") for i in range(2))
    w_ca, r_ca = min(run(8, f"ca{i}") for i in range(2))

    cache_hits = sum(r.lookup_cache_hits for r in r_ca)
    speedup = w_un / w_ca
    rows = [
        ["uncached (rebuild per unit)", f"{w_un:.2f}",
         f"{sum(r.seed_seconds for r in r_un):.2f}", 0,
         sum(r.hits_written for r in r_un)],
        ["cached (8 blocks/rank)", f"{w_ca:.2f}",
         f"{sum(r.seed_seconds for r in r_ca):.2f}", cache_hits,
         sum(r.hits_written for r in r_ca)],
    ]
    print_table(
        f"Cross-partition lookup cache, 4 blocks x 12 partitions ({speedup:.2f}x)",
        ["configuration", "wall s", "seed s", "cache hits", "hits"], rows)

    # Same hits either way; the cache is purely a fixed-cost optimisation.
    assert sum(r.hits_written for r in r_un) == sum(r.hits_written for r in r_ca) > 0

    _record("mrblast_cache", {
        "uncached_wall_s": w_un,
        "cached_wall_s": w_ca,
        "end_to_end_speedup": speedup,
        "lookup_cache_hits": cache_hits,
        "n_blocks": len(blocks),
        "n_partitions": 12,
        "nprocs": 3,
    })
    assert cache_hits > 0
    # Acceptance: >= 2x end to end with locality-aware dispatch.
    assert speedup >= 2.0
