"""Sequence handling and synthetic workloads.

Provides what the paper gets from NCBI data files and unix tooling: FASTA
I/O and indexing, sequence records, the read-shredding procedure used to
build the query set (400 bp fragments overlapping by 200 bp), seeded
synthetic genome/proteome generators standing in for RefSeq/NT/UniRef data,
and k-mer composition vectors (the SOM's input space for metagenomic
binning).
"""

from repro.bio.alphabet import DNA, PROTEIN, Alphabet
from repro.bio.seq import SeqRecord, reverse_complement, translate
from repro.bio.fasta import FastaIndex, read_fasta, write_fasta
from repro.bio.shred import shred_record, shred_records
from repro.bio.simulate import (
    mutate_dna,
    random_genome,
    random_protein,
    synthetic_community,
    synthetic_nt_database,
    synthetic_protein_database,
)
from repro.bio.kmers import composition_matrix, kmer_frequencies

__all__ = [
    "Alphabet",
    "DNA",
    "PROTEIN",
    "SeqRecord",
    "reverse_complement",
    "translate",
    "read_fasta",
    "write_fasta",
    "FastaIndex",
    "shred_record",
    "shred_records",
    "random_genome",
    "random_protein",
    "mutate_dna",
    "synthetic_community",
    "synthetic_nt_database",
    "synthetic_protein_database",
    "kmer_frequencies",
    "composition_matrix",
]
