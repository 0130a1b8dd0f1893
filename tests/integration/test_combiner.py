"""compress() combiner: local pre-aggregation before the shuffle."""

import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.blast import BlastOptions, format_database
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.mrblast.merge import collect_rank_hits
from repro.mpi import run_spmd
from repro.mrmpi import MapReduce, MapStyle


class TestCompress:
    def test_local_sum_combiner(self):
        def main(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.CHUNK)
            mr.map_items(
                list(range(40)), lambda t, item, kv: kv.add(f"k{item % 4}", 1)
            )
            before = mr.comm.allreduce(len(mr.kv))
            mr.compress(lambda k, vs, kv: kv.add(k, sum(vs)))
            after = mr.comm.allreduce(len(mr.kv))
            mr.collate()
            mr.reduce(lambda k, vs, kv: kv.add(k, sum(vs)))
            counts = dict(mr.kv)
            gathered = mr.comm.gather(counts, root=0)
            mr.close()
            return (before, after, gathered)

        before, after, gathered = run_spmd(3, main)[0]
        assert before == 40
        assert after <= 3 * 4  # at most ranks x unique keys after combining
        merged = {}
        for d in gathered:
            merged.update(d)
        assert merged == {f"k{i}": 10 for i in range(4)}

    def test_compress_requires_kv(self):
        def main(comm):
            mr = MapReduce(comm)
            with pytest.raises(RuntimeError):
                mr.compress(lambda k, vs, kv: None)
            mr.close()
            return True

        assert run_spmd(1, main) == [True]

    def test_compress_timer_recorded(self):
        def main(comm):
            mr = MapReduce(comm)
            mr.map_items(range(4), lambda i, _, kv: kv.add(i % 2, i))
            mr.compress(lambda k, vs, kv: kv.add(k, sorted(vs)))
            phases = set(mr.timers)
            mr.close()
            return phases

        assert "compress" in run_spmd(2, main)[0]


class TestMrBlastCombiner:
    @pytest.fixture(scope="class")
    def workload(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("comb")
        com = synthetic_community(n_genomes=3, genome_length=2200, seed=61)
        db = synthetic_nt_database(com, n_decoys=2, decoy_length=1400, seed=62)
        alias = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1300)
        reads = list(shred_records(com.genomes))[:9]
        blocks = [reads[i : i + 3] for i in range(0, len(reads), 3)]
        return str(alias), blocks, BlastOptions.blastn(evalue=1e-4, max_hits=10)

    def test_combiner_preserves_results(self, workload, tmp_path):
        alias, blocks, options = workload
        plain = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "plain"),
        ))
        combined = mrblast_spmd(3, MrBlastConfig(
            alias_path=alias, query_blocks=blocks, options=options,
            output_dir=str(tmp_path / "combined"), combiner=True,
        ))
        hits_plain = collect_rank_hits([r.output_path for r in plain])
        hits_combined = collect_rank_hits([r.output_path for r in combined])
        assert set(hits_plain) == set(hits_combined)
        for qid in hits_plain:
            a = [(h.subject_id, h.q_start, h.s_start, round(h.bit_score, 1))
                 for h in hits_plain[qid]]
            b = [(h.subject_id, h.q_start, h.s_start, round(h.bit_score, 1))
                 for h in hits_combined[qid]]
            assert a == b
