"""HSP semantics, culling, top-K selection, tabular round-trips."""

import io

import pytest

from repro.blast.hsp import HSP, cull_overlapping, top_hits
from repro.blast.tabular import (
    format_tabular,
    format_tabular_line,
    parse_tabular,
    write_tabular,
)


def mk(qid="q", sid="s", score=100, bits=50.0, e=1e-10, qs=0, qe=100,
       ss=200, se=300, ident=95, alen=100, gaps=0, strand=1):
    return HSP(qid, sid, score, bits, e, qs, qe, ss, se, ident, alen, gaps, strand)


class TestHSP:
    def test_derived_properties(self):
        h = mk(ident=90, alen=100, gaps=4)
        assert h.pident == 90.0
        assert h.mismatches == 6
        assert h.q_span == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            mk(qs=10, qe=10)
        with pytest.raises(ValueError):
            mk(ss=300, se=200)
        with pytest.raises(ValueError):
            mk(strand=0)
        with pytest.raises(ValueError):
            mk(ident=200, alen=100)
        with pytest.raises(ValueError):
            mk(alen=10)  # shorter than spans

    def test_sort_key_orders_by_evalue_then_score(self):
        a = mk(e=1e-20, score=50)
        b = mk(e=1e-10, score=500)
        c = mk(e=1e-20, score=80)
        assert sorted([a, b, c], key=HSP.sort_key) == [c, a, b]

    def test_sort_key_fully_deterministic(self):
        a = mk(sid="s1")
        b = mk(sid="s2")
        assert sorted([b, a], key=HSP.sort_key) == sorted([a, b], key=HSP.sort_key)


class TestCulling:
    def test_contained_worse_hsp_removed(self):
        big = mk(score=200, bits=90.0, e=1e-30, qs=0, qe=100, ss=0, se=100, alen=100, ident=100)
        small = mk(score=50, bits=25.0, e=1e-5, qs=10, qe=60, ss=10, se=60, alen=50, ident=50)
        assert cull_overlapping([small, big]) == [big]

    def test_disjoint_hsps_kept(self):
        h1 = mk(qs=0, qe=50, ss=0, se=50, alen=50, ident=50)
        h2 = mk(qs=60, qe=110, ss=60, se=110, alen=50, ident=50, e=1e-8)
        assert len(cull_overlapping([h1, h2])) == 2

    def test_different_subjects_never_culled(self):
        h1 = mk(sid="s1")
        h2 = mk(sid="s2", e=1e-5)
        assert len(cull_overlapping([h1, h2])) == 2

    def test_different_queries_never_culled(self):
        h1 = mk(qid="q1")
        h2 = mk(qid="q2", e=1e-5)
        assert len(cull_overlapping([h1, h2])) == 2

    def test_different_strand_kept(self):
        h1 = mk(strand=1)
        h2 = mk(strand=-1, e=1e-5)
        assert len(cull_overlapping([h1, h2])) == 2

    def test_overlap_threshold_respected(self):
        a = mk(qs=0, qe=100, ss=0, se=100, alen=100, ident=100, e=1e-30)
        b = mk(qs=80, qe=180, ss=80, se=180, alen=100, ident=100, e=1e-5)
        assert len(cull_overlapping([a, b], max_overlap=0.5)) == 2
        assert len(cull_overlapping([a, b], max_overlap=0.1)) == 1

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            cull_overlapping([], max_overlap=2.0)


class TestTopHits:
    def test_filter_sort_truncate(self):
        hits = [mk(e=10.0 ** -i, score=i) for i in range(1, 8)]
        out = top_hits(hits, max_hits=3, evalue_cutoff=1e-2)
        assert len(out) == 3
        assert [h.evalue for h in out] == sorted(h.evalue for h in out)
        assert out[0].evalue == 1e-7

    def test_cutoff_excludes_everything(self):
        assert top_hits([mk(e=1.0)], max_hits=5, evalue_cutoff=1e-10) == []

    def test_invalid_max_hits(self):
        with pytest.raises(ValueError):
            top_hits([], max_hits=0, evalue_cutoff=10)


class TestTabular:
    def test_line_fields(self):
        line = format_tabular_line(mk(ident=95, alen=100))
        f = line.split("\t")
        assert f[0] == "q" and f[1] == "s"
        assert f[2] == "95.00"
        assert f[6] == "1" and f[7] == "100"  # 1-based inclusive query coords
        assert f[8] == "201" and f[9] == "300"

    def test_minus_strand_reverses_subject_coords(self):
        line = format_tabular_line(mk(strand=-1))
        f = line.split("\t")
        assert int(f[8]) > int(f[9])

    def test_roundtrip_through_text(self):
        hsps = [mk(), mk(sid="s2", strand=-1, e=3.5e-42), mk(qid="q2", e=0.002)]
        text = format_tabular(hsps)
        back = list(parse_tabular(io.StringIO(text)))
        assert len(back) == 3
        for orig, parsed in zip(hsps, back):
            assert parsed.query_id == orig.query_id
            assert parsed.subject_id == orig.subject_id
            assert parsed.q_start == orig.q_start and parsed.q_end == orig.q_end
            assert parsed.s_start == orig.s_start and parsed.s_end == orig.s_end
            assert parsed.strand == orig.strand
            assert parsed.align_len == orig.align_len
            assert parsed.evalue == pytest.approx(orig.evalue, rel=0.01)

    def test_write_append_mode(self, tmp_path):
        path = tmp_path / "hits.tsv"
        assert write_tabular([mk()], path) == 1
        assert write_tabular([mk(qid="q2")], path, append=True) == 1
        parsed = list(parse_tabular(path))
        assert [h.query_id for h in parsed] == ["q", "q2"]

    def test_parse_skips_comments_and_blanks(self):
        text = "# comment\n\n" + format_tabular_line(mk()) + "\n"
        assert len(list(parse_tabular(io.StringIO(text)))) == 1

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="12 columns"):
            list(parse_tabular(io.StringIO("a\tb\tc\n")))

    def test_tiny_evalue_preserved_with_precision(self):
        line = format_tabular_line(mk(e=6.283e-214))
        assert line.split("\t")[10] == "6.283000e-214"

    def test_true_zero_evalue_formats_as_zero(self):
        line = format_tabular_line(mk(e=0.0))
        assert line.split("\t")[10] == "0.0"
