"""Corpus curation: filters, dedupe, ingestion, statistics."""

import json

import pytest

from daptlab.corpus import (MAX_MALFORMED_FRACTION, SOURCES, TWITTER_KEYWORDS,
                            Document, build_corpus, compute_stats, dedupe,
                            ingest, keeps, read_corpus, write_corpus)
from daptlab.tokenizer import SPECIAL_TOKENS, Vocab


def doc(i="d1", source="nvd", text="hello"):
    return Document(id=i, source=source, text=text)


def write_dump(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write((rec if isinstance(rec, str) else json.dumps(rec)) + "\n")
    return path


class TestDocument:
    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            Document(id="x", source="reddit", text="t")

    def test_sources(self):
        assert SOURCES == ("blog", "arxiv", "nvd", "twitter")


class TestFilterBoundaries:
    def test_blog_300_chars(self):
        assert not keeps(doc("a", "blog", "x" * 299))
        assert keeps(doc("b", "blog", "x" * 300))

    def test_arxiv_3000_chars(self):
        assert not keeps(doc("a", "arxiv", "y" * 2999))
        assert keeps(doc("b", "arxiv", "y" * 3000))

    def test_nvd_passes_through(self):
        assert keeps(doc("a", "nvd", "x"))

    @pytest.mark.parametrize("text", ["", " \n\t", " \n\t" * 1000],
                             ids=["empty", "whitespace", "whitespace-past-floors"])
    @pytest.mark.parametrize("source", SOURCES)
    def test_text_with_no_word_dropped(self, source, text):
        assert not keeps(doc("a", source, text))


class TestTwitterKeywords:
    def test_keyword_set(self):
        assert TWITTER_KEYWORDS == frozenset({
            "infosec", "security", "threat", "vulnerability", "cyber",
            "cybersec", "infrasec", "netsec", "hacking", "siem", "soc",
            "offsec", "osing", "bugbounty"})

    @pytest.mark.parametrize("text,kept", [
        ("new infosec report", True),
        ("NEW INFOSEC REPORT", True),           # case-insensitive
        ("read this: infosec!", True),          # punctuation boundary
        ("#bugbounty payout", True),
        ("infosecurity conference", False),     # substring is not a token
        ("nothing to see here", False),
        ("socks are comfy", False),             # "soc" must be whole token
    ])
    def test_whole_token_match(self, text, kept):
        assert keeps(doc("t", "twitter", text)) is kept

    def test_twitter_rule_in_defaults(self):
        assert keeps(doc("a", "twitter", "a threat emerges"))
        assert not keeps(doc("b", "twitter", "lunch was good"))


class TestDedupe:
    def test_exact_text_first_kept(self):
        docs = [doc("a", "nvd", "same"), doc("b", "blog", "same"),
                doc("c", "nvd", "other")]
        kept = dedupe(docs)
        assert [d.id for d in kept] == ["a", "c"]

    def test_idempotent(self):
        docs = [doc("a", "nvd", "same"), doc("b", "nvd", "same"),
                doc("c", "nvd", "x")]
        once = dedupe(docs)
        assert dedupe(once) == once

    def test_whitespace_differences_are_distinct(self):
        docs = [doc("a", "nvd", "same"), doc("b", "nvd", "same ")]
        assert len(dedupe(docs)) == 2


class TestIngest:
    def test_counts_malformed_below_threshold(self, tmp_path):
        path = write_dump(tmp_path / "d.jsonl", [
            {"id": "a", "source": "nvd", "text": "ok"},
            "{not json",
        ] + [{"id": f"x{i}", "source": "nvd", "text": "ok"} for i in range(15)])
        result = ingest(path)
        assert result.skipped == 1
        assert len(result.documents) == 16

    def test_missing_fields_are_malformed(self, tmp_path):
        path = write_dump(tmp_path / "d.jsonl", [
            {"id": "a", "source": "nvd"},
            {"id": "b", "source": "reddit", "text": "t"},
            {"id": 3, "source": "nvd", "text": "t"},
        ] + [{"id": f"x{i}", "source": "nvd", "text": "ok"} for i in range(27)])
        assert ingest(path).skipped == 3

    def test_corrupt_dump_rejected(self, tmp_path):
        path = write_dump(tmp_path / "d.jsonl", [
            {"id": "a", "source": "nvd", "text": "ok"},
            "{bad", "{worse",
        ])
        with pytest.raises(ValueError, match="corrupt"):
            ingest(path)

    def test_threshold_is_strictly_above_ten_percent(self, tmp_path):
        # exactly 10% malformed is tolerated
        records = [{"id": f"x{i}", "source": "nvd", "text": "ok"} for i in range(9)]
        path = write_dump(tmp_path / "d.jsonl", records + ["{bad"])
        assert ingest(path).skipped == 1
        assert MAX_MALFORMED_FRACTION == 0.10


class TestBuildCorpus:
    def test_sorted_path_order_and_dedupe(self, tmp_path):
        write_dump(tmp_path / "b.jsonl", [
            {"id": "b1", "source": "nvd", "text": "dup"}])
        write_dump(tmp_path / "a.jsonl", [
            {"id": "a1", "source": "nvd", "text": "dup"},
            {"id": "a2", "source": "nvd", "text": "solo"}])
        docs, report, skipped = build_corpus(
            [tmp_path / "b.jsonl", tmp_path / "a.jsonl"])
        assert [d.id for d in docs] == ["a1", "a2"]  # a.jsonl ingested first
        assert skipped == 0
        assert report.kept == 3  # filter survivors, counted before dedupe

    def test_every_rule_boundary_in_one_dump(self, tmp_path):
        write_dump(tmp_path / "d.jsonl", [
            {"id": "b299", "source": "blog", "text": "x" * 299},
            {"id": "b300", "source": "blog", "text": "x" * 300},
            {"id": "a2999", "source": "arxiv", "text": "y" * 2999},
            {"id": "a3000", "source": "arxiv", "text": "y" * 3000},
            {"id": "t-kw", "source": "twitter", "text": "new infosec report"},
            {"id": "t-sub", "source": "twitter", "text": "infosecurity conference"},
            {"id": "t-upper", "source": "twitter", "text": "THREAT intel today"},
            {"id": "n1", "source": "nvd", "text": "z"}])
        docs, report, skipped = build_corpus([tmp_path / "d.jsonl"])
        assert [d.id for d in docs] == ["b300", "a3000", "t-kw", "t-upper", "n1"]
        assert skipped == 0
        assert report.render() == ("source\tdropped\narxiv\t1\nblog\t1\nnvd\t0\n"
                                   "twitter\t1\nkept\t5\n")

    def test_blank_texts_counted_under_their_source(self, tmp_path):
        write_dump(tmp_path / "d.jsonl", [
            {"id": "n-empty", "source": "nvd", "text": ""},
            {"id": "n-space", "source": "nvd", "text": " \n\t"},
            {"id": "b-space", "source": "blog", "text": " " * 300},
            {"id": "n1", "source": "nvd", "text": "z"}])
        docs, report, _ = build_corpus([tmp_path / "d.jsonl"])
        assert [d.id for d in docs] == ["n1"]
        assert report.render() == ("source\tdropped\narxiv\t0\nblog\t1\nnvd\t2\n"
                                   "twitter\t0\nkept\t1\n")

    def test_duplicate_id_across_dumps_rejected(self, tmp_path):
        write_dump(tmp_path / "a.jsonl", [{"id": "x", "source": "nvd", "text": "1"}])
        write_dump(tmp_path / "b.jsonl", [{"id": "x", "source": "nvd", "text": "2"}])
        with pytest.raises(ValueError, match="x"):
            build_corpus([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])

    def test_roundtrip_write_read(self, tmp_path):
        docs = [doc("a", "nvd", "alpha"), doc("b", "blog", "beta")]
        write_corpus(docs, tmp_path / "c.jsonl")
        assert read_corpus(tmp_path / "c.jsonl") == docs

    def test_read_corpus_strict(self, tmp_path):
        write_dump(tmp_path / "c.jsonl", [
            {"id": f"x{i}", "source": "nvd", "text": "ok"} for i in range(12)
        ] + ["{bad"])
        with pytest.raises(ValueError, match="malformed"):
            read_corpus(tmp_path / "c.jsonl")


class TestApplyFilters:
    def test_drop_report_render(self, tmp_path):
        write_dump(tmp_path / "d.jsonl", [
            {"id": "a", "source": "blog", "text": "short"},
            {"id": "b", "source": "nvd", "text": "fine"}])
        _, report, _ = build_corpus([tmp_path / "d.jsonl"])
        text = report.render()
        assert "source\tdropped" in text
        assert "blog\t1" in text
        assert "kept\t1" in text


def stats_vocab():
    # every lowercase letter is a word-initial and continuation piece
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return Vocab(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters])


class TestStats:
    def test_table_shape_and_values(self):
        # piece counts: "ab" -> 2 pieces, single letters -> 1
        docs = [doc("1", "blog", "ab"),        # 2
                doc("2", "blog", "a b c"),     # 3
                doc("3", "blog", "ab ab"),     # 4
                doc("4", "blog", "a"),         # 1
                doc("5", "nvd", "abc")]        # 3
        table = compute_stats(docs, stats_vocab()).render()
        lines = table.splitlines()
        assert lines[0] == "Source\tMin\tMax\tSum\tMedian\tMean\tEntries"
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        # blog counts sorted: 1,2,3,4 -> median is the lower middle (2)
        assert rows["blog"] == ["blog", "1", "4", "10", "2", "2.5000", "4"]
        assert rows["nvd"] == ["nvd", "3", "3", "3", "3", "3.0000", "1"]
        assert rows["arxiv"] == ["arxiv", "0", "0", "0", "0", "0.0000", "0"]
        assert rows["total"] == ["total", "1", "4", "13", "3", "2.6000", "5"]

    def test_odd_count_median(self):
        docs = [doc("1", "nvd", "a"), doc("2", "nvd", "ab"),
                doc("3", "nvd", "abc")]
        table = compute_stats(docs, stats_vocab()).render()
        nvd = [l for l in table.splitlines() if l.startswith("nvd")][0]
        assert nvd.split("\t")[4] == "2"

    def test_specials_not_counted(self):
        # token counts exclude [CLS]/[SEP]; "a" is exactly one piece
        docs = [doc("1", "nvd", "a")]
        table = compute_stats(docs, stats_vocab()).render()
        nvd = [l for l in table.splitlines() if l.startswith("nvd")][0]
        assert nvd.split("\t")[1:4] == ["1", "1", "1"]

    def test_row_order_fixed(self):
        table = compute_stats([doc("1", "twitter", "a")], stats_vocab()).render()
        names = [line.split("\t")[0] for line in table.splitlines()]
        assert names == ["Source", "blog", "arxiv", "nvd", "twitter", "total"]
