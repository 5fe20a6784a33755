"""Synthetic corpus generators: determinism and structural invariants."""

from collections import Counter

import pytest

from daptlab import synth


class TestPatternedCorpus:
    def test_rotation_structure(self):
        sents = synth.patterned_corpus(3, sentence_len=4)
        assert sents[0].split() == ["alpha", "bravo", "charlie", "delta"]
        assert sents[1].split() == ["bravo", "charlie", "delta", "echo"]

    def test_wraps_around(self):
        sents = synth.patterned_corpus(21, sentence_len=2)
        assert sents[20] == sents[0]

    def test_every_token_from_pool(self):
        for sent in synth.patterned_corpus(50):
            assert all(w in synth.PATTERN_WORDS for w in sent.split())


class TestTopicCorpus:
    def test_balanced_labels(self):
        _, labels = synth.topic_corpus(synth.GENERAL_TOPICS, 25)
        assert Counter(labels) == {t: 5 for t in synth.GENERAL_TOPICS}

    def test_content_words_match_label(self):
        texts, labels = synth.topic_corpus(synth.DOMAIN_TOPICS, 40, seed=3)
        for text, label in zip(texts, labels):
            pool = set(synth.DOMAIN_TOPICS[label]) | set(synth.SCAFFOLD)
            assert set(text.split()) <= pool

    def test_deterministic(self):
        a = synth.topic_corpus(synth.GENERAL_TOPICS, 30, seed=7)
        b = synth.topic_corpus(synth.GENERAL_TOPICS, 30, seed=7)
        assert a == b
        c = synth.topic_corpus(synth.GENERAL_TOPICS, 30, seed=8)
        assert a != c

    def test_scaffold_alternates(self):
        texts, _ = synth.topic_corpus(synth.GENERAL_TOPICS, 5, words_per_doc=4)
        words = texts[0].split()
        assert len(words) == 8
        assert all(words[i] in synth.SCAFFOLD for i in range(0, 8, 2))

    def test_topic_pools_disjoint(self):
        pools = [set(v) for v in synth.GENERAL_TOPICS.values()]
        pools += [set(v) for v in synth.DOMAIN_TOPICS.values()]
        flat = [w for pool in pools for w in pool]
        assert len(flat) == len(set(flat))
        assert not set(flat) & set(synth.SCAFFOLD)


class TestPairingTopics:
    def test_each_topic_is_a_perfect_matching(self):
        for matching in synth.pairing_topics():
            words = [w for pair in matching for w in pair]
            assert sorted(words) == sorted(synth.PAIR_WORDS)

    def test_topics_share_no_pair(self):
        seen = set()
        for matching in synth.pairing_topics():
            for pair in matching:
                key = frozenset(pair)
                assert key not in seen
                seen.add(key)

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="even"):
            synth.pairing_topics(("a", "b", "c"), 1)
        with pytest.raises(ValueError, match="count"):
            synth.pairing_topics(("a", "b", "c", "d"), 4)

    def test_max_topics_for_small_pool(self):
        rounds = synth.pairing_topics(("a", "b", "c", "d"), 3)
        assert len(rounds) == 3


class TestPairingCorpus:
    def test_identical_unigram_marginals(self):
        # aggregated per topic, every word appears; pools fully shared
        texts, labels = synth.pairing_corpus(100, pairs_per_doc=30, seed=1)
        by_topic = {}
        for text, label in zip(texts, labels):
            by_topic.setdefault(label, Counter()).update(text.split())
        vocabs = [frozenset(c) for c in by_topic.values()]
        assert all(v == frozenset(synth.PAIR_WORDS) for v in vocabs)

    def test_adjacent_pairs_come_from_topic_matching(self):
        matchings = synth.pairing_topics()
        texts, labels = synth.pairing_corpus(20, pairs_per_doc=6, seed=2)
        for text, label in zip(texts, labels):
            topic = int(label.removeprefix("pairing"))
            allowed = set(matchings[topic])
            words = text.split()
            pairs = [(words[i], words[i + 1]) for i in range(0, len(words), 2)]
            assert set(pairs) <= allowed

    def test_doc_length(self):
        texts, _ = synth.pairing_corpus(5, pairs_per_doc=7, seed=0)
        assert all(len(t.split()) == 14 for t in texts)

    def test_balanced_and_deterministic(self):
        texts, labels = synth.pairing_corpus(25, seed=9)
        assert Counter(labels) == {f"pairing{t}": 5 for t in range(5)}
        again, _ = synth.pairing_corpus(25, seed=9)
        assert texts == again


class TestClozeStatements:
    def test_template_shape(self):
        stmts = synth.cloze_statements(synth.DOMAIN_TOPICS, 10, seed=0)
        assert len(stmts) == 10
        for s in stmts:
            words = s.split()
            assert words[0] == "are" and words[2] == "and"
            assert words[4:6] == ["similar", "?"] and words[6] in ("yes", "no")


class TestClassificationRecords:
    def test_marker_separates_classes(self):
        records = synth.classification_records(50, seed=4)
        for rec in records:
            has_marker = "breach" in rec["text"].split()
            assert has_marker == (rec["label"] == "relevant")

    def test_balanced(self):
        records = synth.classification_records(40, seed=0)
        counts = Counter(r["label"] for r in records)
        assert counts == {"relevant": 20, "irrelevant": 20}

    def test_unique_uids(self):
        records = synth.classification_records(30)
        assert len({r["uid"] for r in records}) == 30


class TestTaggingRecords:
    def test_tokens_tags_aligned(self):
        for rec in synth.tagging_records(30, seed=1):
            assert len(rec["tokens"]) == len(rec["tags"])

    def test_soft_entity_is_product_plus_version(self):
        for rec in synth.tagging_records(30, seed=2):
            tags, tokens = rec["tags"], rec["tokens"]
            for i, tag in enumerate(tags):
                if tag == "B-SOFT":
                    assert tags[i + 1] == "I-SOFT"
                    assert tokens[i + 1].isdigit()

    def test_valid_iob(self):
        from daptlab.finetune import iob_spans
        for rec in synth.tagging_records(50, seed=3):
            iob_spans(rec["tags"])  # raises on malformed sequences
