"""WordPiece vocab, encoding, and the trainer."""

import re
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from daptlab.evaluate import render_cloze
from daptlab.tokenizer import (CLS, MAX_WORD_CHARS, MASK, PAD, SEP,
                               SPECIAL_TOKENS, UNK, Vocab, count_pieces,
                               encode, encode_words, split_words,
                               train_vocab, wordpiece)


def recount_oracle(texts, target_size, min_frequency):
    """The trainer that recounts every pair on every merge.

    Returns its pieces and the rule that stopped it: "target", "min_frequency"
    or "no pair". target_size 0 gives the specials and the alphabet.
    """
    word_freq = Counter(word for text in texts for word in split_words(text))
    char_freq = Counter()
    for word, freq in word_freq.items():
        for ch in word:
            char_freq[ch] += freq
    kept = {ch for ch, freq in char_freq.items() if freq >= min_frequency}
    pieces = (list(SPECIAL_TOKENS) + sorted({w[0] for w in word_freq} & kept)
              + sorted({"##" + ch for w in word_freq for ch in w[1:] if ch in kept}))
    seqs = [([w[0]] + ["##" + ch for ch in w[1:]], freq)
            for w, freq in sorted(word_freq.items()) if set(w) <= kept]
    while len(pieces) < target_size:
        pair_freq = Counter()
        for symbols, freq in seqs:
            for pair in zip(symbols, symbols[1:]):
                pair_freq[pair] += freq
        if not pair_freq:
            return pieces, "no pair"
        best, freq = min(pair_freq.items(), key=lambda kv: (-kv[1], kv[0]))
        if freq < min_frequency:
            return pieces, "min_frequency"
        merged = best[0] + best[1][2:]
        for symbols, _ in seqs:
            i = 0
            while i < len(symbols) - 1:
                if (symbols[i], symbols[i + 1]) == best:
                    symbols[i:i + 2] = [merged]
                else:
                    i += 1
        if merged not in pieces:
            pieces.append(merged)
    return pieces, "target"


def make_vocab(extra):
    return Vocab(list(SPECIAL_TOKENS) + list(extra))


@pytest.fixture
def affable_vocab():
    return make_vocab(["un", "##aff", "##able", "able", "a", "!", "1", "2"])


class TestSplitWords:
    def test_lowercases(self):
        assert split_words("Hello WORLD") == ["hello", "world"]

    def test_punctuation_standalone(self):
        assert split_words("wait, really?!") == ["wait", ",", "really", "?", "!"]

    def test_digits_kept_inside_words(self):
        assert split_words("log4j v2") == ["log4j", "v2"]

    def test_punctuation_inside_word_splits(self):
        assert split_words("can't") == ["can", "'", "t"]
        assert split_words("a-b") == ["a", "-", "b"]
        assert split_words("a_b") == ["a", "_", "b"]

    def test_whitespace_variants(self):
        assert split_words(" a\tb\nc ") == ["a", "b", "c"]

    def test_empty(self):
        assert split_words("") == []
        assert split_words("   ") == []

    def test_regex_classes_are_the_str_predicates_on_every_code_point(self):
        # split_words is findall(r"[^\W_]+|\S"): a run of str.isalnum()
        # characters, or one character that is not str.isspace(). That is the
        # per-character rule exactly when these classes match these predicates
        # and no character is both alphanumeric and a space.
        chars = "".join(map(chr, range(0x110000)))
        assert re.findall(r"[^\W_]", chars) == [c for c in chars if c.isalnum()]
        assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
        assert not any(c.isalnum() and c.isspace() for c in chars)


class TestVocab:
    def test_ids_dense_and_specials_present(self, affable_vocab):
        v = affable_vocab
        assert list(v.pieces[:5]) == list(SPECIAL_TOKENS)
        assert [v.id_of(p) for p in v.pieces] == list(range(len(v.pieces)))
        assert v.pad_id == 0 and v.id_of(UNK) == 1

    def test_non_special_ids(self):
        v = Vocab(["a", MASK, "b", PAD, SEP, "c", UNK, CLS])
        assert v.non_special_ids.dtype == np.int64
        assert v.non_special_ids.tolist() == [0, 2, 5]

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError, match=r"\[MASK\]"):
            Vocab([PAD, UNK, CLS, SEP, "a"])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_vocab(["a", "a"])

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            make_vocab([""])
        with pytest.raises(ValueError):
            make_vocab(["##"])

    def test_save_load_roundtrip(self, affable_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        affable_vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.pieces == affable_vocab.pieces
        # one piece per line, id = line number
        lines = path.read_text().splitlines()
        assert lines[affable_vocab.id_of("##aff")] == "##aff"


class TestWordpiece:
    def test_greedy_longest_match(self, affable_vocab):
        assert wordpiece("unaffable", affable_vocab) == ["un", "##aff", "##able"]

    def test_prefers_longest_initial_piece(self, affable_vocab):
        # "able" exists word-initially: no reason to split
        assert wordpiece("able", affable_vocab) == ["able"]

    def test_unrepresentable_is_none(self, affable_vocab):
        assert wordpiece("xyz", affable_vocab) is None

    def test_too_long_word_is_none(self):
        vocab = make_vocab(["a", "##a"])
        assert wordpiece("a" * (MAX_WORD_CHARS + 1), vocab) is None
        assert wordpiece("a" * MAX_WORD_CHARS, vocab) is not None

    def test_greedy_rescan_property(self):
        vocab = make_vocab(["ab", "abc", "##c", "##d", "a"])
        pieces = wordpiece("abcd", vocab)
        assert pieces == ["abc", "##d"]  # longest prefix first, not "ab"

    def test_word_longer_than_the_longest_piece(self):
        # both 10-character pieces are as long as the longest, "##" counted:
        # a match bound short by the prefix would miss one of them
        vocab = make_vocab(["abcdefghij", "##klmnopqr", "a", "##k"])
        word = "abcdefghij" + "klmnopqr" * 2 + "k"
        assert wordpiece(word, vocab) == ["abcdefghij", "##klmnopqr", "##klmnopqr", "##k"]


def exhaustive_wordpiece(word, vocab):
    """Greedy longest match trying every prefix, longest first."""
    if len(word) > MAX_WORD_CHARS:
        return None
    pieces, start = [], 0
    while start < len(word):
        for end in range(len(word), start, -1):
            piece = word[start:end] if start == 0 else "##" + word[start:end]
            if piece in vocab:
                pieces.append(piece)
                start = end
                break
        else:
            return None
    return pieces


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="ab#", min_size=1, max_size=5), max_size=12, unique=True),
       st.text(alphabet="ab#", max_size=14))
def test_wordpiece_equals_the_exhaustive_match(extra, word):
    # "#" makes "##" pieces that a word may also start with, and pieces
    # longer after their prefix than any other
    vocab = make_vocab([p for p in extra if p != "##"])
    assert wordpiece(word, vocab) == exhaustive_wordpiece(word, vocab)


class TestEncode:
    def test_affable_example(self, affable_vocab):
        enc = encode("unaffable", affable_vocab, max_seq=16)
        assert [affable_vocab.pieces[i] for i in enc.ids] == [CLS, "un", "##aff", "##able", SEP]

    def test_empty_text(self, affable_vocab):
        enc = encode("", affable_vocab, max_seq=16)
        assert [affable_vocab.pieces[i] for i in enc.ids] == [CLS, SEP]
        assert enc.word_spans == []

    def test_unknown_word_becomes_single_unk(self, affable_vocab):
        enc = encode("zzz", affable_vocab, max_seq=16)
        assert [affable_vocab.pieces[i] for i in enc.ids] == [CLS, UNK, SEP]

    def test_lowercase_idempotent(self, affable_vocab):
        a = encode("UnAffAble!", affable_vocab, max_seq=16)
        b = encode("unaffable!", affable_vocab, max_seq=16)
        assert a.ids == b.ids

    def test_truncation_keeps_sep(self, affable_vocab):
        enc = encode("unaffable unaffable unaffable", affable_vocab, max_seq=6)
        assert len(enc.ids) == 6
        assert affable_vocab.pieces[enc.ids[0]] == CLS
        assert affable_vocab.pieces[enc.ids[-1]] == SEP

    def test_spans_partition_content(self, affable_vocab):
        enc = encode("able ! unaffable", affable_vocab, max_seq=16)
        covered = [i for start, end in enc.word_spans for i in range(start, end)]
        pieces = [affable_vocab.pieces[i] for i in enc.ids]
        content = [i for i, p in enumerate(pieces) if p not in (CLS, SEP, PAD)]
        assert covered == content

    def test_truncated_span_dropped_or_clipped(self, affable_vocab):
        enc = encode("able unaffable", affable_vocab, max_seq=4)
        # room for CLS + 2 pieces + SEP: second word partially cut
        assert len(enc.ids) == 4
        for start, end in enc.word_spans:
            assert 0 < start < end <= 3

    def test_max_seq_too_small_rejected(self, affable_vocab):
        with pytest.raises(ValueError):
            encode("able", affable_vocab, max_seq=1)


class TestEncodeWords:
    def test_span_i_covers_word_i(self, affable_vocab):
        enc = encode_words(["able", "unaffable", "!"], affable_vocab, max_seq=16)
        assert len(enc.word_spans) == 3
        start, end = enc.word_spans[1]
        assert [affable_vocab.pieces[i] for i in enc.ids[start:end]] == ["un", "##aff", "##able"]

    def test_word_with_inner_punctuation_stays_one_span(self, affable_vocab):
        # punctuation may split the word internally, but alignment holds:
        # all resulting pieces stay inside the single word span
        enc = encode_words(["un!able"], affable_vocab, max_seq=16)
        assert len(enc.word_spans) == 1
        start, end = enc.word_spans[0]
        pieces = [affable_vocab.pieces[i] for i in enc.ids]
        content = [p for p in pieces if p not in (CLS, SEP, PAD)]
        assert pieces[start:end] == content
        assert "".join(content) == "un!able"

    def test_empty_word_becomes_unk(self, affable_vocab):
        enc = encode_words([" "], affable_vocab, max_seq=16)
        assert [affable_vocab.pieces[i] for i in enc.ids] == [CLS, UNK, SEP]


class TestCountPieces:
    def test_counts_without_truncation(self, affable_vocab):
        n = count_pieces(" ".join(["unaffable"] * 50), affable_vocab)
        assert n == 150  # 3 pieces per word, no [CLS]/[SEP], no max_seq cap


def reference_groups(text, vocab):
    """Each word's ids through wordpiece's piece strings and id_of."""
    return [[vocab.id_of(p) for p in wordpiece(word, vocab) or [UNK]]
            for word in split_words(text)]


def reference_encoding(groups, vocab, max_seq):
    """[CLS] + the groups + [SEP], cut to max_seq with [SEP] kept, and the spans."""
    ids, spans = [vocab.id_of(CLS)], []
    for group in groups:
        spans.append((len(ids), len(ids) + len(group)))
        ids += group
    if len(ids) + 1 > max_seq:
        ids, spans = ids[:max_seq - 1], [(s, min(e, max_seq - 1)) for s, e in spans
                                         if s < max_seq - 1]
    return ids + [vocab.id_of(SEP)], spans


MEMO_PIECES = ["un", "##aff", "##able", "able", "a", "##a", "##n", "!", "'", "1", "##1"]
MEMO_WORDS = st.one_of(
    st.sampled_from(["unaffable", "able", "un", "a", "!", "1", " "]),
    st.text(alphabet="unafbleA1!'-", min_size=1, max_size=10),  # punctuation inside
    st.text(alphabet="qxé", min_size=1, max_size=3),  # rare characters: [UNK]
    st.integers(MAX_WORD_CHARS - 2, MAX_WORD_CHARS + 2).map(lambda n: "a" * n),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(MEMO_WORDS, max_size=6), min_size=1, max_size=3),
       st.integers(2, 24))
def test_encodings_equal_the_wordpiece_reference(texts, max_seq):
    vocab = make_vocab(MEMO_PIECES)  # fresh, so each word's first lookup misses
    unk = vocab.id_of(UNK)
    for words in texts + texts:  # every word is met once and then again
        text = " ".join(words)
        groups = reference_groups(text, vocab)
        enc = encode(text, vocab, max_seq)
        assert (enc.ids, enc.word_spans) == reference_encoding(groups, vocab, max_seq)
        assert count_pieces(text, vocab) == sum(map(len, groups))
        word_groups = [[i for group in reference_groups(word, vocab) for i in group] or [unk]
                       for word in words]
        enc = encode_words(words, vocab, max_seq)
        assert (enc.ids, enc.word_spans) == reference_encoding(word_groups, vocab, max_seq)


def test_cloze_insert_leaves_the_next_encoding_unchanged():
    # render_cloze inserts [MASK] into its encoding's id list; the ids a
    # vocabulary keeps per word must not be that list
    vocab = make_vocab(["are", "and", "similar", "?", "cat", "dog", "##s"])
    text = "are dogs and cat similar ?"
    before = encode(text, vocab, max_seq=16)
    enc, mask_pos = render_cloze("dogs", "cat", vocab, max_seq=16)
    assert enc.ids[mask_pos] == vocab.mask_id
    assert encode(text, vocab, max_seq=16) == before
    assert render_cloze("dogs", "cat", vocab, max_seq=16) == (enc, mask_pos)
    single = encode("cat", vocab, max_seq=16)
    single.ids.insert(1, vocab.mask_id)
    assert encode("cat", vocab, max_seq=16).ids == [vocab.id_of(p) for p in (CLS, "cat", SEP)]


class TestTrainVocab:
    def test_repeated_bigram_merges(self):
        vocab = train_vocab(["aa aa aa aa"], target_size=10, min_frequency=2)
        assert wordpiece("aa", vocab) is not None
        pieces = wordpiece("aa", vocab)
        assert pieces == ["aa"] or pieces == ["a", "##a"]

    def test_single_char_corpus(self):
        vocab = train_vocab(["b b b"], target_size=8, min_frequency=2)
        assert "b" in vocab.pieces

    def test_specials_always_present(self):
        vocab = train_vocab(["alpha bravo charlie"], target_size=40)
        for special in SPECIAL_TOKENS:
            assert special in vocab.pieces

    def test_respects_target_size(self):
        texts = [" ".join(["alpha", "bravo", "charlie", "delta"] * 5)] * 10
        vocab = train_vocab(texts, target_size=20)
        assert len(vocab.pieces) <= 20

    def test_frequent_words_become_single_pieces(self):
        texts = ["rootkit beacons"] * 50
        vocab = train_vocab(texts, target_size=80, min_frequency=2)
        assert wordpiece("rootkit", vocab) == ["rootkit"]

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ValueError, match="target"):
            train_vocab(["abcdefghij"], target_size=8, min_frequency=1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_vocab([], target_size=50)
        with pytest.raises(ValueError):
            train_vocab(["   "], target_size=50)

    def test_deterministic(self):
        texts = ["alpha bravo alpha", "bravo charlie bravo"] * 3
        a = train_vocab(texts, target_size=30)
        b = train_vocab(texts, target_size=30)
        assert a.pieces == b.pieces

    def test_tie_breaks_on_smallest_pair(self):
        # ("a", "##b") and ("b", "##a") both occur once; the smaller pair wins
        # whatever the document order
        for texts in (["ba ab"], ["ab ba"]):
            vocab = train_vocab(texts, target_size=10, min_frequency=1)
            assert vocab.pieces[-1] == "ab"
            assert vocab.pieces == tuple(recount_oracle(texts, 10, 1)[0])

    def test_overlapping_pairs_merge_left_to_right(self):
        texts = ["aaaa aaa aa a abab ababab"]
        vocab = train_vocab(texts, target_size=40, min_frequency=1)
        assert vocab.pieces == tuple(recount_oracle(texts, 40, 1)[0])
        assert wordpiece("aaa", vocab) == ["aaa"]

    @pytest.mark.parametrize("texts,target,min_frequency,stop", [
        (["abc abd abe"] * 3, 12, 2, "target"),
        (["abc abc ab ba"], 40, 2, "min_frequency"),
        (["ab ab cd"], 40, 1, "no pair"),
    ])
    def test_stops_where_the_recount_stops(self, texts, target, min_frequency, stop):
        pieces, reason = recount_oracle(texts, target, min_frequency)
        assert reason == stop
        assert train_vocab(texts, target, min_frequency).pieces == tuple(pieces)

    def test_rare_chars_fall_to_unk(self):
        vocab = train_vocab(["aaa aaa q"], target_size=12, min_frequency=2)
        assert "q" not in vocab.pieces
        assert wordpiece("q", vocab) is None
        enc = encode("q", vocab, max_seq=8)
        assert vocab.pieces[enc.ids[1]] == UNK


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase + string.digits + " .,!?", max_size=60))
def test_encode_properties(text):
    vocab = train_vocab(["the quick brown fox 99 !"], target_size=60, min_frequency=1)
    enc = encode(text, vocab, max_seq=32)
    assert len(enc.ids) <= 32
    pieces = [vocab.pieces[i] for i in enc.ids]
    assert pieces[0] == CLS and pieces[-1] == SEP
    assert all(p in vocab.index for p in pieces)
    assert enc.ids == encode(text.upper(), vocab, max_seq=32).ids


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdq", min_size=1, max_size=12))
def test_wordpiece_reconstructs_word(word):
    vocab = train_vocab(["abc abc cab bad dab"], target_size=40, min_frequency=1)
    pieces = wordpiece(word, vocab)
    if pieces is not None:
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == word
        assert not pieces[0].startswith("##")
        assert all(p.startswith("##") for p in pieces[1:])


@st.composite
def small_corpora(draw):
    """2-4 letter corpora, so that pairs overlap and tie, with a min_frequency."""
    letters = draw(st.sampled_from(["ab", "abc", "abcd"]))
    word = st.text(alphabet=letters, min_size=1, max_size=8)
    texts = draw(st.lists(st.lists(word, min_size=1, max_size=8).map(" ".join),
                          min_size=1, max_size=4))
    return texts, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(small_corpora(), st.integers(1, 40))
def test_train_vocab_equals_recount(corpus, extra):
    texts, min_frequency = corpus
    target = len(recount_oracle(texts, 0, min_frequency)[0]) + extra
    pieces, stop = recount_oracle(texts, target, min_frequency)
    event(f"stopped on {stop}")
    assert train_vocab(texts, target, min_frequency).pieces == tuple(pieces)
