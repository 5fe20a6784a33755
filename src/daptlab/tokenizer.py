"""Lowercasing WordPiece tokenizer: vocabulary training and encoding.

Pre-tokenization lowercases, splits on whitespace, and breaks out every
non-alphanumeric character as a standalone single-character word (digits stay
inside words). Word-internal continuation pieces carry the usual "##" prefix.
"""

from __future__ import annotations

import functools
import heapq
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .fileio import atomic_write_text

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
MAX_WORD_CHARS = 100
# a run of alphanumerics (str.isalnum), or else one non-space character
_WORDS = re.compile(r"[^\W_]+|\S")


class Vocab:
    """Immutable piece list; a piece's id is its line number in the vocab file.

    It keeps the piece ids of every word it has encoded, so a corpus segments
    each distinct word once.
    """

    def __init__(self, pieces):
        pieces = list(pieces)
        index: dict[str, int] = {}
        for i, piece in enumerate(pieces):
            if not piece or piece == "##":
                raise ValueError(f"empty piece at id {i}")
            if piece in index:
                raise ValueError(f"duplicate piece {piece!r} at ids {index[piece]} and {i}")
            index[piece] = i
        for tok in SPECIAL_TOKENS:
            if tok not in index:
                raise ValueError(f"vocab is missing special token {tok}")
        self.pieces: tuple[str, ...] = tuple(pieces)
        self.index = index
        self.pad_id = index[PAD]
        self.mask_id = index[MASK]
        self.special_ids = frozenset(index[t] for t in SPECIAL_TOKENS)
        # The greedy match looks a word's first piece up in ``index`` and every
        # later one in ``_continuations`` (a "##" piece without its prefix, so
        # no lookup builds a string), trying no prefix longer than the
        # longest key of the dict it reads.
        self._continuations = {p[2:]: i for p, i in index.items() if p.startswith("##")}
        self._longest = max(map(len, pieces))
        self._longest_continuation = max(map(len, self._continuations), default=0)
        # word -> its piece ids, filled on the word's first encoding (``_word_ids``)
        self._memo: dict[str, tuple[int, ...]] = {}

    @functools.cached_property
    def non_special_ids(self):
        """The ids a random MLM replacement draws from, in id order (int64);
        built on first use, so reading or training a vocabulary loads no numpy."""
        import numpy as np
        return np.array([i for i in range(len(self.pieces)) if i not in self.special_ids],
                        dtype=np.int64)

    def __len__(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self.index

    def id_of(self, piece: str) -> int:
        return self.index[piece]

    def save(self, path) -> None:
        atomic_write_text(path, "\n".join(self.pieces) + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        while lines and lines[-1] == "":
            lines.pop()
        return cls(lines)


@dataclass
class Encoding:
    """One encoded text: piece ids plus word piece spans.

    Encodings are unpadded, so every position is attended; ``model.pad_batch``
    pads a batch and gives its attention mask.
    word_spans[i] is the half-open id range of pre-tokenized word i; spans
    partition the content pieces (everything except [CLS]/[SEP]). A piece is
    ``vocab.pieces[id]``.
    """

    ids: list[int]
    word_spans: list[tuple[int, int]]


def split_words(text: str) -> list[str]:
    """Lowercase and split into words; punctuation becomes single-char words."""
    return _WORDS.findall(text.lower())


def _piece_ids(word: str, vocab: Vocab) -> list[int] | None:
    """Greedy longest-prefix match: the ids of ``word``'s pieces, None when
    the word is unrepresentable."""
    if len(word) > MAX_WORD_CHARS:
        return None
    ids: list[int] = []
    index, longest = vocab.index, vocab._longest
    start, n = 0, len(word)
    while start < n:
        end = min(n, start + longest)
        while end > start:
            i = index.get(word[start:end])
            if i is not None:
                break
            end -= 1
        else:
            return None
        ids.append(i)
        index, longest = vocab._continuations, vocab._longest_continuation
        start = end
    return ids


def wordpiece(word: str, vocab: Vocab) -> list[str] | None:
    """Greedy longest-prefix-match segmentation; None when the word is unrepresentable."""
    ids = _piece_ids(word, vocab)
    return None if ids is None else [vocab.pieces[i] for i in ids]


def _segment(word: str, vocab: Vocab) -> tuple[int, ...]:
    """The piece ids of one word, (id of [UNK],) when WordPiece cannot spell
    it; kept in the vocabulary's memo. A tuple, so no caller can edit it."""
    ids = vocab._memo[word] = tuple(_piece_ids(word, vocab) or (vocab.index[UNK],))
    return ids


def _word_ids(text: str, vocab: Vocab) -> list[tuple[int, ...]]:
    """The piece ids of each pre-tokenized word; each distinct word is segmented
    once per vocabulary and then read from its memo."""
    memo = vocab._memo
    return [memo.get(word) or _segment(word, vocab) for word in split_words(text)]


def _assemble(word_groups: list[tuple[int, ...]], vocab: Vocab, max_seq: int) -> Encoding:
    if max_seq < 2:
        raise ValueError(f"max_seq must be >= 2, got {max_seq}")
    sep = vocab.index[SEP]
    ids: list[int] = [vocab.index[CLS]]
    spans: list[tuple[int, int]] = []
    for group in word_groups:
        start = len(ids)
        ids += group
        spans.append((start, len(ids)))
    ids.append(sep)

    if len(ids) > max_seq:
        limit = max_seq - 1
        ids[limit:] = [sep]
        spans = [(s, min(e, limit)) for s, e in spans if s < limit]

    return Encoding(ids=ids, word_spans=spans)


def encode(text: str, vocab: Vocab, max_seq: int) -> Encoding:
    """[CLS] + pieces + [SEP], truncated from the tail with [SEP] preserved."""
    return _assemble(_word_ids(text, vocab), vocab, max_seq)


def encode_words(words, vocab: Vocab, max_seq: int) -> Encoding:
    """Encode pre-tokenized input; word_spans[i] always covers input word i.

    Each input word may still normalize into several sub-words (punctuation
    splits); all resulting pieces stay inside that word's span.
    """
    unk = (vocab.index[UNK],)
    groups = [tuple(i for group in _word_ids(word, vocab) for i in group) or unk
              for word in words]
    return _assemble(groups, vocab, max_seq)


def count_pieces(text: str, vocab: Vocab) -> int:
    """Piece count of a text without [CLS]/[SEP] or truncation; a word
    WordPiece cannot spell counts as one [UNK]."""
    return sum(map(len, _word_ids(text, vocab)))


def train_vocab(documents, target_size: int, min_frequency: int = 2) -> Vocab:
    """Train a WordPiece vocab by frequency-driven within-word pair merging.

    Characters below min_frequency are left out (words containing them encode
    to [UNK]); merges stop when no adjacent pair reaches min_frequency or the
    target size is hit. Deterministic: ties break on the lexicographically
    smallest pair. The pair counts are taken once; a merge then changes only
    the counts of the pairs around each of its sites, in the words that hold
    the merged pair.
    """
    if target_size < 1:
        raise ValueError(f"target_size must be >= 1, got {target_size}")
    if min_frequency < 1:
        raise ValueError(f"min_frequency must be >= 1, got {min_frequency}")
    word_freq = Counter()
    for text in documents:
        word_freq.update(split_words(text))
    if not word_freq:
        raise ValueError("cannot train a vocab on an empty corpus")

    char_freq = Counter()
    initial_chars: set[str] = set()
    inner_chars: set[str] = set()
    for word, freq in word_freq.items():
        initial_chars.add(word[0])
        inner_chars.update(word[1:])
        for ch in word:
            char_freq[ch] += freq
    kept_chars = {c for c, f in char_freq.items() if f >= min_frequency}
    alphabet = sorted(c for c in initial_chars if c in kept_chars)
    alphabet += sorted("##" + c for c in inner_chars if c in kept_chars)

    floor = len(SPECIAL_TOKENS) + len(alphabet)
    if target_size <= floor:
        raise ValueError(f"target_size {target_size} must exceed specials + alphabet ({floor})")

    pieces = list(SPECIAL_TOKENS) + alphabet

    # Symbol sequences for mergeable words; rare-char words fall back to [UNK] later.
    seqs: list[tuple[list[str], int]] = []
    for word, freq in sorted(word_freq.items()):
        if all(c in kept_chars for c in word):
            seqs.append(([word[0]] + ["##" + c for c in word[1:]], freq))

    # pair_freq holds every pair with a positive count, holders[pair] the words
    # (indices into seqs) that contain it. The heap may keep stale (-freq, pair)
    # entries; one whose freq is no longer the pair's count is dropped when it
    # surfaces, so the first fresh top is the pair min((-freq, pair)) picks.
    pair_freq: dict[tuple[str, str], int] = {}
    holders: dict[tuple[str, str], set[int]] = {}
    for w, (symbols, freq) in enumerate(seqs):
        for pair in zip(symbols, symbols[1:]):
            pair_freq[pair] = pair_freq.get(pair, 0) + freq
            holders.setdefault(pair, set()).add(w)
    heap = [(-freq, pair) for pair, freq in pair_freq.items()]
    heapq.heapify(heap)

    while len(pieces) < target_size:
        while heap and pair_freq.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        best_freq, best_pair = -heap[0][0], heap[0][1]
        if best_freq < min_frequency:
            break
        # A right-hand symbol never starts a word, so it always carries "##".
        # The piece is new: until a span of characters merges with a neighbour,
        # it is segmented as it would be alone, so every adjacent occurrence of
        # a pair merges on the same step and no later pair spells it again.
        merged = best_pair[0] + best_pair[1][2:]
        # Merging left to right leaves no occurrence of the pair, and each site
        # swaps its neighbours' pairs (left, first) and (second, right) for
        # (left, merged) and (merged, right): only those counts change.
        first, second = best_pair
        del pair_freq[best_pair]
        delta: dict[tuple[str, str], int] = {}
        for w in holders.pop(best_pair):
            symbols, freq = seqs[w]
            gained, lost = [], []
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] != first or symbols[i + 1] != second:
                    i += 1
                    continue
                if i:
                    lost.append((symbols[i - 1], first))
                    gained.append((symbols[i - 1], merged))
                if i + 2 < len(symbols):
                    lost.append((second, symbols[i + 2]))
                    gained.append((merged, symbols[i + 2]))
                symbols[i:i + 2] = [merged]
            for pair in gained:
                delta[pair] = delta.get(pair, 0) + freq
                holders.setdefault(pair, set()).add(w)
            if lost:
                # a word may still hold a pair it lost one occurrence of
                held = set(zip(symbols, symbols[1:]))
                for pair in lost:
                    if pair != best_pair:  # (second, right) may be the pair itself
                        delta[pair] = delta.get(pair, 0) - freq
                        if pair not in held:
                            holders[pair].discard(w)
        for pair, change in delta.items():
            if change:
                freq = pair_freq.get(pair, 0) + change
                if freq:
                    pair_freq[pair] = freq
                    heapq.heappush(heap, (-freq, pair))
                else:
                    del pair_freq[pair]
                    del holders[pair]
        pieces.append(merged)
    return Vocab(pieces)
