"""Lowercasing WordPiece tokenizer: vocabulary training and encoding.

Pre-tokenization lowercases, splits on whitespace, and breaks out every
non-alphanumeric character as a standalone single-character word (digits stay
inside words). Word-internal continuation pieces carry the usual "##" prefix.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
MAX_WORD_CHARS = 100


class Vocab:
    """Immutable piece list; a piece's id is its line number in the vocab file."""

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
        # ids a random MLM replacement draws from, in id order
        self.non_special_ids = np.array([i for i in range(len(pieces))
                                         if i not in self.special_ids], dtype=np.int64)

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
    words: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isspace():
            if current:
                words.append("".join(current))
                current = []
        elif not ch.isalnum():
            if current:
                words.append("".join(current))
                current = []
            words.append(ch)
        else:
            current.append(ch)
    if current:
        words.append("".join(current))
    return words


def wordpiece(word: str, vocab: Vocab) -> list[str] | None:
    """Greedy longest-prefix-match segmentation; None when the word is unrepresentable."""
    if len(word) > MAX_WORD_CHARS:
        return None
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab:
                found = sub
                break
            end -= 1
        if found is None:
            return None
        pieces.append(found)
        start = end
    return pieces


def _word_groups(text: str, vocab: Vocab) -> list[list[str]]:
    """The pieces of each pre-tokenized word; [UNK] for a word WordPiece cannot spell."""
    return [wordpiece(word, vocab) or [UNK] for word in split_words(text)]


def _assemble(word_groups: list[list[str]], vocab: Vocab, max_seq: int) -> Encoding:
    if max_seq < 2:
        raise ValueError(f"max_seq must be >= 2, got {max_seq}")
    pieces: list[str] = [CLS]
    spans: list[tuple[int, int]] = []
    for group in word_groups:
        spans.append((len(pieces), len(pieces) + len(group)))
        pieces.extend(group)
    pieces.append(SEP)

    if len(pieces) > max_seq:
        pieces = pieces[:max_seq - 1] + [SEP]
        limit = max_seq - 1
        spans = [(s, min(e, limit)) for s, e in spans if s < limit]

    return Encoding(ids=[vocab.id_of(p) for p in pieces], word_spans=spans)


def encode(text: str, vocab: Vocab, max_seq: int) -> Encoding:
    """[CLS] + pieces + [SEP], truncated from the tail with [SEP] preserved."""
    return _assemble(_word_groups(text, vocab), vocab, max_seq)


def encode_words(words, vocab: Vocab, max_seq: int) -> Encoding:
    """Encode pre-tokenized input; word_spans[i] always covers input word i.

    Each input word may still normalize into several sub-words (punctuation
    splits); all resulting pieces stay inside that word's span.
    """
    groups = [[p for group in _word_groups(word, vocab) for p in group] or [UNK]
              for word in words]
    return _assemble(groups, vocab, max_seq)


def count_pieces(text: str, vocab: Vocab) -> int:
    """Piece count of a text without [CLS]/[SEP] or truncation; a word
    WordPiece cannot spell counts as one [UNK]."""
    return sum(map(len, _word_groups(text, vocab)))


def train_vocab(documents, target_size: int, min_frequency: int = 2) -> Vocab:
    """Train a WordPiece vocab by frequency-driven within-word pair merging.

    Characters below min_frequency are left out (words containing them encode
    to [UNK]); merges stop when no adjacent pair reaches min_frequency or the
    target size is hit. Deterministic: ties break on the lexicographically
    smallest pair. The pair counts are taken once and then updated on each
    merge, only in the words that hold the merged pair.
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
    pair_freq: Counter = Counter()
    holders: dict[tuple[str, str], set[int]] = {}
    for w, (symbols, freq) in enumerate(seqs):
        for pair in zip(symbols, symbols[1:]):
            pair_freq[pair] += freq
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
        delta = Counter()
        for w in list(holders[best_pair]):
            symbols, freq = seqs[w]
            old = list(zip(symbols, symbols[1:]))
            i = 0
            while i < len(symbols) - 1:
                if (symbols[i], symbols[i + 1]) == best_pair:
                    symbols[i:i + 2] = [merged]
                else:
                    i += 1
            new = list(zip(symbols, symbols[1:]))
            for pair in old:
                delta[pair] -= freq
            for pair in new:
                delta[pair] += freq
                holders.setdefault(pair, set()).add(w)
            for pair in set(old).difference(new):
                holders[pair].discard(w)
        for pair, change in delta.items():
            if change:
                freq = pair_freq[pair] + change
                if freq:
                    pair_freq[pair] = freq
                    heapq.heappush(heap, (-freq, pair))
                else:
                    del pair_freq[pair]
                    del holders[pair]
        pieces.append(merged)
    return Vocab(pieces)
