"""CPU time of WordPiece training and encoding on fixed scripted corpora.

Usage, from the root of a checkout:

    python3 tools/vocab_speed.py

Builds 3,000 documents of 60 words each. The words are syllable pseudo-words
drawn from ``random.Random(0)`` with Zipf weights, so the corpus is the same
on every machine and in every checkout. Then runs ``train_vocab`` at 300, 600
and 1,200 pieces and prints one JSON line per target: its CPU seconds, the
piece count and the sha256 of the pieces (one per line).

Then times ``pretrain.encode_corpus`` with the 1,200-piece vocabulary on two
corpora: the Zipf corpus, whose words repeat, and 3,000 documents of 60
pseudo-words drawn from the same ``random.Random(0)`` that are all distinct.
Each timing starts from a fresh ``Vocab(pieces)``, so no word is segmented
before it is timed. One JSON line per corpus gives its CPU seconds, its word
counts and the sha256 of the encodings (ids and word spans).

The output of two checkouts compares line for line; only the times should
differ.
"""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
TARGETS = (300, 600, 1200)
MAX_SEQ = 128
DOCUMENTS, WORDS_PER_DOCUMENT, LEXICON = 3000, 60, 10000
ONSETS = ("", "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "w", "z", "br", "cr", "st", "tr", "sh", "ch", "th")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
CODAS = ("", "", "", "n", "r", "s", "t", "x", "ck", "ng")


def pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS)
                   for _ in range(rng.randint(1, 4)))


def corpora() -> tuple[list[str], list[str]]:
    """The scripted corpora: Zipf-weighted draws from a lexicon of
    pseudo-words, then as many pseudo-words that are all distinct."""
    rng = random.Random(0)
    lexicon = [pseudo_word(rng) for _ in range(LEXICON)]
    weights = [1.0 / rank for rank in range(1, LEXICON + 1)]
    zipf = [" ".join(rng.choices(lexicon, weights, k=WORDS_PER_DOCUMENT))
            for _ in range(DOCUMENTS)]
    distinct: dict[str, None] = {}  # insertion-ordered
    while len(distinct) < DOCUMENTS * WORDS_PER_DOCUMENT:
        distinct[pseudo_word(rng)] = None
    words = list(distinct)
    return zipf, [" ".join(words[i:i + WORDS_PER_DOCUMENT])
                  for i in range(0, len(words), WORDS_PER_DOCUMENT)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    if not (ROOT / "src" / "daptlab" / "tokenizer.py").is_file():
        raise SystemExit("error: src/daptlab/tokenizer.py not found; "
                         "run from a daptlab checkout root")
    sys.path.insert(0, str(ROOT / "src"))
    from daptlab.pretrain import encode_corpus
    from daptlab.tokenizer import Vocab, split_words, train_vocab

    zipf, distinct = corpora()
    for target in TARGETS:
        start = time.process_time()
        vocab = train_vocab(zipf, target_size=target)
        cpu_s = time.process_time() - start
        print(json.dumps({"target": target, "cpu_s": round(cpu_s, 3),
                          "pieces": len(vocab), "sha256": sha256("\n".join(vocab.pieces))}),
              flush=True)
    for name, texts in (("zipf", zipf), ("distinct", distinct)):
        fresh = Vocab(vocab.pieces)
        start = time.process_time()
        encodings = encode_corpus(texts, fresh, MAX_SEQ)
        cpu_s = time.process_time() - start
        words = [word for text in texts for word in split_words(text)]
        digest = sha256(json.dumps([[e.ids, e.word_spans] for e in encodings]))
        print(json.dumps({"encode": name, "cpu_s": round(cpu_s, 3), "words": len(words),
                          "distinct_words": len(set(words)), "sha256": digest}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
