"""CPU time of WordPiece training on a fixed scripted corpus.

Usage, from the root of a checkout:

    python3 tools/vocab_speed.py

Builds 3,000 documents of 60 words each. The words are syllable pseudo-words
drawn from ``random.Random(0)`` with Zipf weights, so the corpus is the same
on every machine and in every checkout. Then runs ``train_vocab`` at 300, 600
and 1,200 pieces and prints one JSON line per target: its CPU seconds, the
piece count and the sha256 of the pieces (one per line). The output of two
checkouts compares line for line; only the times should differ.
"""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
TARGETS = (300, 600, 1200)
DOCUMENTS, WORDS_PER_DOCUMENT, LEXICON = 3000, 60, 10000
ONSETS = ("", "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "w", "z", "br", "cr", "st", "tr", "sh", "ch", "th")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
CODAS = ("", "", "", "n", "r", "s", "t", "x", "ck", "ng")


def corpus() -> list[str]:
    """The scripted corpus: Zipf-weighted draws from a lexicon of pseudo-words."""
    rng = random.Random(0)
    lexicon = ["".join(rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS)
                       for _ in range(rng.randint(1, 4)))
               for _ in range(LEXICON)]
    weights = [1.0 / rank for rank in range(1, LEXICON + 1)]
    return [" ".join(rng.choices(lexicon, weights, k=WORDS_PER_DOCUMENT))
            for _ in range(DOCUMENTS)]


def main() -> int:
    if not (ROOT / "src" / "daptlab" / "tokenizer.py").is_file():
        raise SystemExit("error: src/daptlab/tokenizer.py not found; "
                         "run from a daptlab checkout root")
    sys.path.insert(0, str(ROOT / "src"))
    from daptlab.tokenizer import train_vocab

    texts = corpus()
    for target in TARGETS:
        start = time.process_time()
        vocab = train_vocab(texts, target_size=target)
        cpu_s = time.process_time() - start
        digest = hashlib.sha256("\n".join(vocab.pieces).encode("utf-8")).hexdigest()
        print(json.dumps({"target": target, "cpu_s": round(cpu_s, 3),
                          "pieces": len(vocab), "sha256": digest}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
