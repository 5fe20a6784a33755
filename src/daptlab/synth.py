"""Deterministic synthetic corpora for desk-scale experiments and tests.

Four families: a fully patterned rotation corpus (every token is predictable
from its neighbours), topic corpora built from disjoint content-word pools
over a shared scaffold, a pairing corpus whose topics share one vocabulary
and differ only in word co-occurrence, and small labeled task sets derived
from the topics.
"""

from __future__ import annotations

import numpy as np

PATTERN_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliett", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango",
)

# Scaffold words shared by every topic; they also cover the cloze template.
SCAFFOLD = ("the", "of", "and", "with", "are", "similar", "yes", "no")

GENERAL_TOPICS: dict[str, tuple[str, ...]] = {
    "weather": ("rain", "cloud", "storm", "sunshine", "frost", "breeze",
                "thunder", "drizzle", "fog", "hail"),
    "cooking": ("flour", "butter", "oven", "simmer", "spice", "dough",
                "skillet", "roast", "broth", "season"),
    "sports": ("goal", "referee", "stadium", "sprint", "league", "tackle",
               "score", "coach", "medal", "defense"),
    "music": ("melody", "chord", "rhythm", "violin", "tempo", "chorus",
              "drummer", "harmony", "lyric", "concert"),
    "travel": ("luggage", "passport", "voyage", "hostel", "itinerary",
               "compass", "airport", "souvenir", "border", "transit"),
}

DOMAIN_TOPICS: dict[str, tuple[str, ...]] = {
    "malware": ("trojan", "rootkit", "botnet", "payload", "dropper", "worm",
                "ransom", "keylogger", "backdoor", "beacon"),
    "phishing": ("spoof", "lure", "credential", "bait", "impersonate",
                 "clickbait", "attachment", "sender", "mailbox", "decoy"),
    "network": ("firewall", "packet", "gateway", "proxy", "subnet", "portscan",
                "router", "tunnel", "handshake", "sniffer"),
    "crypto": ("cipher", "keypair", "hashing", "entropy", "nonce", "digest",
               "signing", "certificate", "padding", "exchange"),
    "vulns": ("overflow", "exploit", "patch", "disclosure", "fuzzing",
              "injection", "sandbox", "escalation", "bypass", "mitigation"),
}

# Word pool for the pairing corpus; all twenty words appear in every topic.
PAIR_WORDS = (
    "anchor", "basalt", "cobalt", "dynamo", "ember", "fathom", "garnet",
    "harbor", "ingot", "jasper", "krypton", "lantern", "marble", "nimbus",
    "onyx", "pylon", "quartz", "rivet", "summit", "tundra",
)


def patterned_corpus(n_sentences: int = 200, sentence_len: int = 10) -> list[str]:
    """Cyclic rotations of PATTERN_WORDS; each token is determined by context."""
    n = len(PATTERN_WORDS)
    sentences = []
    for i in range(n_sentences):
        start = i % n
        words = [PATTERN_WORDS[(start + j) % n] for j in range(sentence_len)]
        sentences.append(" ".join(words))
    return sentences


def topic_corpus(topics: dict[str, tuple[str, ...]], n_docs: int,
                 words_per_doc: int = 8, seed: int = 0
                 ) -> tuple[list[str], list[str]]:
    """Balanced topical documents; returns (texts, topic labels)."""
    rng = np.random.default_rng(seed)
    names = list(topics)
    texts, labels = [], []
    for i in range(n_docs):
        topic = names[i % len(names)]
        pool = topics[topic]
        content = [pool[int(j)] for j in rng.integers(0, len(pool), words_per_doc)]
        words = []
        for j, word in enumerate(content):
            words.append(SCAFFOLD[(i + j) % len(SCAFFOLD)])
            words.append(word)
        texts.append(" ".join(words))
        labels.append(topic)
    return texts, labels


def pairing_topics(words: tuple[str, ...] = PAIR_WORDS, count: int = 5
                   ) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Mutually disjoint perfect matchings over one word pool (round robin).

    Every topic uses all the words equally often, so unigram statistics are
    identical across topics; only the pair structure tells them apart.
    """
    n = len(words)
    if n % 2 != 0 or n < 4:
        raise ValueError(f"need an even pool of at least 4 words, got {n}")
    if not 1 <= count <= n - 1:
        raise ValueError(f"count must be in [1, {n - 1}], got {count}")
    rest = list(range(1, n))
    rounds = []
    for r in range(count):
        ring = [0] + rest[r:] + rest[:r]
        rounds.append(tuple((words[ring[i]], words[ring[n - 1 - i]])
                            for i in range(n // 2)))
    return tuple(rounds)


def pairing_corpus(n_docs: int, pairs_per_doc: int = 16, seed: int = 0
                   ) -> tuple[list[str], list[str]]:
    """Documents whose topic is carried only by which words appear adjacently."""
    matchings = pairing_topics()
    rng = np.random.default_rng(seed)
    texts, labels = [], []
    for i in range(n_docs):
        topic = i % len(matchings)
        picks = rng.integers(0, len(matchings[topic]), pairs_per_doc)
        doc = []
        for j in picks:
            doc.extend(matchings[topic][int(j)])
        texts.append(" ".join(doc))
        labels.append(f"pairing{topic}")
    return texts, labels


def cloze_statements(topics: dict[str, tuple[str, ...]], n_statements: int,
                     seed: int = 0) -> list[str]:
    """Statements "are w1 and w2 similar ? yes|no" (same topic iff yes)."""
    rng = np.random.default_rng(seed)
    names = list(topics)
    out = []
    for i in range(n_statements):
        if i % 2 == 0:
            topic = names[int(rng.integers(len(names)))]
            a, b = rng.choice(len(topics[topic]), size=2, replace=False)
            w1, w2 = topics[topic][int(a)], topics[topic][int(b)]
            answer = "yes"
        else:
            t1, t2 = rng.choice(len(names), size=2, replace=False)
            w1 = topics[names[int(t1)]][int(rng.integers(10))]
            w2 = topics[names[int(t2)]][int(rng.integers(10))]
            answer = "no"
        out.append(f"are {w1} and {w2} similar ? {answer}")
    return out


def classification_records(n_records: int, seed: int = 0, marker: str = "breach",
                           topics: dict[str, tuple[str, ...]] = DOMAIN_TOPICS
                           ) -> list[dict]:
    """Separable two-class records: the positive class contains the marker word."""
    rng = np.random.default_rng(seed)
    texts, _ = topic_corpus(topics, n_records, words_per_doc=6, seed=seed + 1)
    records = []
    for i, text in enumerate(texts):
        words = text.split()
        if i % 2 == 0:
            slot = int(rng.integers(0, len(words) + 1))
            words.insert(slot, marker)
            label = "relevant"
        else:
            label = "irrelevant"
        records.append({"text": " ".join(words), "label": label, "uid": i})
    return records


def tagging_records(n_records: int, seed: int = 0) -> list[dict]:
    """Token/tag records with two entity kinds over an O background.

    SOFT entities are a product word plus a version digit (two tokens);
    ATTACK entities are a single technique word.
    """
    rng = np.random.default_rng(seed)
    products = ("falconview", "webstack", "mailrelay", "dataforge")
    attacks = ("overflow", "injection", "spoofing", "fuzzing")
    fillers = ("the", "service", "reported", "issue", "with", "during", "audit",
               "update", "vendor", "notice")
    records = []
    for _ in range(n_records):
        tokens, tags = [], []
        for _ in range(int(rng.integers(2, 5))):
            tokens.append(fillers[int(rng.integers(len(fillers)))])
            tags.append("O")
        tokens.append(products[int(rng.integers(len(products)))])
        tags.append("B-SOFT")
        tokens.append(str(int(rng.integers(1, 10))))
        tags.append("I-SOFT")
        for _ in range(int(rng.integers(1, 3))):
            tokens.append(fillers[int(rng.integers(len(fillers)))])
            tags.append("O")
        if rng.random() < 0.7:
            tokens.append(attacks[int(rng.integers(len(attacks)))])
            tags.append("B-ATTACK")
        tokens.append(fillers[int(rng.integers(len(fillers)))])
        tags.append("O")
        records.append({"tokens": tokens, "tags": tags})
    return records
