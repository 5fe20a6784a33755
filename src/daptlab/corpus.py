"""Corpus ingestion, per-source filtering, exact dedupe, and token statistics.

Dumps are JSON Lines with fields id/source/text. A text that is empty or
whitespace only is dropped, whatever its source. Otherwise a blog post is kept
at 300 characters or more, an arXiv paper at 3000 or more, a tweet only if one
of its lowercased word tokens is a keyword, and every NVD entry is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fileio
from .tokenizer import Vocab, count_pieces, split_words

SOURCES = ("blog", "arxiv", "nvd", "twitter")

# Shortest text kept, in characters, per source; a source not listed has no floor.
MIN_CHARS = {"blog": 300, "arxiv": 3000}

# Whole-token keyword allowlist for the tweet stream.
TWITTER_KEYWORDS = frozenset({
    "infosec", "security", "threat", "vulnerability", "cyber", "cybersec",
    "infrasec", "netsec", "hacking", "siem", "soc", "offsec", "osing",
    "bugbounty",
})

# More than this share of malformed lines marks a dump as corrupt.
MAX_MALFORMED_FRACTION = 0.10


@dataclass(frozen=True)
class Document:
    id: str
    source: str
    text: str

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}; expected one of {SOURCES}")


def keeps(doc: Document) -> bool:
    """The curation rule: some non-space text, the source's length floor, and
    a keyword for tweets."""
    if not doc.text.strip() or len(doc.text) < MIN_CHARS.get(doc.source, 0):
        return False
    return doc.source != "twitter" or not TWITTER_KEYWORDS.isdisjoint(split_words(doc.text))


@dataclass
class IngestResult:
    documents: list[Document]
    skipped: int


def ingest(path) -> IngestResult:
    """Read one dump in file order; malformed lines are counted, never silent."""
    documents: list[Document] = []
    attempts = 0
    skipped = 0
    for _, rec in fileio.read_jsonl(path):
        attempts += 1
        if not isinstance(rec, dict):
            skipped += 1
            continue
        doc_id, source, text = rec.get("id"), rec.get("source"), rec.get("text")
        if not isinstance(doc_id, str) or not isinstance(text, str) or source not in SOURCES:
            skipped += 1
            continue
        documents.append(Document(id=doc_id, source=source, text=text))
    if attempts and skipped / attempts > MAX_MALFORMED_FRACTION:
        raise ValueError(f"corrupt dump {path}: {skipped}/{attempts} lines malformed")
    return IngestResult(documents=documents, skipped=skipped)


@dataclass
class DropReport:
    dropped: dict[str, int] = field(default_factory=dict)
    kept: int = 0

    def render(self) -> str:
        lines = ["source\tdropped"]
        lines += [f"{src}\t{n}" for src, n in sorted(self.dropped.items())]
        lines.append(f"kept\t{self.kept}")
        return "\n".join(lines) + "\n"


def dedupe(documents) -> list[Document]:
    """Drop exact text duplicates, keeping the first occurrence."""
    seen: set[str] = set()
    kept: list[Document] = []
    for doc in documents:
        if doc.text in seen:
            continue
        seen.add(doc.text)
        kept.append(doc)
    return kept


def build_corpus(paths) -> tuple[list[Document], DropReport, int]:
    """Ingest dumps in sorted path order, keep what ``keeps`` passes, dedupe;
    returns skip count too. The report counts drops per source and the kept
    documents before dedupe."""
    merged: list[Document] = []
    skipped = 0
    for path in sorted(str(p) for p in paths):
        result = ingest(path)
        merged.extend(result.documents)
        skipped += result.skipped
    seen_ids: set[str] = set()
    for doc in merged:
        if doc.id in seen_ids:
            raise ValueError(f"duplicate document id {doc.id!r} across dumps")
        seen_ids.add(doc.id)
    kept: list[Document] = []
    report = DropReport(dropped=dict.fromkeys(SOURCES, 0))
    for doc in merged:
        if keeps(doc):
            kept.append(doc)
        else:
            report.dropped[doc.source] += 1
    report.kept = len(kept)
    return dedupe(kept), report, skipped


@dataclass(frozen=True)
class SourceStats:
    min: int
    max: int
    sum: int
    median: int
    mean: float
    entries: int


def _stats_of(counts: list[int]) -> SourceStats:
    if not counts:
        return SourceStats(0, 0, 0, 0, 0.0, 0)
    ordered = sorted(counts)
    n = len(ordered)
    # Even-sized samples take the lower middle value.
    return SourceStats(
        min=ordered[0],
        max=ordered[-1],
        sum=sum(ordered),
        median=ordered[(n - 1) // 2],
        mean=sum(ordered) / n,
        entries=n,
    )


@dataclass
class CorpusStats:
    per_source: dict[str, SourceStats]
    total: SourceStats

    def render(self) -> str:
        lines = ["Source\tMin\tMax\tSum\tMedian\tMean\tEntries"]
        for name in (*SOURCES, "total"):
            s = self.total if name == "total" else self.per_source[name]
            lines.append(f"{name}\t{s.min}\t{s.max}\t{s.sum}\t{s.median}"
                         f"\t{s.mean:.4f}\t{s.entries}")
        return "\n".join(lines) + "\n"


def compute_stats(documents, vocab: Vocab) -> CorpusStats:
    """Length stats per source, in ``count_pieces`` units (a word the vocab
    cannot spell counts as one [UNK] piece)."""
    counts: dict[str, list[int]] = {src: [] for src in SOURCES}
    everything: list[int] = []
    for doc in documents:
        n = count_pieces(doc.text, vocab)
        counts[doc.source].append(n)
        everything.append(n)
    return CorpusStats(
        per_source={src: _stats_of(counts[src]) for src in SOURCES},
        total=_stats_of(everything),
    )


def write_corpus(documents, path) -> None:
    fileio.write_jsonl(path, ({"id": d.id, "source": d.source, "text": d.text}
                              for d in documents))


def read_corpus(path) -> list[Document]:
    result = ingest(path)
    if result.skipped:
        raise ValueError(f"corpus file {path} has {result.skipped} malformed lines")
    return result.documents
