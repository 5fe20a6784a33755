"""Intrinsic evaluation: document clustering, cloze word similarity, forgetting.

Document embeddings come from model.embed_document (last four layers,
concatenated, mean over content positions). Clustering quality is the mean
silhouette; the similarity probe renders "are w1 and w2 similar ? [MASK]" and
compares the yes/no logits at the masked slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .finetune import f1_binary
from .model import ModelConfig, embed_document, forward, mlm_logits, pad_batch
from .tokenizer import Encoding, Vocab, count_pieces, encode, wordpiece

# Lloyd iterations kmeans runs at most before it stops without converging.
KMEANS_MAX_ITER = 300


def kmeans(points, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with distance-weighted (k-means++) seeding.

    Ties assign to the lowest-index centroid; an emptied cluster is reseeded
    to the point farthest from its current centroid among those whose cluster
    keeps another member (one exists, as k <= n). Returns (assignments,
    centroids).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty [n, d] array, got {pts.shape}")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[rng.integers(n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        own = dists[np.arange(n), new_assign]
        for j in range(k):
            if not (new_assign == j).any():
                shared = np.bincount(new_assign, minlength=k)[new_assign] > 1
                idx = int(np.where(shared, own, -1.0).argmax())
                new_assign[idx] = j
                centroids[j] = pts[idx]
        if (new_assign == assign).all():
            break
        assign = new_assign
        for j in range(k):
            centroids[j] = pts[assign == j].mean(axis=0)
    return assign, centroids


def silhouette(points, assignments) -> float:
    """Mean silhouette (b - a) / max(a, b) with Euclidean distances.

    Singleton clusters score 0 for their point; fewer than two distinct
    clusters is an error.
    """
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(assignments)
    if pts.ndim != 2 or labels.shape != (pts.shape[0],):
        raise ValueError(f"points {pts.shape} and assignments {labels.shape} misaligned")
    _, cluster, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if sizes.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    # difference-based distances, not the gram-matrix expansion: the latter
    # cancels catastrophically for near-coincident points
    n = pts.shape[0]
    dists = np.empty((n, n), dtype=np.float64)
    chunk = max(1, 128 * 128 // max(1, pts.shape[1]))
    for start in range(0, n, chunk):
        block = pts[start:start + chunk]
        dists[start:start + chunk] = np.sqrt(
            ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    # each point's distance sums per cluster, through a one-hot product
    rows = np.arange(n)
    onehot = np.zeros((n, sizes.size), dtype=np.float64)
    onehot[rows, cluster] = 1.0
    sums = dists @ onehot
    own = sizes[cluster]
    a = sums[rows, cluster] / np.maximum(own - 1, 1)
    means = sums / sizes
    means[rows, cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    # a singleton's point, and a point with a = b = 0, score 0
    scores = np.zeros(n, dtype=np.float64)
    np.divide(b - a, denom, out=scores, where=(own > 1) & (denom > 0.0))
    return float(scores.mean())


@dataclass(frozen=True)
class ClusterRun:
    k: int
    assignments: tuple[int, ...]
    silhouette: float


def cluster_eval(config: ModelConfig, params, vocab: Vocab, texts,
                 k_values=range(5, 10), seed: int = 0) -> list[ClusterRun]:
    """Embed every text and sweep k, reporting the silhouette per k."""
    k_values = list(k_values)
    if not k_values or min(k_values) < 2:
        raise ValueError(f"k values must all be >= 2, got {k_values}")
    texts = list(texts)
    if len(texts) < max(k_values):
        raise ValueError(f"need at least {max(k_values)} documents, got {len(texts)}")
    matrix = np.stack([embed_document(t, vocab, config, params) for t in texts])
    runs = []
    for k in k_values:
        assign, _ = kmeans(matrix, k, seed)
        runs.append(ClusterRun(k=k, assignments=tuple(int(a) for a in assign),
                               silhouette=silhouette(matrix, assign)))
    return runs


def render_cluster_report(model_name: str, runs: list[ClusterRun]) -> str:
    lines = ["model\tk\tsilhouette"]
    lines += [f"{model_name}\t{run.k}\t{run.silhouette:.6f}" for run in runs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cloze word similarity

SIMILAR, DISSIMILAR = "similar", "dissimilar"


@dataclass(frozen=True)
class SimilarityPair:
    word1: str
    word2: str
    label: str

    def __post_init__(self):
        if self.word1 == self.word2:
            raise ValueError(f"pair words must differ, got {self.word1!r} twice")
        if self.label not in (SIMILAR, DISSIMILAR):
            raise ValueError(f"label must be {SIMILAR!r} or {DISSIMILAR!r}, "
                             f"got {self.label!r}")


def build_pairs(positive_pairs, rng: np.random.Generator) -> list[SimilarityPair]:
    """Balance positives with an equal count of sampled negative pairs.

    Negatives are drawn uniformly without replacement from all unordered word
    combinations that are not positives. Accepts (word1, word2) tuples or
    SimilarityPair objects (their labels must all be similar).
    """
    positives = []
    for item in positive_pairs:
        if isinstance(item, SimilarityPair):
            if item.label != SIMILAR:
                raise ValueError(f"build_pairs takes positive pairs only, got "
                                 f"{item.label!r} for ({item.word1}, {item.word2})")
            positives.append(item)
        else:
            w1, w2 = item
            positives.append(SimilarityPair(w1, w2, SIMILAR))
    if not positives:
        raise ValueError("need at least one positive pair")
    taken = {tuple(sorted((p.word1, p.word2))) for p in positives}
    words = sorted({w for p in positives for w in (p.word1, p.word2)})
    candidates = [(a, b) for i, a in enumerate(words) for b in words[i + 1:]
                  if (a, b) not in taken]
    if not candidates:
        raise ValueError("vocabulary too small to form any negative pair")
    if len(candidates) < len(positives):
        raise ValueError(f"only {len(candidates)} negative candidates for "
                         f"{len(positives)} positives; cannot balance")
    picks = rng.choice(len(candidates), size=len(positives), replace=False)
    negatives = [SimilarityPair(*candidates[int(i)], DISSIMILAR) for i in picks]
    return positives + negatives


def load_pairs(path) -> list[SimilarityPair]:
    """JSONL with word1/word2/label fields; label may be omitted (defaults similar)."""
    pairs = []
    for lineno, rec in fileio.read_jsonl(path):
        if not isinstance(rec, dict) or "word1" not in rec or "word2" not in rec:
            raise ValueError(f"{path}:{lineno}: expected word1/word2 fields")
        pairs.append(SimilarityPair(str(rec["word1"]), str(rec["word2"]),
                                    rec.get("label", SIMILAR)))
    if not pairs:
        raise ValueError(f"no pairs in {path}")
    return pairs


def render_cloze(word1: str, word2: str, vocab: Vocab, max_seq: int
                 ) -> tuple[Encoding, int]:
    """``encode`` of "are {w1} and {w2} similar ?" with [MASK] put before its
    [SEP], plus the [MASK] index. Raises when the result exceeds max_seq."""
    template = f"are {word1} and {word2} similar ?"
    needed = count_pieces(template, vocab) + 3  # [CLS], [MASK] and [SEP]
    if needed > max_seq:
        raise ValueError(f"template needs {needed} pieces but max_seq is {max_seq}")
    enc = encode(template, vocab, max_seq)
    mask_pos = len(enc.ids) - 1
    enc.ids.insert(mask_pos, vocab.mask_id)
    return enc, mask_pos


def model_cloze_predictor(config: ModelConfig, params, vocab: Vocab):
    """Returns predict(w1, w2) -> (yes_logit, no_logit) for the masked slot."""
    for answer in ("yes", "no"):
        if wordpiece(answer, vocab) != [answer]:
            raise ValueError(f"vocab must contain {answer!r} as a single piece")
    yes_id, no_id = vocab.id_of("yes"), vocab.id_of("no")

    def predict(word1: str, word2: str) -> tuple[float, float]:
        enc, mask_pos = render_cloze(word1, word2, vocab, config.max_seq)
        ids, mask, rows = pad_batch([enc.ids], [[mask_pos]], vocab.pad_id)
        hidden = forward(ids, mask, config, params, rows=rows)
        logits = mlm_logits(hidden[-1], params).data[0]
        return float(logits[yes_id]), float(logits[no_id])

    return predict


def evaluate_pairs(pairs, predictor) -> tuple[float, list[tuple[SimilarityPair, str]]]:
    """Score every pair; ties between yes and no resolve to similar."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs to evaluate")
    predictions = []
    for pair in pairs:
        yes, no = predictor(pair.word1, pair.word2)
        predictions.append((pair, SIMILAR if yes >= no else DISSIMILAR))
    f1 = f1_binary([p for _, p in predictions], [p.label for p, _ in predictions],
                   SIMILAR)
    return f1, predictions


def render_similarity_report(model_name: str, f1: float, predictions) -> str:
    lines = [f"model\tf1", f"{model_name}\t{f1:.6f}", "",
             "word1\tword2\tgold\tpredicted"]
    lines += [f"{p.word1}\t{p.word2}\t{p.label}\t{pred}" for p, pred in predictions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# forgetting

@dataclass(frozen=True)
class ForgettingRow:
    task: str
    base: float
    adapted: float

    @property
    def delta(self) -> float:
        return self.adapted - self.base

    @property
    def improved(self) -> bool:
        return self.delta > 0.0


@dataclass
class ForgettingReport:
    rows: list[ForgettingRow]

    @property
    def mean_delta(self) -> float:
        return sum(r.delta for r in self.rows) / len(self.rows)

    def render(self) -> str:
        lines = ["task\tbase\tadapted\tdelta\tnote"]
        for r in self.rows:
            note = "improved" if r.improved else "-"
            lines.append(f"{r.task}\t{r.base:.4f}\t{r.adapted:.4f}"
                         f"\t{r.delta:+.4f}\t{note}")
        lines.append(f"mean\t-\t-\t{self.mean_delta:+.4f}\t-")
        return "\n".join(lines) + "\n"


def forgetting_report(base_scores, adapted_scores) -> ForgettingReport:
    """Per-task deltas (adapted - base) over identical task sets."""
    base = dict(base_scores)
    adapted = dict(adapted_scores)
    if not base:
        raise ValueError("no tasks to compare")
    if set(base) != set(adapted):
        only_base = sorted(set(base) - set(adapted))
        only_adapted = sorted(set(adapted) - set(base))
        raise ValueError(f"task sets differ: only in base {only_base}, "
                         f"only in adapted {only_adapted}")
    rows = [ForgettingRow(task, float(base[task]), float(adapted[task]))
            for task in base]
    return ForgettingReport(rows=rows)
