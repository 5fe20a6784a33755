"""Task heads on the encoder, the 5-seed protocol, and F1 metrics.

Classification puts a linear head on the [CLS] vector; tagging puts a shared
linear head on every piece and labels each word through its first piece.
Reported numbers follow the repeated-runs protocol: five seeds, mean and
sample standard deviation, rendered as "mean (std)" with four decimals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import (IGNORE_INDEX, Tensor, cross_entropy_masked, matmul, reshape,
                       select_position)
from .model import ModelConfig, forward, length_mask, pad_rows, truncated_normal
from .optim import LrSchedule, lr_at_step
from .pretrain import TrainingDiverged, fit
# the benchmark's tracer rebinds these here; the fine-tunes train through fit
from .autodiff import Tape, add, backward  # noqa: F401
from .optim import adam_step  # noqa: F401
from .tokenizer import Vocab, encode, encode_words


@dataclass(frozen=True)
class FinetuneConfig:
    """Fine-tuning regimen; defaults are the full-scale reference values."""

    lr: float = 2e-5
    epochs: int = 4
    batch_size: int = 16
    weight_decay: float = 0.01
    max_seq: int = 128

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name in ("epochs", "batch_size", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


# ---------------------------------------------------------------------------
# datasets

def _split_records(records, seed: int, ratios, item):
    """(train, dev, test) lists of item(record): routed by the records' split
    field when any record has one, else a deterministic shuffle-split."""
    if any("split" in rec for rec in records):
        splits = {"train": [], "dev": [], "test": []}
        for i, rec in enumerate(records):
            split = rec.get("split")
            if split not in splits:
                raise ValueError(f"record {i}: split must be train/dev/test, got {split!r}")
            splits[split].append(item(rec))
        return splits["train"], splits["dev"], splits["test"]
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    order = np.random.default_rng(seed).permutation(len(records))
    n_train = int(round(len(records) * ratios[0]))
    n_dev = int(round(len(records) * ratios[1]))
    bounds = (0, n_train, n_train + n_dev, len(records))
    return tuple([item(records[i]) for i in order[lo:hi]]
                 for lo, hi in zip(bounds, bounds[1:]))


def _check_disjoint(train, dev, test, key):
    seen: dict = {}
    for split_name, split in (("train", train), ("dev", dev), ("test", test)):
        for item in split:
            k = key(item)
            if k in seen and seen[k] != split_name:
                raise ValueError(f"item {k!r} appears in both {seen[k]} and {split_name}")
            seen[k] = split_name


@dataclass
class LabeledTextDataset:
    train: list[tuple[str, str]]
    dev: list[tuple[str, str]]
    test: list[tuple[str, str]]
    labels: tuple[str, ...]
    positive_label: str | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise ValueError("labels must be a non-empty set of distinct names")
        if self.positive_label is not None and self.positive_label not in self.labels:
            raise ValueError(f"positive_label {self.positive_label!r} not in labels")
        for split_name, split in (("train", self.train), ("dev", self.dev),
                                  ("test", self.test)):
            for i, (_, label) in enumerate(split):
                if label not in self.labels:
                    raise ValueError(f"{split_name} item {i}: unknown label {label!r}")
        _check_disjoint(self.train, self.dev, self.test, key=lambda it: it[0])

    @classmethod
    def from_records(cls, records, labels=None, positive_label=None,
                     ratios=(0.8, 0.1, 0.1), seed: int = 0) -> "LabeledTextDataset":
        """records: dicts with text/label and an optional split field."""
        items = []
        for i, rec in enumerate(records):
            if not isinstance(rec.get("text"), str) or not isinstance(rec.get("label"), str):
                raise ValueError(f"record {i} needs string text and label fields")
            items.append(rec)
        if labels is None:
            labels = tuple(sorted({rec["label"] for rec in items}))
        train, dev, test = _split_records(items, seed, ratios,
                                          lambda rec: (rec["text"], rec["label"]))
        return cls(train=train, dev=dev, test=test, labels=tuple(labels),
                   positive_label=positive_label)


@dataclass
class TaggedTokenDataset:
    train: list[tuple[list[str], list[str]]]
    dev: list[tuple[list[str], list[str]]]
    test: list[tuple[list[str], list[str]]]
    tags: tuple[str, ...]

    def __post_init__(self):
        if "O" not in self.tags or len(set(self.tags)) != len(self.tags):
            raise ValueError("tag set must be distinct and include 'O'")
        for split_name, split in (("train", self.train), ("dev", self.dev),
                                  ("test", self.test)):
            for i, (tokens, tags) in enumerate(split):
                if len(tokens) != len(tags) or not tokens:
                    raise ValueError(f"{split_name} item {i}: tokens/tags misaligned or empty")
                for tag in tags:
                    if tag not in self.tags:
                        raise ValueError(f"{split_name} item {i}: unknown tag {tag!r}")
                try:
                    iob_spans(tags)
                except ValueError as exc:
                    raise ValueError(f"{split_name} item {i}: {exc}") from exc
        _check_disjoint(self.train, self.dev, self.test,
                        key=lambda it: tuple(it[0]))

    @classmethod
    def from_records(cls, records, tags=None, ratios=(0.8, 0.1, 0.1),
                     seed: int = 0) -> "TaggedTokenDataset":
        """records: dicts with tokens/tags lists and an optional split field."""
        items = []
        for i, rec in enumerate(records):
            if not all(isinstance(rec.get(key), list)
                       and all(isinstance(s, str) for s in rec[key])
                       for key in ("tokens", "tags")):
                raise ValueError(f"record {i} needs tokens and tags lists of strings")
            items.append(rec)
        if tags is None:
            seen = {tag for rec in items for tag in rec["tags"]}
            tags = tuple(sorted(seen | {"O"}))
        train, dev, test = _split_records(
            items, seed, ratios, lambda rec: (list(rec["tokens"]), list(rec["tags"])))
        return cls(train=train, dev=dev, test=test, tags=tuple(tags))


# ---------------------------------------------------------------------------
# metrics

def f1_binary(pred, gold, positive) -> float:
    """Precision/recall F1 for one positive class; 0 when undefined."""
    if len(pred) != len(gold):
        raise ValueError(f"prediction count {len(pred)} != gold count {len(gold)}")
    tp = sum(1 for p, g in zip(pred, gold) if p == positive and g == positive)
    fp = sum(1 for p, g in zip(pred, gold) if p == positive and g != positive)
    fn = sum(1 for p, g in zip(pred, gold) if p != positive and g == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def classification_f1(pred, gold, labels, positive_label=None) -> float:
    """Binary F1 on the positive class, or macro F1 for larger label sets."""
    if len(labels) == 2:
        positive = positive_label if positive_label is not None else labels[1]
        return f1_binary(pred, gold, positive)
    return sum(f1_binary(pred, gold, label) for label in labels) / len(labels)


def iob_spans(tags, repair: bool = False) -> set[tuple[int, int, str]]:
    """Extract (start, end, type) spans with inclusive ends from an IOB sequence.

    With repair=True an I-X that does not continue a span opens one (the
    prediction-side convention); otherwise it is an error.
    """
    spans: set[tuple[int, int, str]] = set()
    start = None
    kind = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.add((start, i - 1, kind))
                start = None
        elif tag.startswith("B-"):
            if start is not None:
                spans.add((start, i - 1, kind))
            start, kind = i, tag[2:]
        elif tag.startswith("I-"):
            if start is not None and kind == tag[2:]:
                continue
            if not repair:
                raise ValueError(f"invalid IOB tag {tag!r} at position {i}")
            if start is not None:
                spans.add((start, i - 1, kind))
            start, kind = i, tag[2:]
        else:
            raise ValueError(f"malformed tag {tag!r} at position {i}")
    if start is not None:
        spans.add((start, len(tags) - 1, kind))
    return spans


def _as_sequences(pred, gold):
    if len(pred) != len(gold):
        raise ValueError(f"prediction count {len(pred)} != gold count {len(gold)}")
    if pred and isinstance(pred[0], str):
        pred, gold = [pred], [gold]
    for i, (p, g) in enumerate(zip(pred, gold)):
        if len(p) != len(g):
            raise ValueError(f"item {i}: prediction length {len(p)} != gold {len(g)}")
    return pred, gold


def span_f1(pred_tags, gold_tags) -> float:
    """Exact-match micro F1 over spans; predictions are IOB-repaired, gold is strict."""
    pred_seqs, gold_seqs = _as_sequences(pred_tags, gold_tags)
    tp = fp = fn = 0
    for pred, gold in zip(pred_seqs, gold_seqs):
        p_spans = iob_spans(pred, repair=True)
        g_spans = iob_spans(gold)
        tp += len(p_spans & g_spans)
        fp += len(p_spans - g_spans)
        fn += len(g_spans - p_spans)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def token_f1(pred_tags, gold_tags) -> float:
    """Micro F1 over word tokens, counting non-O tags only."""
    pred_seqs, gold_seqs = _as_sequences(pred_tags, gold_tags)
    tp = fp = fn = 0
    for pred, gold in zip(pred_seqs, gold_seqs):
        for p, g in zip(pred, gold):
            if p == g and g != "O":
                tp += 1
            else:
                if p != "O":
                    fp += 1
                if g != "O":
                    fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def aggregate(values) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation over exactly five run values."""
    values = [float(v) for v in values]
    if len(values) != 5:
        raise ValueError(f"the protocol aggregates exactly 5 runs, got {len(values)}")
    if any(not math.isfinite(v) for v in values):
        raise ValueError("run values must be finite")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.4f} ({std:.4f})"


@dataclass(frozen=True)
class RunReport:
    task: str
    model: str
    metric: str
    values: tuple[float, ...]
    mean: float
    std: float
    secondary_metric: str | None = None
    secondary_values: tuple[float, ...] | None = None

    @property
    def formatted(self) -> str:
        return format_mean_std(self.mean, self.std)

    @classmethod
    def from_values(cls, task, model, metric, values,
                    secondary_metric=None, secondary_values=None) -> "RunReport":
        mean, std = aggregate(values)
        return cls(task=task, model=model, metric=metric, values=tuple(values),
                   mean=mean, std=std, secondary_metric=secondary_metric,
                   secondary_values=tuple(secondary_values) if secondary_values else None)

    def render(self) -> str:
        header = ("task\tmodel\tmetric\tmean\tstd\tformatted\tvalues"
                  "\tsecondary_metric\tsecondary_formatted")
        values = ",".join(f"{v:.6f}" for v in self.values)
        if self.secondary_values:
            sec_name = self.secondary_metric or "secondary"
            sec = format_mean_std(*aggregate(self.secondary_values))
        else:
            sec_name, sec = "-", "-"
        row = (f"{self.task}\t{self.model}\t{self.metric}\t{self.mean:.6f}"
               f"\t{self.std:.6f}\t{self.formatted}\t{values}\t{sec_name}\t{sec}")
        return header + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# fine-tuning loops

def _check_protocol(seeds, dataset):
    seeds = [int(s) for s in seeds]
    if len(seeds) != 5 or len(set(seeds)) != 5:
        raise ValueError(f"the protocol needs 5 distinct seeds, got {seeds}")
    for split_name in ("train", "dev", "test"):
        if not getattr(dataset, split_name):
            raise ValueError(f"dataset {split_name} split is empty")
    return seeds


def _lr_at(total_steps: int, lr: float):
    if total_steps < 2:
        return lambda step: lr
    schedule = LrSchedule(lr, max(1, min(total_steps // 10, total_steps - 1)), total_steps)
    return lambda step: lr_at_step(schedule, step)


def _warn_if_degenerate(labels, what):
    if len(set(labels)) < 2:
        warnings.warn(f"{what} labels are all {labels[0]!r}; the head cannot learn "
                      "a decision boundary", stacklevel=3)


def _run_seeds(config, params, seeds, ft, n_out, train, batch_loss, score, dev, test):
    """The five-seed protocol shared by both tasks; returns score(test) per seed.

    Per seed: a fresh linear head of n_out outputs on a copy of ``params``,
    ``pretrain.fit`` over ft.epochs of ``batch_loss(batch, work, tape, rng)``,
    and the weights of the epoch whose first ``score(dev, work)`` entry (an F1)
    is best. The seed's rng draws the head, then one permutation per epoch,
    then dropout inside ``batch_loss``. Divergence is re-raised as "seed N: ...".
    """
    lr_at = _lr_at(ft.epochs * math.ceil(len(train) / ft.batch_size), ft.lr)
    results = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        work = {name: t.copy() for name, t in params.items()}
        work["head.w"] = Tensor(truncated_normal(rng, (config.hidden, n_out), 0.02))
        work["head.b"] = Tensor(np.zeros(n_out, dtype=np.float32))
        best_f1, best = -1.0, None

        def keep_if_best():
            nonlocal best_f1, best
            dev_f1 = score(dev, work)[0]
            if dev_f1 > best_f1:
                best_f1, best = dev_f1, {name: t.data.copy() for name, t in work.items()}

        try:
            fit(work, len(train), ft, rng, lr_at,
                lambda picked, tape: batch_loss([train[i] for i in picked], work, tape, rng),
                keep_if_best)
        except TrainingDiverged as exc:
            raise TrainingDiverged(exc.step, f"seed {seed}: {exc.reason}",
                                   exc.loss_log) from exc
        for name, t in work.items():
            t.data = best[name]
        results.append(score(test, work))
    return results


def _head_logits(encodings, vocab, config, work, pooled, tape=None, rng=None,
                 train_mode=False):
    """Head output on the [CLS] vector (pooled) or on every piece."""
    rows = [e.ids for e in encodings]
    hidden = forward(pad_rows(rows, vocab.pad_id), length_mask(rows), config, work,
                     train_mode=train_mode, tape=tape, rng=rng)[-1]
    if pooled:
        hidden = select_position(hidden, 0, tape)
    return matmul(hidden, work["head.w"], tape, bias=work["head.b"])


def _predict_rows(encodings, vocab, config, work, batch_size, pooled):
    """Argmax head output per encoding, computed batch by batch."""
    for lo in range(0, len(encodings), batch_size):
        logits = _head_logits(encodings[lo:lo + batch_size], vocab, config, work,
                              pooled=pooled)
        yield from logits.data.argmax(axis=-1)


def finetune_classify(config: ModelConfig, params: dict[str, Tensor], vocab: Vocab,
                      dataset: LabeledTextDataset, seeds,
                      ft_config: FinetuneConfig | None = None,
                      task: str = "classification", model_name: str = "model"
                      ) -> RunReport:
    """Five-seed classification fine-tuning with dev-best checkpoint selection."""
    ft = ft_config or FinetuneConfig()
    seeds = _check_protocol(seeds, dataset)
    _warn_if_degenerate([label for _, label in dataset.train], "train")
    labels = dataset.labels
    label_ids = {label: i for i, label in enumerate(labels)}
    max_seq = min(ft.max_seq, config.max_seq)
    encodings = {text: encode(text, vocab, max_seq)
                 for text, _ in dataset.train + dataset.dev + dataset.test}

    def batch_loss(batch, work, tape, rng):
        logits = _head_logits([encodings[text] for text, _ in batch], vocab, config,
                              work, pooled=True, tape=tape, rng=rng, train_mode=True)
        gold = np.array([label_ids[label] for _, label in batch])
        return cross_entropy_masked(logits, gold, tape)

    def score(items, work):
        choices = _predict_rows([encodings[text] for text, _ in items], vocab, config,
                                work, ft.batch_size, pooled=True)
        pred = [labels[j] for j in choices]
        return (classification_f1(pred, [g for _, g in items], labels,
                                  dataset.positive_label),)

    scores = _run_seeds(config, params, seeds, ft, len(labels), dataset.train,
                        batch_loss, score, dataset.dev, dataset.test)
    return RunReport.from_values(task, model_name, "f1", [s[0] for s in scores])


def _encode_tagged(items, vocab, max_seq, tag_ids):
    """Per item: encoding, per-piece label array, and word -> first-piece map."""
    out = []
    for tokens, tags in items:
        enc = encode_words(tokens, vocab, max_seq)
        labels = np.full(len(enc.ids), IGNORE_INDEX, dtype=np.int64)
        first_piece = []
        for w, (start, stop) in enumerate(enc.word_spans):
            if stop > start and w < len(tags):
                labels[start] = tag_ids[tags[w]]
                first_piece.append(start)
            else:
                first_piece.append(-1)
        # Words beyond the truncation horizon keep -1 and predict as O.
        while len(first_piece) < len(tokens):
            first_piece.append(-1)
        out.append((enc, labels, first_piece))
    return out


def finetune_tag(config: ModelConfig, params: dict[str, Tensor], vocab: Vocab,
                 dataset: TaggedTokenDataset, seeds,
                 ft_config: FinetuneConfig | None = None,
                 task: str = "tagging", model_name: str = "model") -> RunReport:
    """Five-seed IOB tagging fine-tuning; span-level F1 primary, token-level secondary."""
    ft = ft_config or FinetuneConfig()
    seeds = _check_protocol(seeds, dataset)
    tags = dataset.tags
    tag_ids = {tag: i for i, tag in enumerate(tags)}
    max_seq = min(ft.max_seq, config.max_seq)
    train_rows = _encode_tagged(dataset.train, vocab, max_seq, tag_ids)
    dev, test = ((_encode_tagged(split, vocab, max_seq, tag_ids), [gold for _, gold in split])
                 for split in (dataset.dev, dataset.test))

    def batch_loss(rows, work, tape, rng):
        logits = _head_logits([enc for enc, _, _ in rows], vocab, config, work,
                              pooled=False, tape=tape, rng=rng, train_mode=True)
        labels = pad_rows([lab for _, lab, _ in rows], IGNORE_INDEX)
        flat = reshape(logits, (labels.size, len(tags)), tape)
        return cross_entropy_masked(flat, labels.reshape(-1), tape)

    def score(split, work):
        rows, gold = split
        choices = _predict_rows([enc for enc, _, _ in rows], vocab, config, work,
                                ft.batch_size, pooled=False)
        pred = [[tags[choice[p]] if p >= 0 else "O" for p in first_piece]
                for choice, (_, _, first_piece) in zip(choices, rows)]
        return span_f1(pred, gold), token_f1(pred, gold)

    scores = _run_seeds(config, params, seeds, ft, len(tags), train_rows, batch_loss,
                        score, dev, test)
    span_scores, token_scores = zip(*scores)
    return RunReport.from_values(task, model_name, "span_f1", span_scores,
                                 secondary_metric="token_f1",
                                 secondary_values=token_scores)
