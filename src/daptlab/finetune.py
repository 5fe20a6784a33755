"""Task heads on the encoder, the 5-seed protocol, and F1 metrics.

Both tasks put a linear head on the positions each example lists: [CLS] for
classification, each word's first piece for tagging. The encoder's last layer
runs past attention on those rows only (``forward(rows=)``), and one masked
cross-entropy over the listed positions trains either head.
Reported numbers follow the repeated-runs protocol: five seeds, mean and
sample standard deviation, rendered as "mean (std)" with four decimals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, cross_entropy_masked, matmul
from .model import ModelConfig, forward, pad_batch, truncated_normal
from .optim import AdamState, LrSchedule
from .pretrain import TrainingDiverged, fit
# the benchmark's tracer rebinds these here; the fine-tunes train through fit
# and read their heads' positions through forward(rows=)
from .autodiff import Tape, add, backward, reshape, select_position  # noqa: F401
from .optim import adam_step  # noqa: F401
from .tokenizer import Vocab, encode, encode_words


@dataclass(frozen=True)
class FinetuneConfig:
    """Fine-tuning regimen; defaults are the full-scale reference values."""

    lr: float = 2e-5
    epochs: int = 4
    batch_size: int = 16
    weight_decay: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


# ---------------------------------------------------------------------------
# datasets

def _split_records(records, seed: int, item):
    """(train, dev, test) lists of item(record): routed by the records' split
    field when any record has one, else a deterministic 80/10/10 shuffle-split."""
    if any("split" in rec for rec in records):
        splits = {"train": [], "dev": [], "test": []}
        for i, rec in enumerate(records):
            split = rec.get("split")
            if split not in splits:
                raise ValueError(f"record {i}: split must be train/dev/test, got {split!r}")
            splits[split].append(item(rec))
        return splits["train"], splits["dev"], splits["test"]
    order = np.random.default_rng(seed).permutation(len(records))
    n_train = int(round(len(records) * 0.8))
    n_dev = int(round(len(records) * 0.1))
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
        if self.positive_label is not None and len(self.labels) != 2:
            raise ValueError(f"positive_label needs exactly two labels, got {len(self.labels)}")
        for split_name, split in (("train", self.train), ("dev", self.dev),
                                  ("test", self.test)):
            for i, (_, label) in enumerate(split):
                if label not in self.labels:
                    raise ValueError(f"{split_name} item {i}: unknown label {label!r}")
        _check_disjoint(self.train, self.dev, self.test, key=lambda it: it[0])

    @classmethod
    def from_records(cls, records, positive_label=None, seed: int = 0) -> "LabeledTextDataset":
        """records: dicts with text/label and an optional split field; the
        labels are the sorted set of the records' labels."""
        items = []
        for i, rec in enumerate(records):
            if not isinstance(rec.get("text"), str) or not isinstance(rec.get("label"), str):
                raise ValueError(f"record {i} needs string text and label fields")
            items.append(rec)
        labels = tuple(sorted({rec["label"] for rec in items}))
        train, dev, test = _split_records(items, seed, lambda rec: (rec["text"], rec["label"]))
        return cls(train=train, dev=dev, test=test, labels=labels,
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
    def from_records(cls, records, seed: int = 0) -> "TaggedTokenDataset":
        """records: dicts with tokens/tags lists and an optional split field;
        the tag set is the sorted set of the records' tags plus "O"."""
        items = []
        for i, rec in enumerate(records):
            if not all(isinstance(rec.get(key), list)
                       and all(isinstance(s, str) for s in rec[key])
                       for key in ("tokens", "tags")):
                raise ValueError(f"record {i} needs tokens and tags lists of strings")
            items.append(rec)
        tags = tuple(sorted({tag for rec in items for tag in rec["tags"]} | {"O"}))
        train, dev, test = _split_records(
            items, seed, lambda rec: (list(rec["tokens"]), list(rec["tags"])))
        return cls(train=train, dev=dev, test=test, tags=tags)


# ---------------------------------------------------------------------------
# metrics

def _f1(tp: int, fp: int, fn: int) -> float:
    """F1 from true/false positive and false negative counts; 0 when undefined."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_binary(pred, gold, positive) -> float:
    """Precision/recall F1 for one positive class; 0 when undefined."""
    if len(pred) != len(gold):
        raise ValueError(f"prediction count {len(pred)} != gold count {len(gold)}")
    tp = sum(1 for p, g in zip(pred, gold) if p == positive and g == positive)
    fp = sum(1 for p, g in zip(pred, gold) if p == positive and g != positive)
    fn = sum(1 for p, g in zip(pred, gold) if p != positive and g == positive)
    return _f1(tp, fp, fn)


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


def _check_aligned(pred_seqs, gold_seqs) -> None:
    if len(pred_seqs) != len(gold_seqs):
        raise ValueError(f"prediction count {len(pred_seqs)} != gold count {len(gold_seqs)}")
    for i, (p, g) in enumerate(zip(pred_seqs, gold_seqs)):
        if isinstance(p, str) or isinstance(g, str):
            raise ValueError(f"item {i} is a string; expected lists of tag sequences")
        if len(p) != len(g):
            raise ValueError(f"item {i}: prediction length {len(p)} != gold {len(g)}")


def span_f1(pred_seqs, gold_seqs) -> float:
    """Exact-match micro F1 over the spans of lists of tag sequences;
    predictions are IOB-repaired, gold is strict."""
    _check_aligned(pred_seqs, gold_seqs)
    tp = fp = fn = 0
    for pred, gold in zip(pred_seqs, gold_seqs):
        p_spans = iob_spans(pred, repair=True)
        g_spans = iob_spans(gold)
        tp += len(p_spans & g_spans)
        fp += len(p_spans - g_spans)
        fn += len(g_spans - p_spans)
    return _f1(tp, fp, fn)


def token_f1(pred_seqs, gold_seqs) -> float:
    """Micro F1 over the word tokens of lists of tag sequences, counting
    non-O tags only."""
    _check_aligned(pred_seqs, gold_seqs)
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
    return _f1(tp, fp, fn)


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


def _warn_if_degenerate(labels, what):
    if len(set(labels)) < 2:
        warnings.warn(f"{what} labels are all {labels[0]!r}; the head cannot learn "
                      "a decision boundary", stacklevel=3)


def _run_seeds(config, params, vocab, seeds, ft, n_out, train, score, dev, test):
    """The five-seed protocol shared by both tasks; returns score(test) per seed.

    Per seed: a fresh linear head of n_out outputs beside ``params``, all
    copied into one ``AdamState``; ``pretrain.fit`` over ft.epochs of
    ``_head_loss`` on the train examples; and the weights of the epoch whose
    first ``score(dev, work)`` entry (an F1) is best, kept as a copy of the
    state's parameters and restored into them. The seed's rng draws the head,
    then one permutation per epoch, then dropout inside ``_head_loss``.
    Divergence is re-raised as "seed N: ...".
    """
    total = ft.epochs * math.ceil(len(train) / ft.batch_size)
    # warmup over a tenth of the steps; a one-step run's step 1 is ft.lr
    schedule = LrSchedule(ft.lr, max(1, min(total // 10, total - 1)), max(total, 2))
    results = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        work = {name: Tensor(t.data) for name, t in params.items()}
        work["head.w"] = Tensor(truncated_normal(rng, (config.hidden, n_out), 0.02))
        work["head.b"] = Tensor(np.zeros(n_out, dtype=np.float32))
        state = AdamState(work)
        best_f1, best = -1.0, None

        def keep_if_best():
            nonlocal best_f1, best
            dev_f1 = score(dev, work)[0]
            if dev_f1 > best_f1:
                best_f1, best = dev_f1, state.params.copy()

        try:
            fit(state, len(train), ft, rng, schedule,
                lambda picked, tape: _head_loss([train[i] for i in picked], vocab, config,
                                                work, tape, rng),
                keep_if_best)
        except TrainingDiverged as exc:
            raise TrainingDiverged(exc.step, f"seed {seed}: {exc.reason}",
                                   exc.loss_log) from exc
        state.params[...] = best
        results.append(score(test, work))
    return results


def _head_logits(examples, vocab, config, work, tape=None, rng=None):
    """[n, classes] head output on every position the (encoding, positions, gold
    ids) examples list, in example order; dropout with an rng."""
    ids, mask, rows = pad_batch([enc.ids for enc, _, _ in examples],
                                [positions for _, positions, _ in examples], vocab.pad_id)
    hidden = forward(ids, mask, config, work, tape=tape, rng=rng, rows=rows)[-1]
    return matmul(hidden, work["head.w"], tape, bias=work["head.b"])


def _head_loss(examples, vocab, config, work, tape=None, rng=None):
    """The loss of both tasks: mean cross-entropy over every listed position."""
    gold = np.array([g for _, _, ids in examples for g in ids], dtype=np.int64)
    return cross_entropy_masked(_head_logits(examples, vocab, config, work, tape, rng),
                                gold, tape)


def _predict(examples, vocab, config, work, batch_size):
    """Per example, the argmax class at each listed position, batch by batch."""
    for lo in range(0, len(examples), batch_size):
        batch = examples[lo:lo + batch_size]
        choices = _head_logits(batch, vocab, config, work).data.argmax(axis=-1)
        yield from np.split(choices, np.cumsum([len(pos) for _, pos, _ in batch])[:-1])


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
    train, dev, test = ([(encode(text, vocab, config.max_seq), [0], [label_ids[label]])
                         for text, label in split]
                        for split in (dataset.train, dataset.dev, dataset.test))

    def score(examples, work):
        pred = [labels[c] for (c,) in _predict(examples, vocab, config, work,
                                                ft.batch_size)]
        gold = [labels[g] for _, _, (g,) in examples]
        return (classification_f1(pred, gold, labels, dataset.positive_label),)

    scores = _run_seeds(config, params, vocab, seeds, ft, len(labels), train, score,
                        dev, test)
    return RunReport.from_values(task, model_name, "f1", [s[0] for s in scores])


def _tagged_examples(items, vocab, max_seq, tag_ids):
    """(encoding, first piece of each word, tag ids of those words) per item;
    words past the truncation horizon have no span and are left out."""
    out = []
    for tokens, tags in items:
        enc = encode_words(tokens, vocab, max_seq)
        out.append((enc, [start for start, _ in enc.word_spans],
                    [tag_ids[tag] for tag in tags[:len(enc.word_spans)]]))
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
    train = _tagged_examples(dataset.train, vocab, config.max_seq, tag_ids)
    dev, test = ((_tagged_examples(split, vocab, config.max_seq, tag_ids),
                  [gold for _, gold in split])
                 for split in (dataset.dev, dataset.test))

    def score(split, work):
        examples, gold = split
        # a word past the truncation horizon predicts O
        pred = [[tags[c] for c in choice] + ["O"] * (len(g) - len(choice))
                for choice, g in zip(_predict(examples, vocab, config, work,
                                              ft.batch_size), gold)]
        return span_f1(pred, gold), token_f1(pred, gold)

    scores = _run_seeds(config, params, vocab, seeds, ft, len(tags), train, score,
                        dev, test)
    span_scores, token_scores = zip(*scores)
    return RunReport.from_values(task, model_name, "span_f1", span_scores,
                                 secondary_metric="token_f1",
                                 secondary_values=token_scores)
