"""Masked-language-model pretraining and the continued-pretraining regimen.

Masking follows the usual recipe: each content position is selected with
probability select_prob; a selected position is replaced by [MASK], by a
random non-special token, or kept, per the policy fractions. Sequences where
the draw selects nothing are resampled once.

fit() is the one training loop, run by train(), dapt() and every fine-tune seed.

dapt() is the guarded continuation entry point: it rejects configurations
that do not lower the learning rate (and, when the caller supplies the base
token count, those whose adaptation corpus is not smaller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (IGNORE_INDEX, Tape, Tensor, backward,
                       cross_entropy_masked, reshape, zero_grads)
from .model import (ModelConfig, forward, labelled_rows, length_mask, mlm_logits,
                    pad_rows)
from .optim import AdamState, LrSchedule, NonFiniteGradient, adam_step, lr_at_step
from .tokenizer import Encoding, Vocab, count_pieces, encode


class RegimenError(ValueError):
    """A continued-pretraining config that violates the forgetting regimen."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient; parameters still hold the last good step."""

    def __init__(self, step: int, reason: str, loss_log: "LossLog"):
        super().__init__(f"{reason} at step {step}; aborting with last-good parameters")
        self.step = step
        self.reason = reason
        self.loss_log = loss_log


@dataclass(frozen=True)
class MaskingPolicy:
    select_prob: float = 0.15
    mask_frac: float = 0.8
    random_frac: float = 0.1
    keep_frac: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.select_prob <= 1.0:
            raise ValueError(f"select_prob must be in (0, 1], got {self.select_prob}")
        for name in ("mask_frac", "random_frac", "keep_frac"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        total = self.mask_frac + self.random_frac + self.keep_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mask/random/keep fractions must sum to 1, got {total}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization regimen. Full-scale reference values are peak_lr 1e-4 for
    base pretraining vs 2e-5 for adaptation, 30 epochs, batch 64, weight decay
    0.01 and 10000 warmup steps; the desk warmup default is 100 so that short
    runs still reach their peak."""

    peak_lr: float
    epochs: int = 30
    batch_size: int = 64
    weight_decay: float = 0.01
    warmup_steps: int = 100
    seed: int = 0
    max_seq: int = 128

    def __post_init__(self):
        if self.peak_lr <= 0.0:
            raise ValueError(f"peak_lr must be > 0, got {self.peak_lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("batch_size", "warmup_steps", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class LossLog:
    """Per-step (step, loss) pairs plus the step index closing each epoch."""

    entries: list[tuple[int, float]] = field(default_factory=list)
    epoch_ends: list[int] = field(default_factory=list)

    def render(self) -> str:
        lines = ["step\tloss"]
        lines += [f"{step}\t{loss:.6f}" for step, loss in self.entries]
        return "\n".join(lines) + "\n"


def maskable_positions(encoding: Encoding, vocab: Vocab) -> np.ndarray:
    """Positions masking may select: content pieces that are not special tokens."""
    return np.array(
        [i for start, stop in encoding.word_spans for i in range(start, stop)
         if encoding.ids[i] not in vocab.special_ids],
        dtype=np.int64,
    )


def apply_masking(encoding: Encoding, vocab: Vocab, policy: MaskingPolicy,
                  rng: np.random.Generator, candidates: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt one encoding; returns (input ids, labels with IGNORE_INDEX).

    ``candidates`` is ``maskable_positions(encoding, vocab)``, for callers
    that draw the same encoding many times; it is computed when not given.
    """
    ids = np.asarray(encoding.ids, dtype=np.int64)
    if candidates is None:
        candidates = maskable_positions(encoding, vocab)
    if candidates.size == 0:
        raise ValueError("encoding has no maskable content pieces")

    labels = np.full_like(ids, IGNORE_INDEX)
    corrupted = ids.copy()
    for _ in range(2):  # one resample for all-unselected draws
        selected = candidates[rng.random(candidates.size) < policy.select_prob]
        if selected.size:
            break
    if selected.size == 0:
        return corrupted, labels

    labels[selected] = ids[selected]
    action = rng.random(selected.size)
    to_mask = selected[action < policy.mask_frac]
    to_random = selected[(action >= policy.mask_frac)
                         & (action < policy.mask_frac + policy.random_frac)]
    corrupted[to_mask] = vocab.mask_id
    if to_random.size:
        allowed = vocab.non_special_ids
        corrupted[to_random] = allowed[rng.integers(0, allowed.size, to_random.size)]
    return corrupted, labels


def encode_corpus(texts, vocab: Vocab, max_seq: int) -> list[Encoding]:
    """Encode texts, dropping any that end up with no content pieces."""
    encodings = []
    for text in texts:
        enc = encode(text, vocab, max_seq)
        if any(stop > start for start, stop in enc.word_spans):
            encodings.append(enc)
    return encodings


def _batch_arrays(encodings: list[Encoding], candidates: list[np.ndarray], vocab: Vocab,
                  policy: MaskingPolicy, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask each encoding, given its maskable positions, and pad the batch to
    its longest sequence."""
    masked = [apply_masking(enc, vocab, policy, rng, cand)
              for enc, cand in zip(encodings, candidates)]
    rows = [got for got, _ in masked]
    return (pad_rows(rows, vocab.pad_id), length_mask(rows),
            pad_rows([lab for _, lab in masked], IGNORE_INDEX))


def _decode_labelled(hidden: Tensor, labels: np.ndarray, config: ModelConfig,
                     params: dict[str, Tensor], tape: Tape | None = None
                     ) -> tuple[Tensor, np.ndarray]:
    """MLM logits [n, V] of the n labelled positions only, and their labels."""
    flat = reshape(hidden, (labels.size, config.hidden), tape)
    rows, targets = labelled_rows(flat, labels, tape)
    return mlm_logits(rows, params, tape), targets


def fit(params: dict[str, Tensor], n_items: int, regimen, rng: np.random.Generator,
        lr_at, batch_loss, end_epoch=None) -> LossLog:
    """The one training loop: Adam on ``params`` in place; returns the loss log.

    ``regimen`` (a TrainConfig or FinetuneConfig) gives epochs, batch_size and
    weight_decay. Each epoch draws one ``rng.permutation(n_items)``; each batch
    of indices gets a fresh training tape, ``batch_loss(indices, tape)``, its
    backward and an Adam step at ``lr_at(step)``. ``end_epoch()`` runs after
    each epoch. A non-finite loss or gradient raises TrainingDiverged before
    the update is applied, so ``params`` hold the last good step.
    """
    state = AdamState.for_params(params)
    log = LossLog()
    step = 0
    for _ in range(regimen.epochs):
        order = rng.permutation(n_items)
        for lo in range(0, n_items, regimen.batch_size):
            step += 1
            tape = Tape()
            loss = batch_loss(order[lo:lo + regimen.batch_size], tape)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingDiverged(step, f"non-finite loss {value}", log)
            log.entries.append((step, value))
            backward(tape, loss)
            grads = {name: t.grad for name, t in params.items()}
            try:
                adam_step(params, grads, state, lr_at(step), regimen.weight_decay)
            except NonFiniteGradient as exc:
                raise TrainingDiverged(step, f"non-finite gradient for {exc.name!r}",
                                       log) from exc
            zero_grads(params)
        log.epoch_ends.append(step)
        if end_epoch is not None:
            end_epoch()
    return log


def train(config: ModelConfig, params: dict[str, Tensor], texts, vocab: Vocab,
          train_config: TrainConfig, policy: MaskingPolicy | None = None) -> LossLog:
    """MLM-train ``params`` in place through ``fit``; returns the full loss log.

    Runs epochs x ceil(N / batch_size) optimizer steps under the warmup/decay
    schedule. One rng, seeded by the config, draws each epoch's permutation,
    then each batch's masking, then its dropout.
    """
    policy = policy or MaskingPolicy()
    encodings = encode_corpus(texts, vocab, min(train_config.max_seq, config.max_seq))
    if not encodings:
        raise ValueError("training corpus has no usable documents")
    if train_config.epochs == 0:
        return LossLog()
    total_steps = train_config.epochs * math.ceil(len(encodings) / train_config.batch_size)
    if total_steps <= train_config.warmup_steps:
        raise ValueError(f"warmup_steps ({train_config.warmup_steps}) must be below "
                         f"total steps ({total_steps}); lower it for short runs")
    schedule = LrSchedule(train_config.peak_lr, train_config.warmup_steps, total_steps)
    rng = np.random.default_rng(train_config.seed)
    candidates = [maskable_positions(enc, vocab) for enc in encodings]

    def batch_loss(picked, tape):
        chunk = [encodings[i] for i in picked]
        chunk_candidates = [candidates[i] for i in picked]
        for _ in range(20):
            ids, mask, labels = _batch_arrays(chunk, chunk_candidates, vocab, policy, rng)
            if (labels != IGNORE_INDEX).any():
                break
        else:
            raise RuntimeError("could not draw a batch with any masked position")
        hidden = forward(ids, mask, config, params, train_mode=True, tape=tape, rng=rng)
        logits, targets = _decode_labelled(hidden[-1], labels, config, params, tape)
        return cross_entropy_masked(logits, targets, tape)

    return fit(params, len(encodings), train_config, rng,
               lambda step: lr_at_step(schedule, step), batch_loss)


def _masked_eval(config, params, texts, vocab, policy, seed, batch_size, max_seq, what):
    """Yield (MLM logits, labels) of the labelled positions per batch under a
    fixed-seed corruption draw, skipping batches where the draw masked nothing."""
    encodings = encode_corpus(texts, vocab, max_seq)
    if not encodings:
        raise ValueError(f"{what} needs at least one usable document")
    policy = policy or MaskingPolicy()
    rng = np.random.default_rng(seed)
    candidates = [maskable_positions(enc, vocab) for enc in encodings]
    for lo in range(0, len(encodings), batch_size):
        ids, mask, labels = _batch_arrays(encodings[lo:lo + batch_size],
                                          candidates[lo:lo + batch_size], vocab, policy, rng)
        if (labels != IGNORE_INDEX).any():
            hidden = forward(ids, mask, config, params)
            yield _decode_labelled(hidden[-1], labels, config, params)


def perplexity(config: ModelConfig, params: dict[str, Tensor], texts, vocab: Vocab,
               policy: MaskingPolicy | None = None, seed: int = 0,
               batch_size: int = 32, max_seq: int | None = None) -> float:
    """exp(mean masked cross-entropy) under a fixed-seed corruption draw."""
    total_nll = 0.0
    total_count = 0
    for logits, labels in _masked_eval(config, params, texts, vocab, policy, seed,
                                       batch_size, max_seq or config.max_seq,
                                       "perplexity"):
        total_nll += float(cross_entropy_masked(logits, labels).data) * labels.size
        total_count += labels.size
    if total_count == 0:
        raise ValueError("masking selected no position in the whole corpus")
    return float(math.exp(total_nll / total_count))


def masked_token_accuracy(config: ModelConfig, params: dict[str, Tensor], texts,
                          vocab: Vocab, policy: MaskingPolicy | None = None,
                          seed: int = 0, batch_size: int = 32) -> float:
    """Fraction of corrupted positions whose argmax prediction is the original."""
    hits = 0
    total = 0
    for logits, labels in _masked_eval(config, params, texts, vocab, policy, seed,
                                       batch_size, config.max_seq, "accuracy"):
        hits += int((logits.data.argmax(axis=-1) == labels).sum())
        total += labels.size
    if total == 0:
        raise ValueError("masking selected no position in the whole corpus")
    return hits / total


def corpus_token_count(texts, vocab: Vocab) -> int:
    """Total non-special WordPiece count, the unit of the data-size regimen check."""
    return sum(count_pieces(text, vocab) for text in texts)


def dapt(config: ModelConfig, base_params: dict[str, Tensor], domain_texts,
         vocab: Vocab, dapt_config: TrainConfig, base_config: TrainConfig,
         base_token_count: int | None = None,
         policy: MaskingPolicy | None = None) -> tuple[dict[str, Tensor], LossLog]:
    """Continue pretraining on a domain corpus under the reduced regimen.

    The base parameters are copied, never mutated; with epochs=0 the returned
    parameters equal the base exactly.
    """
    if dapt_config.peak_lr >= base_config.peak_lr:
        raise RegimenError(f"adaptation peak_lr ({dapt_config.peak_lr}) must be "
                           f"lower than the base peak_lr ({base_config.peak_lr})")
    if base_token_count is not None:
        domain_tokens = corpus_token_count(domain_texts, vocab)
        if domain_tokens >= base_token_count:
            raise RegimenError(f"adaptation corpus ({domain_tokens} tokens) must be "
                               f"smaller than the base corpus ({base_token_count})")
    adapted = {name: t.copy() for name, t in base_params.items()}
    log = train(config, adapted, domain_texts, vocab, dapt_config, policy)
    return adapted, log
