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

from .autodiff import (IGNORE_INDEX, Tape, Tensor, backward, cross_entropy_masked,
                       reshape)  # noqa: F401  (the tracer rebinds reshape here)
from .model import ModelConfig, forward, mlm_logits, pad_batch
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
    """Per-step (step, loss) pairs."""

    entries: list[tuple[int, float]] = field(default_factory=list)

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


def _maskable(encodings: list[Encoding], vocab: Vocab
              ) -> tuple[list[Encoding], list[np.ndarray]]:
    """The encodings that have a maskable position, and those positions of
    each; one whose every content piece is [UNK] has none and is skipped."""
    candidates = [maskable_positions(enc, vocab) for enc in encodings]
    kept = [i for i, cand in enumerate(candidates) if cand.size]
    return [encodings[i] for i in kept], [candidates[i] for i in kept]


def _batch_arrays(encodings: list[Encoding], candidates: list[np.ndarray], vocab: Vocab,
                  policy: MaskingPolicy, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mask each encoding, given its maskable positions, and pad the batch to
    its longest sequence; returns ids, mask, the flat rows of the masked
    positions and their original ids."""
    masked = [apply_masking(enc, vocab, policy, rng, cand)
              for enc, cand in zip(encodings, candidates)]
    positions = [(labels != IGNORE_INDEX).nonzero()[0] for _, labels in masked]
    ids, mask, rows = pad_batch([got for got, _ in masked], positions, vocab.pad_id)
    targets = np.concatenate([labels[pos] for (_, labels), pos in zip(masked, positions)])
    return ids, mask, rows, targets


def fit(state: AdamState, n_items: int, regimen, rng: np.random.Generator,
        schedule: LrSchedule, batch_loss, end_epoch=None) -> LossLog:
    """The one training loop: Adam on ``state`` in place; returns the loss log.

    ``state`` is the caller's ``AdamState`` over the parameters that
    ``batch_loss`` reads, so backward accumulates into its gradient buffer.
    ``regimen`` (a TrainConfig or FinetuneConfig) gives epochs, batch_size and
    weight_decay. Each epoch draws one ``rng.permutation(n_items)``; each batch
    of indices gets a training tape, ``batch_loss(indices, tape)``, its
    backward and an Adam step at ``lr_at_step(schedule, step)``.
    ``end_epoch()`` runs after each epoch. A non-finite loss or gradient
    raises TrainingDiverged before the update is applied, so ``state.params``
    holds the last good step.

    Each step's tape is ``Tape(tape)``: the last step's closures go, and its
    buffers serve again, so the arrays a taped op returns or keeps during
    ``fit`` are the previous step's buffers. They are valid until the next
    step's tape is built; ``batch_loss`` must keep none past its step.
    """
    log = LossLog()
    step = 0
    tape = None
    for _ in range(regimen.epochs):
        order = rng.permutation(n_items)
        for lo in range(0, n_items, regimen.batch_size):
            step += 1
            tape = Tape(tape)
            loss = batch_loss(order[lo:lo + regimen.batch_size], tape)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingDiverged(step, f"non-finite loss {value}", log)
            log.entries.append((step, value))
            backward(tape, loss)
            try:
                adam_step(state, lr_at_step(schedule, step), regimen.weight_decay)
            except NonFiniteGradient as exc:
                raise TrainingDiverged(step, f"non-finite gradient for {exc.name!r}",
                                       log) from exc
        if end_epoch is not None:
            end_epoch()
    return log


def train(config: ModelConfig, params: dict[str, Tensor], texts, vocab: Vocab,
          train_config: TrainConfig) -> LossLog:
    """MLM-train ``params`` in place through ``fit``; returns the full loss log.

    Runs epochs x ceil(N / batch_size) optimizer steps under the warmup/decay
    schedule, masking with the default MaskingPolicy; N counts the documents
    with a maskable piece, so one that encodes to nothing but [UNK] is
    skipped. One rng, seeded by the config, draws each epoch's permutation,
    then each batch's masking, then its dropout.
    """
    policy = MaskingPolicy()
    encodings, candidates = _maskable(
        encode_corpus(texts, vocab, min(train_config.max_seq, config.max_seq)), vocab)
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

    def batch_loss(picked, tape):
        chunk = [encodings[i] for i in picked]
        chunk_candidates = [candidates[i] for i in picked]
        for _ in range(20):
            ids, mask, rows, targets = _batch_arrays(chunk, chunk_candidates, vocab,
                                                     policy, rng)
            if rows.size:
                break
        else:
            raise RuntimeError("could not draw a batch with any masked position")
        hidden = forward(ids, mask, config, params, tape=tape, rng=rng, rows=rows)
        return cross_entropy_masked(mlm_logits(hidden[-1], params, tape), targets, tape)

    return fit(AdamState(params), len(encodings), train_config, rng, schedule, batch_loss)


def _masked_eval(config, params, texts, vocab, seed, batch_size, what):
    """Yield (MLM logits, original ids) of the masked positions per batch under a
    fixed-seed default-policy corruption draw, skipping documents with no
    maskable piece and batches where the draw masked nothing."""
    encodings, candidates = _maskable(encode_corpus(texts, vocab, config.max_seq), vocab)
    if not encodings:
        raise ValueError(f"{what} needs at least one usable document")
    policy = MaskingPolicy()
    rng = np.random.default_rng(seed)
    for lo in range(0, len(encodings), batch_size):
        ids, mask, rows, targets = _batch_arrays(encodings[lo:lo + batch_size],
                                                 candidates[lo:lo + batch_size], vocab,
                                                 policy, rng)
        if rows.size:
            # no name holds the hidden states across the yield, so they are freed
            logits = mlm_logits(forward(ids, mask, config, params, rows=rows)[-1], params)
            yield logits, targets


def perplexity(config: ModelConfig, params: dict[str, Tensor], texts, vocab: Vocab,
               seed: int = 0, batch_size: int = 32) -> float:
    """exp(mean masked cross-entropy) under a fixed-seed corruption draw."""
    total_nll = 0.0
    total_count = 0
    for logits, labels in _masked_eval(config, params, texts, vocab, seed, batch_size,
                                       "perplexity"):
        total_nll += float(cross_entropy_masked(logits, labels).data) * labels.size
        total_count += labels.size
    if total_count == 0:
        raise ValueError("masking selected no position in the whole corpus")
    return float(math.exp(total_nll / total_count))


def masked_token_accuracy(config: ModelConfig, params: dict[str, Tensor], texts,
                          vocab: Vocab, seed: int = 0, batch_size: int = 32) -> float:
    """Fraction of corrupted positions whose argmax prediction is the original."""
    hits = 0
    total = 0
    for logits, labels in _masked_eval(config, params, texts, vocab, seed, batch_size,
                                       "accuracy"):
        hits += int((logits.data.argmax(axis=-1) == labels).sum())
        total += labels.size
    if total == 0:
        raise ValueError("masking selected no position in the whole corpus")
    return hits / total


def corpus_token_count(texts, vocab: Vocab) -> int:
    """Total WordPiece count without [CLS]/[SEP] or truncation (an unspellable
    word counts as one [UNK]), the unit of the data-size regimen check."""
    return sum(count_pieces(text, vocab) for text in texts)


def dapt(config: ModelConfig, base_params: dict[str, Tensor], domain_texts,
         vocab: Vocab, dapt_config: TrainConfig, base_config: TrainConfig,
         base_token_count: int | None = None) -> tuple[dict[str, Tensor], LossLog]:
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
    log = train(config, adapted, domain_texts, vocab, dapt_config)
    return adapted, log
