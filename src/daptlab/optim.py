"""Adam with decoupled weight decay, and the warmup/linear-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


class NonFiniteGradient(ValueError):
    """A NaN/Inf gradient; the Adam step was rejected before any update."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for {name!r}: step rejected")
        self.name = name


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus a shared step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, Tensor], beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            m={name: np.zeros_like(p.data) for name, p in params.items()},
            v={name: np.zeros_like(p.data) for name, p in params.items()},
            t=0, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | None],
              state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay is decoupled: param -= lr * wd * param before the moment
    update. A NaN/Inf gradient rejects the whole step (poisoned state) before
    any parameter or moment is touched. A missing/None gradient counts as zero.
    """
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if weight_decay < 0.0:
        raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{p.data.shape} for {name!r}")
        if not np.isfinite(g).all():
            raise NonFiniteGradient(name)

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= lr * mhat / (np.sqrt(vhat) + state.eps)


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup 0 -> peak over warmup_steps, then linear decay to 0 at total_steps."""

    peak_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.peak_lr < 0.0:
            raise ValueError(f"peak_lr must be >= 0, got {self.peak_lr}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.total_steps <= self.warmup_steps:
            raise ValueError(f"total_steps ({self.total_steps}) must exceed "
                             f"warmup_steps ({self.warmup_steps})")


def lr_at_step(schedule: LrSchedule, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step <= schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    return schedule.peak_lr * (schedule.total_steps - step) / span
