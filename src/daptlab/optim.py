"""Adam with decoupled weight decay, and the warmup/linear-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(ValueError):
    """A NaN/Inf gradient; the Adam step was rejected before any update."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for {name!r}: step rejected")
        self.name = name


class AdamState:
    """The flat training state: parameters, gradients, moments and a step count.

    ``AdamState(params)`` copies every parameter, in the params dict's order,
    into one flat ``params`` buffer and gives it a slot in one zeroed
    ``grads`` buffer; each ``p.data`` and ``p.grad`` is rebound to a reshaped
    view of its slot. Backward then accumulates straight into ``grads``, and
    ``adam_step`` updates ``params``, ``m`` and ``v`` in place. Tensor ``k``
    (``names[k]``) owns ``[bounds[k], bounds[k + 1])`` of each buffer.
    """

    def __init__(self, params: dict[str, Tensor]):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ValueError("Adam needs parameters of one dtype, got "
                             + ", ".join(sorted(d.name for d in dtypes)))
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.t = 0
        self.names = list(params)
        self.bounds = list(accumulate((p.data.size for p in params.values()), initial=0))
        size = self.bounds[-1]
        self.params = np.empty(size, dtype=dtype)
        self.grads = np.zeros(size, dtype=dtype)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self._tmp = np.empty(size, dtype=dtype)  # scratch for adam_step
        for p, lo, hi in zip(params.values(), self.bounds, self.bounds[1:]):
            view = self.params[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p.grad = self.grads[lo:hi].reshape(view.shape)


def adam_step(state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update of ``state.params``, in place.

    Weight decay is decoupled: param -= lr * wd * param before the moment
    update. A NaN/Inf gradient rejects the whole step (poisoned state) before
    any parameter or moment is touched. A parameter no op reached has a zero
    gradient, so it only decays. The gradients are zeroed after the update,
    ready for the next backward.
    """
    if not lr >= 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if not weight_decay >= 0.0:
        raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
    g, flat, m, v, tmp = state.grads, state.params, state.m, state.v, state._tmp
    if not np.isfinite(g).all():
        for name, lo, hi in zip(state.names, state.bounds, state.bounds[1:]):
            if not np.isfinite(g[lo:hi]).all():
                raise NonFiniteGradient(name)

    # The textbook formulas, evaluated in the same order with in-place
    # operations on the flat buffers, so the result is bit for bit the
    # per-tensor update.
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    if weight_decay:
        np.multiply(flat, lr * weight_decay, out=tmp)
        flat -= tmp                              # p -= lr * wd * p
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=tmp)
    m += tmp                                     # m = b1 m + (1 - b1) g
    v *= BETA2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - BETA2
    v += tmp                                     # v = b2 v + (1 - b2) g^2
    mhat = np.divide(m, bc1, out=g)
    vhat = np.divide(v, bc2, out=tmp)
    np.sqrt(vhat, out=vhat)
    vhat += EPS
    mhat *= lr
    mhat /= vhat
    flat -= mhat                                 # p -= lr mhat / (sqrt(vhat) + eps)
    g.fill(0.0)


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup 0 -> peak over warmup_steps, then linear decay to 0 at total_steps."""

    peak_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if not self.peak_lr >= 0.0:
            raise ValueError(f"peak_lr must be >= 0, got {self.peak_lr}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.total_steps <= self.warmup_steps:
            raise ValueError(f"total_steps ({self.total_steps}) must exceed warmup_steps "
                             f"({self.warmup_steps}); lower warmup_steps for short runs")


def lr_at_step(schedule: LrSchedule, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step <= schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    return schedule.peak_lr * (schedule.total_steps - step) / span
