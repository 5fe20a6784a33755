"""Adam with decoupled weight decay, and the warmup/linear-decay schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


class NonFiniteGradient(ValueError):
    """A NaN/Inf gradient; the Adam step was rejected before any update."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for {name!r}: step rejected")
        self.name = name


class AdamState:
    """First/second moment estimates plus a shared step count.

    The moments of all parameters live in one flat buffer each (``m_flat``,
    ``v_flat``), laid out in the order of the params dict given to
    ``for_params``; ``m[name]`` and ``v[name]`` are reshaped views into them.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.t = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.slices: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self.slices[name] = (offset, offset + size, tuple(shape))
            offset += size
        self.m_flat = np.zeros(offset, dtype=dtype)
        self.v_flat = np.zeros(offset, dtype=dtype)
        self.m = self._views(self.m_flat)
        self.v = self._views(self.v_flat)
        # scratch for adam_step: gathered gradients, parameters, temporaries
        self._g_flat = np.empty(offset, dtype=dtype)
        self._p_flat = np.empty(offset, dtype=dtype)
        self._tmp = np.empty(offset, dtype=dtype)
        self._p_views = list(self._views(self._p_flat).values())

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[lo:hi].reshape(shape)
                for name, (lo, hi, shape) in self.slices.items()}

    @classmethod
    def for_params(cls, params: dict[str, Tensor], beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ValueError("Adam needs parameters of one dtype, got "
                             + ", ".join(sorted(d.name for d in dtypes)))
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        return cls({name: p.data.shape for name, p in params.items()}, dtype,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray | None],
              state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay is decoupled: param -= lr * wd * param before the moment
    update. A NaN/Inf gradient rejects the whole step (poisoned state) before
    any parameter or moment is touched. A missing/None gradient counts as zero.
    All parameters are updated in one pass over flat copies of the parameters
    and gradients; the results are written back into each ``p.data`` in place.
    """
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if weight_decay < 0.0:
        raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
    if params.keys() != state.slices.keys():
        raise ValueError("params do not match the parameters AdamState was built for")
    tensors = [params[name] for name in state.slices]
    dtype = state.m_flat.dtype
    gathered = []
    for name, p in zip(state.slices, tensors):
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.data.shape, dtype=dtype)
        elif g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{p.data.shape} for {name!r}")
        gathered.append(g)
    g = np.concatenate(gathered, axis=None, out=state._g_flat)
    if not np.isfinite(g).all():
        for name, part in zip(state.slices, gathered):
            if not np.isfinite(part).all():
                raise NonFiniteGradient(name)
    flat = np.concatenate([p.data for p in tensors], axis=None, out=state._p_flat)

    # The textbook formulas, evaluated in the same order with in-place
    # operations on the scratch buffers, so the result is bit for bit the
    # per-tensor update.
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v, tmp = state.m_flat, state.v_flat, state._tmp
    if weight_decay:
        np.multiply(flat, lr * weight_decay, out=tmp)
        flat -= tmp                              # p -= lr * wd * p
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp                                     # m = b1 m + (1 - b1) g
    v *= b2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - b2
    v += tmp                                     # v = b2 v + (1 - b2) g^2
    mhat = np.divide(m, bc1, out=g)
    vhat = np.divide(v, bc2, out=tmp)
    np.sqrt(vhat, out=vhat)
    vhat += state.eps
    mhat *= lr
    mhat /= vhat
    flat -= mhat                                 # p -= lr mhat / (sqrt(vhat) + eps)
    for p, updated in zip(tensors, state._p_views):
        np.copyto(p.data, updated)


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
