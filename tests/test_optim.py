"""Adam and the warmup/decay schedule against hand-rolled references."""

import math

import numpy as np
import pytest

from daptlab.autodiff import Tape, Tensor, backward, matmul, tsum
from daptlab.optim import (AdamState, LrSchedule, NonFiniteGradient, adam_step,
                           lr_at_step)


def reference_adam(w0, grad_seq, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam with decoupled decay applied first."""
    w = np.asarray(w0, dtype=np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grad_seq, start=1):
        g = np.asarray(g, dtype=np.float64)
        w -= lr * wd * w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
    return w


def per_tensor_adam(params, grads, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Step t of the update one tensor at a time, in the parameters' dtype:
    the formulas and their order that the flat adam_step must reproduce bit
    for bit."""
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        if wd:
            p -= lr * wd * p
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def set_grads(params, grads):
    """Write gradients into the parameters' slots of the state's buffer, as
    backward accumulates into them."""
    for name, g in grads.items():
        params[name].grad[...] = g


def slot(state, flat, name):
    """The part of one of the state's flat buffers that tensor ``name`` owns."""
    k = state.names.index(name)
    return flat[state.bounds[k]:state.bounds[k + 1]]


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        # bias correction makes |update| ~= lr regardless of gradient scale
        p = {"w": Tensor(np.zeros(3, dtype=np.float64))}
        state = AdamState(p)
        set_grads(p, {"w": [1e3, 1e-3, -5.0]})
        adam_step(state, lr=0.01)
        np.testing.assert_allclose(p["w"].data, [-0.01, -0.01, 0.01], rtol=1e-4)

    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(3)
        w0 = rng.standard_normal(7)
        grads = [rng.standard_normal(7) for _ in range(25)]
        p = {"w": Tensor(w0.copy())}
        state = AdamState(p)
        for g in grads:
            set_grads(p, {"w": g})
            adam_step(state, lr=0.02, weight_decay=0.04)
        np.testing.assert_allclose(p["w"].data,
                                   reference_adam(w0, grads, 0.02, 0.04),
                                   rtol=1e-10)
        assert state.t == 25

    def test_weight_decay_is_decoupled(self):
        # zero gradient: decay still shrinks the weight, moments stay zero
        p = {"w": Tensor(np.full(2, 10.0, dtype=np.float64))}
        state = AdamState(p)
        adam_step(state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p["w"].data, 10.0 * (1 - 0.1 * 0.5))
        np.testing.assert_allclose(state.m, 0.0)

    def test_parameter_no_op_reaches_only_decays(self):
        p = {"w": Tensor(np.ones((3, 2), dtype=np.float64)),
             "unused": Tensor(np.full(2, 4.0, dtype=np.float64))}
        state = AdamState(p)
        tape = Tape()
        backward(tape, tsum(matmul(Tensor(np.ones((1, 3))), p["w"], tape), tape))
        assert np.array_equal(p["unused"].grad, np.zeros(2))
        adam_step(state, lr=0.1, weight_decay=0.5)
        assert np.array_equal(p["unused"].data, np.full(2, 4.0 - 0.1 * 0.5 * 4.0))
        assert np.array_equal(slot(state, state.m, "unused"), np.zeros(2))
        assert (p["w"].data < 1.0 - 0.1 * 0.5).all()

    def test_nan_gradient_rejects_whole_step(self):
        p = {"a": Tensor(np.ones(2, dtype=np.float64)),
             "b": Tensor(np.ones(2, dtype=np.float64))}
        state = AdamState(p)
        set_grads(p, {"a": np.ones(2), "b": [1.0, np.nan]})
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(state, lr=0.1, weight_decay=0.1)
        # nothing mutated: params, moments, and the step counter
        np.testing.assert_allclose(p["a"].data, 1.0)
        np.testing.assert_allclose(p["b"].data, 1.0)
        np.testing.assert_allclose(state.m, 0.0)
        assert state.t == 0

    def test_flat_step_bit_identical_to_per_tensor(self):
        rng = np.random.default_rng(11)
        shapes = {"emb": (13, 6), "w": (6, 6), "b": (6,), "frozen": (4, 3),
                  "scalar": (), "gamma": (6,)}
        params = {n: Tensor(rng.standard_normal(s).astype(np.float32))
                  for n, s in shapes.items()}
        ref = {n: t.data.copy() for n, t in params.items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        state = AdamState(params)
        for t in range(1, 51):
            grads = {n: (rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3))
                     .astype(np.float32) for n, s in shapes.items()}
            grads["frozen"] = np.zeros(shapes["frozen"], dtype=np.float32)
            set_grads(params, {n: g for n, g in grads.items() if n != "frozen"})
            adam_step(state, lr=3e-3, weight_decay=0.01)
            per_tensor_adam(ref, grads, m, v, t, lr=3e-3, wd=0.01)
            assert not state.grads.any()  # zeroed for the next backward
        assert state.t == 50
        for n in shapes:
            assert params[n].data.dtype == np.float32
            assert np.array_equal(params[n].data, ref[n]), n
            assert np.array_equal(slot(state, state.m, n), m[n].reshape(-1)), n
            assert np.array_equal(slot(state, state.v, n), v[n].reshape(-1)), n

    def test_nan_in_last_tensor_names_it_and_mutates_nothing(self):
        rng = np.random.default_rng(2)
        params = {n: Tensor(rng.standard_normal(s).astype(np.float32))
                  for n, s in (("a", (3, 2)), ("b", (4,)), ("last", (2, 2)))}
        state = AdamState(params)
        ones = {n: np.ones(t.shape, dtype=np.float32) for n, t in params.items()}
        set_grads(params, ones)
        adam_step(state, lr=0.1, weight_decay=0.1)
        before = {n: t.data.copy() for n, t in params.items()}
        m, v = state.m.copy(), state.v.copy()
        set_grads(params, ones)
        params["last"].grad[1, 1] = np.nan
        with pytest.raises(NonFiniteGradient) as exc:
            adam_step(state, lr=0.1, weight_decay=0.1)
        assert exc.value.name == "last"
        for n, t in params.items():
            assert np.array_equal(t.data, before[n])
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.t == 1

    def test_views_share_the_flat_buffers_in_order(self):
        p = {"a": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)),
             "s": Tensor(np.float32(7.0)),
             "b": Tensor(np.full(4, 9.0, dtype=np.float32))}
        p["a"].grad = np.ones((2, 3), dtype=np.float32)  # dropped: grads start at zero
        state = AdamState(p)
        assert state.names == ["a", "s", "b"] and state.bounds == [0, 6, 7, 11]
        assert np.array_equal(state.params, [0, 1, 2, 3, 4, 5, 7, 9, 9, 9, 9])
        assert not state.grads.any()
        for name, t in p.items():
            assert t.data.shape == t.grad.shape
            assert t.data.base is state.params and t.grad.base is state.grads
        p["s"].grad[...] = 1.0
        p["b"].grad[3] = 2.0
        assert np.array_equal(state.grads, [0] * 6 + [1, 0, 0, 0, 2])
        adam_step(state, lr=0.1)
        np.testing.assert_allclose(state.m, [0] * 6 + [0.1, 0, 0, 0, 0.2], rtol=1e-6)
        assert p["s"].data == state.params[6] and p["s"].data < 7.0

    def test_mixed_dtypes_rejected(self):
        p = {"a": Tensor(np.ones(2, dtype=np.float32)),
             "b": Tensor(np.ones(2, dtype=np.float64))}
        with pytest.raises(ValueError, match="one dtype"):
            AdamState(p)

    def test_inf_gradient_rejected(self):
        p = {"a": Tensor(np.ones(1, dtype=np.float64))}
        state = AdamState(p)
        set_grads(p, {"a": [np.inf]})
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(state, lr=0.1)

    def test_negative_hyperparameters_rejected(self):
        p = {"a": Tensor(np.ones(1, dtype=np.float64))}
        state = AdamState(p)
        set_grads(p, {"a": np.ones(1)})
        with pytest.raises(ValueError):
            adam_step(state, lr=-0.1)
        with pytest.raises(ValueError):
            adam_step(state, lr=0.1, weight_decay=-1.0)
        assert state.t == 0

    def test_nan_hyperparameters_rejected(self):
        p = {"a": Tensor(np.ones(1, dtype=np.float64))}
        state = AdamState(p)
        set_grads(p, {"a": np.ones(1)})
        with pytest.raises(ValueError, match="learning rate"):
            adam_step(state, lr=math.nan)
        with pytest.raises(ValueError, match="weight decay"):
            adam_step(state, lr=0.1, weight_decay=math.nan)
        assert state.t == 0 and p["a"].data[0] == 1.0


class TestSchedule:
    def test_shape(self):
        s = LrSchedule(peak_lr=1.0, warmup_steps=10, total_steps=50)
        assert lr_at_step(s, 0) == 0.0
        assert lr_at_step(s, 10) == 1.0
        assert lr_at_step(s, 50) == 0.0
        assert math.isclose(lr_at_step(s, 5), 0.5)
        assert math.isclose(lr_at_step(s, 30), 0.5)

    def test_linear_on_both_sides(self):
        s = LrSchedule(peak_lr=2.0, warmup_steps=4, total_steps=12)
        ramp = [lr_at_step(s, k) for k in range(5)]
        np.testing.assert_allclose(np.diff(ramp), 0.5)
        decay = [lr_at_step(s, k) for k in range(4, 13)]
        np.testing.assert_allclose(np.diff(decay), -0.25)

    def test_peak_reached_exactly_once(self):
        s = LrSchedule(peak_lr=3.0, warmup_steps=7, total_steps=20)
        values = [lr_at_step(s, k) for k in range(21)]
        assert max(values) == 3.0
        assert values.count(3.0) == 1

    def test_step_range_enforced(self):
        s = LrSchedule(peak_lr=1.0, warmup_steps=2, total_steps=4)
        with pytest.raises(ValueError):
            lr_at_step(s, -1)
        with pytest.raises(ValueError):
            lr_at_step(s, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(peak_lr=-1.0, warmup_steps=1, total_steps=2)
        with pytest.raises(ValueError):
            LrSchedule(peak_lr=1.0, warmup_steps=0, total_steps=2)
        with pytest.raises(ValueError, match="exceed"):
            LrSchedule(peak_lr=1.0, warmup_steps=5, total_steps=5)
        with pytest.raises(ValueError, match="peak_lr"):
            LrSchedule(peak_lr=math.nan, warmup_steps=1, total_steps=2)
