"""Taped reverse-mode ops against hand values and finite differences."""

import math

import numpy as np
import pytest
from helpers import fd_gradient, grad_check, max_rel_error

from daptlab.autodiff import (IGNORE_INDEX, Tape, Tensor, add, add_const,
                              backward, cross_entropy_masked, dropout, erf,
                              gather_rows, gelu, layer_norm, matmul, mul,
                              reshape, scale, select_position, softmax,
                              transpose, tsum, zero_grads)


def t64(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape))  # float64 preserved


class TestTensor:
    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float16)).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_scalar_shape_kept(self):
        assert Tensor(np.float32(2.0)).shape == ()

    def test_zero_grad(self):
        t = Tensor([1.0])
        t.grad = np.ones(1, dtype=np.float32)
        t.zero_grad()
        assert t.grad is None


class TestErf:
    GRID = np.linspace(-6.0, 6.0, 240_001)

    def test_float32_against_math_erf(self):
        x = self.GRID.astype(np.float32)
        ref = np.array([math.erf(float(v)) for v in x], dtype=np.float32)
        got = erf(x)
        assert got.dtype == np.float32
        assert np.abs(got.astype(np.float64) - ref).max() <= 5e-7
        core = np.abs(x) < 1.0
        ulps = np.abs(np.abs(got[core]).view(np.int32).astype(np.int64)
                      - np.abs(ref[core]).view(np.int32))
        assert ulps.max() <= 4
        assert np.array_equal(erf(-x), -got)
        far = np.abs(x) >= 4.0
        assert far.any() and np.array_equal(got[far], np.sign(x[far]))

    def test_float64_against_math_erf(self):
        ref = np.array([math.erf(v) for v in self.GRID])
        got = erf(self.GRID)
        assert got.dtype == np.float64
        assert np.abs(got - ref).max() <= 1e-13

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_limits_and_nan(self, dtype):
        got = erf(np.array([np.inf, -np.inf, 30.0, np.nan, 0.0], dtype=dtype))
        assert np.array_equal(got[:3], [1.0, -1.0, 1.0])
        assert np.isnan(got[3]) and got[4] == 0.0

    def test_shapes_kept(self):
        assert erf(np.zeros((2, 0, 3))).shape == (2, 0, 3)
        assert erf(np.array(0.5)).shape == ()
        assert math.isclose(float(erf(np.array(0.5))), math.erf(0.5), abs_tol=1e-15)


class TestForwardValues:
    def test_matmul_hand_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                     Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_softmax_hand_example(self):
        out = softmax(Tensor(np.array([[0.0, math.log(2.0)]])))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-7)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_cross_entropy_uniform_is_log_vocab(self):
        v = 17
        logits = Tensor(np.zeros((5, v)))
        labels = np.arange(5) % v
        loss = cross_entropy_masked(logits, labels)
        assert loss.shape == ()
        assert math.isclose(float(loss.data), math.log(v), rel_tol=1e-6)

    def test_gelu_values(self):
        out = gelu(Tensor(np.array([0.0, 100.0, -100.0])))
        np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-6)

    def test_layer_norm_statistics(self):
        x = t64((4, 8), 0)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-6)

    def test_gather_rows_selects(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        ids = np.array([[3, 0], [1, 1]])
        out = gather_rows(table, ids)
        np.testing.assert_allclose(out.data, table.data[ids])

    def test_select_position(self):
        x = t64((2, 5, 3), 1)
        out = select_position(x, 4)
        np.testing.assert_allclose(out.data, x.data[:, 4, :])

    def test_dropout_zero_rate_is_identity(self):
        x = t64((3, 3), 2)
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_scales_kept_entries(self):
        x = Tensor(np.ones((1000,), dtype=np.float64))
        out = dropout(x, 0.25, np.random.default_rng(0))
        kept = out.data[out.data != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert 0.6 < kept.size / 1000 < 0.9


class TestGradients:
    def test_add_broadcast(self):
        a, b = t64((3, 4), 0), t64((4,), 1)
        grad_check([a, b], lambda tape: tsum(add(a, b, tape), tape))

    def test_add_const(self):
        a = t64((2, 3), 0)
        grad_check([a], lambda tape: tsum(add_const(a, 2.5, tape), tape))

    def test_mul_broadcast(self):
        a, b = t64((2, 3), 0), t64((1, 3), 1)
        grad_check([a, b], lambda tape: tsum(mul(a, b, tape), tape))

    def test_scale(self):
        a = t64((5,), 0)
        grad_check([a], lambda tape: tsum(scale(a, -0.7, tape), tape))

    def test_matmul_2d(self):
        a, b = t64((3, 4), 0), t64((4, 2), 1)
        grad_check([a, b], lambda tape: tsum(matmul(a, b, tape), tape))

    def test_matmul_batched_shared_weight(self):
        a, b = t64((2, 3, 4), 0), t64((4, 5), 1)
        grad_check([a, b], lambda tape: tsum(matmul(a, b, tape), tape))

    @pytest.mark.parametrize("prior", [False, True])
    def test_matmul_shared_weight_backward_matches_per_batch(self, prior):
        # [B, S, k] x [k, n]: each gradient against one np.matmul per batch
        # entry, also when ``a`` already holds a gradient from another path
        a, w, g = t64((3, 5, 4), 0), t64((4, 6), 1), t64((3, 5, 6), 2)
        earlier = t64((3, 5, 4), 3).data if prior else 0.0
        if prior:
            a.grad = earlier.copy()
        tape = Tape()
        backward(tape, tsum(mul(matmul(a, w, tape), g, tape), tape))
        want_a = np.stack([np.matmul(g.data[i], w.data.T) for i in range(3)])
        want_w = sum(np.matmul(a.data[i].T, g.data[i]) for i in range(3))
        assert np.allclose(a.grad, earlier + want_a, rtol=0.0, atol=1e-6)
        assert np.allclose(w.grad, want_w, rtol=0.0, atol=1e-6)

    def test_matmul_batched_both(self):
        a, b = t64((2, 3, 4), 0), t64((2, 4, 5), 1)
        grad_check([a, b], lambda tape: tsum(matmul(a, b, tape), tape))

    def test_transpose(self):
        a = t64((2, 3, 4), 0)
        weights = Tensor(np.random.default_rng(9).standard_normal((4, 3, 2)))

        def run(tape):
            return tsum(mul(transpose(a, (2, 1, 0), tape), weights, tape), tape)

        grad_check([a], run)

    def test_reshape(self):
        a = t64((2, 6), 0)
        weights = Tensor(np.random.default_rng(9).standard_normal((3, 4)))

        def run(tape):
            return tsum(mul(reshape(a, (3, 4), tape), weights, tape), tape)

        grad_check([a], run)

    def test_gather_rows_accumulates_repeats(self):
        table = t64((5, 3), 0)
        ids = np.array([[0, 2, 2], [4, 0, 0]])
        weights = Tensor(np.random.default_rng(9).standard_normal((2, 3, 3)))

        def run(tape):
            return tsum(mul(gather_rows(table, ids, tape), weights, tape), tape)

        grad_check([table], run)
        row0 = table.grad[0]
        np.testing.assert_allclose(
            row0, weights.data[0, 0] + weights.data[1, 1] + weights.data[1, 2])

    def test_select_position(self):
        a = t64((2, 4, 3), 0)
        grad_check([a], lambda tape: tsum(select_position(a, 1, tape), tape))

    def test_softmax_last_axis(self):
        a = t64((3, 5), 0)
        weights = Tensor(np.random.default_rng(9).standard_normal((3, 5)))

        def run(tape):
            return tsum(mul(softmax(a, -1, tape), weights, tape), tape)

        grad_check([a], run)

    def test_softmax_leading_axis(self):
        a = t64((4, 2), 0)
        weights = Tensor(np.random.default_rng(9).standard_normal((4, 2)))

        def run(tape):
            return tsum(mul(softmax(a, 0, tape), weights, tape), tape)

        grad_check([a], run)

    def test_layer_norm_all_inputs(self):
        a, gamma, beta = t64((3, 6), 0), t64((6,), 1), t64((6,), 2)
        weights = Tensor(np.random.default_rng(9).standard_normal((3, 6)))

        def run(tape):
            return tsum(mul(layer_norm(a, gamma, beta, tape=tape), weights, tape),
                        tape)

        grad_check([a, gamma, beta], run, tol=1e-5)

    def test_gelu(self):
        a = t64((4, 4), 0)
        grad_check([a], lambda tape: tsum(gelu(a, tape), tape))

    def test_dropout_fixed_mask(self):
        a = t64((6, 6), 0)

        def run(tape):
            return tsum(dropout(a, 0.4, np.random.default_rng(5), tape), tape)

        grad_check([a], run)

    def test_cross_entropy_with_ignored_rows(self):
        logits = t64((6, 7), 0)
        labels = np.array([1, IGNORE_INDEX, 3, 0, IGNORE_INDEX, 6])

        def run(tape):
            return cross_entropy_masked(logits, labels, tape)

        grad_check([logits], run)

    def test_composite_chain(self):
        x, w1, b1 = t64((4, 5), 0), t64((5, 6), 1), t64((6,), 2)
        gamma, beta = Tensor(np.ones(6)), Tensor(np.zeros(6))
        labels = np.array([0, 3, IGNORE_INDEX, 5])

        def run(tape):
            h = add(matmul(x, w1, tape), b1, tape)
            h = gelu(h, tape)
            h = layer_norm(h, gamma, beta, tape=tape)
            return cross_entropy_masked(h, labels, tape)

        grad_check([x, w1, b1, gamma, beta], run, tol=1e-5)

    def test_grads_accumulate_across_uses(self):
        a = t64((3,), 0)
        tape = Tape()
        out = tsum(add(a, a, tape), tape)
        backward(tape, out)
        np.testing.assert_allclose(a.grad, 2.0)


class TestPlumbing:
    def test_no_tape_records_nothing(self):
        tape = Tape()
        add(t64((2,), 0), t64((2,), 1))
        assert len(tape) == 0

    def test_backward_requires_scalar(self):
        tape = Tape()
        out = add(t64((2,), 0), t64((2,), 1), tape)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_unreached_output_is_skipped(self):
        # an op whose output never reaches the loss gets no gradient, and its
        # backward leaves its inputs untouched
        tape = Tape()
        x, w = t64((2, 3), 0), t64((3, 4), 1)
        matmul(x, w, tape)
        loss = tsum(add(x, x, tape), tape)
        backward(tape, loss)
        assert w.grad is None
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))

    def test_zero_grads(self):
        params = {"a": t64((2,), 0)}
        params["a"].grad = np.ones(2)
        zero_grads(params)
        assert params["a"].grad is None

    def test_fd_oracle_self_check(self):
        # the finite-difference helper itself, on an analytic function
        x = np.array([0.3, -1.2], dtype=np.float64)
        fd = fd_gradient(lambda: float(np.sin(x).sum()), x)
        assert max_rel_error(np.cos(x), fd) < 1e-8


class TestErrors:
    def test_matmul_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"3, 4"):
            matmul(t64((3, 4), 0), t64((3, 4), 1))

    def test_matmul_leading_mismatch(self):
        with pytest.raises(ValueError, match="leading"):
            matmul(t64((2, 3, 4), 0), t64((3, 4, 5), 1))

    def test_matmul_rank_too_low(self):
        with pytest.raises(ValueError, match="rank"):
            matmul(t64((4,), 0), t64((4, 2), 1))

    def test_gather_rows_id_out_of_range(self):
        with pytest.raises(ValueError):
            gather_rows(t64((3, 2), 0), np.array([0, 3]))

    def test_select_position_out_of_range(self):
        with pytest.raises(ValueError):
            select_position(t64((2, 3, 4), 0), 3)

    def test_layer_norm_bad_gamma_shape(self):
        with pytest.raises(ValueError):
            layer_norm(t64((2, 6), 0), Tensor(np.ones(5)), Tensor(np.zeros(6)))

    def test_dropout_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(t64((2,), 0), 1.0, np.random.default_rng(0))

    def test_cross_entropy_all_ignored(self):
        logits = t64((2, 3), 0)
        with pytest.raises(ValueError, match="ignored"):
            cross_entropy_masked(logits, np.array([IGNORE_INDEX, IGNORE_INDEX]))

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            cross_entropy_masked(t64((2, 3), 0), np.array([0, 3]))

    def test_cross_entropy_needs_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            cross_entropy_masked(t64((2, 3, 4), 0), np.array([0, 1]))
