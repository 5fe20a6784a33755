"""Taped reverse-mode ops against hand values and finite differences."""

import math
import weakref

import numpy as np
import pytest
from helpers import fd_gradient, grad_check, max_rel_error

from daptlab.autodiff import (_ERF32_P, _ERF32_Q, _GELU_BLOCK, Tape, Tensor, _lead_sum, _ones,
                              _row_sum, add, add_const, backward, cross_entropy_masked,
                              dropout, erf, gather_rows, gelu, layer_norm, matmul, mul,
                              reshape, scale, select_position, softmax, transpose, tsum)
from daptlab.model import (ATTENTION_MASK_BIAS, ModelConfig, forward, init_params,
                           mlm_logits)


def t64(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape))  # float64 preserved


def t32(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


def key_bias(lengths, seq, dtype):
    """[B, 1, 1, S] attention-mask bias: 0 on each row's keys, -1e9 past them."""
    mask = np.arange(seq) < np.asarray(lengths)[:, None]
    return ((1.0 - mask) * ATTENTION_MASK_BIAS).astype(dtype)[:, None, None, :]


class TestTensor:
    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float16)).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_scalar_shape_kept(self):
        assert Tensor(np.float32(2.0)).shape == ()


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
    def test_each_value_is_its_own(self, dtype):
        # a value's bits do not depend on its neighbours, alone or in its range
        x = np.array([0.1, 0.3, 1.0, 2.5, 5.0, -0.2, -3.0, -7.0], dtype=dtype)
        whole = erf(x)
        for i in range(x.size):
            assert np.array_equal(erf(x[i:i + 1]), whole[i:i + 1])
        assert np.array_equal(erf(x[:2]), whole[:2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_limits_and_nan(self, dtype):
        got = erf(np.array([np.inf, -np.inf, 30.0, np.nan, 0.0], dtype=dtype))
        assert np.array_equal(got[:3], [1.0, -1.0, 1.0])
        assert np.isnan(got[3]) and got[4] == 0.0

    def test_huge_float64_does_not_overflow(self):
        # only Cody's small range is squared
        with np.errstate(all="raise"):
            got = erf(np.array([1e200, -1e300, 0.1]))
        assert np.array_equal(got[:2], [1.0, -1.0])

    def test_shapes_kept(self):
        assert erf(np.zeros((2, 0, 3))).shape == (2, 0, 3)
        assert erf(np.array(0.5)).shape == ()
        assert math.isclose(float(erf(np.array(0.5))), math.erf(0.5), abs_tol=1e-15)


def inline_horner_erf32(x):
    """float32 erf with its two Horner loops written out: the bit reference
    that erf and gelu must keep."""
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = x2 * _ERF32_P[0]
    for c in _ERF32_P[1:-1]:
        p += c
        p *= x2
    p += _ERF32_P[-1]
    p *= x
    q = x2 * _ERF32_Q[0]
    for c in _ERF32_Q[1:-1]:
        q += c
        q *= x2
    q += _ERF32_Q[-1]
    p /= q
    return p


class TestErf32Bits:
    """float32 erf, and gelu's value and slope built on it, have the bits of
    the written-out Horner loops."""

    def test_erf_grid(self):
        x = TestErf.GRID.astype(np.float32)
        want = inline_horner_erf32(x)
        assert np.array_equal(erf(x).view(np.int32), want.view(np.int32))

    @pytest.mark.parametrize("scale", [0.03, 0.3, 1.0, 3.0, 10.0])
    def test_desk_shaped_erf_and_gelu(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        x = (rng.standard_normal((64, 18, 256)) * scale).astype(np.float32)
        assert np.array_equal(erf(x).view(np.int32), inline_horner_erf32(x).view(np.int32))
        ones = np.ones_like(x)
        want_out, want_slope = gelu_unblocked(x, ones, erf_fn=inline_horner_erf32)
        a = Tensor(x.copy())
        tape = Tape()
        out = gelu(a, tape)
        backward(tape, tsum(mul(out, Tensor(ones), tape), tape))
        assert np.array_equal(out.data.view(np.int32), want_out.view(np.int32))
        assert np.array_equal(a.grad.view(np.int32), want_slope.view(np.int32))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ids", [[0, 2, 3, 5], [5, 0, 3], [1], []],
                             ids=["increasing", "unsorted", "one", "empty"])
    def test_gather_rows_unique_ids_bits(self, dtype, ids):
        """Unique-id backward (indexed +=) has the bits of zeros + np.add.at."""
        ids = np.array(ids, dtype=np.int64)
        table = Tensor(np.ones((6, 3), dtype=dtype))
        adjoint = np.random.default_rng(4).standard_normal((len(ids), 3)).astype(dtype)
        adjoint.flat[::3] = -0.0
        adjoint.flat[1::5] = np.nan
        tape = Tape()
        out = gather_rows(table, ids, tape)
        backward(tape, tsum(mul(out, Tensor(adjoint), tape), tape))
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids, adjoint)
        assert table.grad.dtype == dtype
        assert table.grad.tobytes() == expected.tobytes()

    def test_gather_rows_unique_ids_add_to_a_held_gradient(self):
        """A table whose .grad is already held (a view into a training state's
        buffer) gets the bits of np.add.at into that same array."""
        rng = np.random.default_rng(5)
        ids = np.array([0, 2, 3, 5])
        table = Tensor(np.ones((6, 3), dtype=np.float32))
        held = rng.standard_normal((6, 3)).astype(np.float32)
        table.grad = held.copy()
        adjoint = rng.standard_normal((4, 3)).astype(np.float32)
        tape = Tape()
        out = gather_rows(table, ids, tape)
        grad = table.grad
        backward(tape, tsum(mul(out, Tensor(adjoint), tape), tape))
        np.add.at(held, ids, adjoint)
        assert table.grad is grad
        assert table.grad.tobytes() == held.tobytes()

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
            return tsum(mul(softmax(a, tape), weights, tape), tape)

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

    def test_cross_entropy(self):
        logits = t64((6, 7), 0)
        labels = np.array([1, 5, 3, 0, 3, 6])

        def run(tape):
            return cross_entropy_masked(logits, labels, tape)

        grad_check([logits], run)

    def test_composite_chain(self):
        x, w1, b1 = t64((4, 5), 0), t64((5, 6), 1), t64((6,), 2)
        gamma, beta = Tensor(np.ones(6)), Tensor(np.zeros(6))
        labels = np.array([0, 3, 1, 5])

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


class TestGatherRowsFromActivation:
    """gather_rows on a [B, S, H] activation reads its B·S rows, row b * S + p."""

    IDS = {"repeated": [4, 0, 4, 5, 2, 0], "unique": [0, 2, 3, 5]}

    @pytest.mark.parametrize("name", IDS)
    def test_values_are_the_flattened_rows(self, name):
        table, ids = t64((2, 3, 4), 0), np.array(self.IDS[name])
        out = gather_rows(table, ids)
        assert out.shape == (ids.size, 4)
        assert np.array_equal(out.data, table.data.reshape(-1, 4)[ids])

    @pytest.mark.parametrize("name", IDS)
    def test_gradient(self, name):
        table, ids = t64((2, 3, 4), 0), np.array(self.IDS[name])
        weights = t64((ids.size, 4), 1)
        grad_check([table], lambda tape: tsum(mul(gather_rows(table, ids, tape), weights,
                                                  tape), tape))
        assert table.grad.shape == (2, 3, 4)

    def test_out_of_range_names_every_row(self):
        with pytest.raises(ValueError, match="table of 6 rows"):
            gather_rows(t64((2, 3, 4), 0), np.array([0, 6]))

    def test_table_of_rank_one_rejected(self):
        with pytest.raises(ValueError, match="rank >= 2"):
            gather_rows(t64((6,), 0), np.array([0]))

    @pytest.mark.parametrize("name", IDS)
    def test_adds_into_a_held_non_contiguous_gradient(self, name):
        # a transposed .grad has no [B·S, H] view: the scatter still lands in it
        table, ids = t64((2, 3, 4), 0), np.array(self.IDS[name])
        held = np.random.default_rng(5).standard_normal((4, 3, 2)).transpose(2, 1, 0)
        assert not held.flags.c_contiguous
        expected = held.copy()
        adjoint = t64((ids.size, 4), 6)
        table.grad = held
        tape = Tape()
        backward(tape, tsum(mul(gather_rows(table, ids, tape), adjoint, tape), tape))
        np.add.at(expected.reshape(-1, 4), ids, adjoint.data)
        assert table.grad is held
        assert np.array_equal(held, expected)


# (batch, seq, hidden, heads, ffn): desk geometry at batch 64, and the CLI's
# configs/desk.ini geometry at batch 8
GEOMETRIES = {"desk": (64, 18, 64, 4, 256), "cli": (8, 18, 32, 4, 128)}


def taped_step(build, leaves, weights):
    """Output of ``build(tape)`` and each leaf's gradient of sum(out * weights)."""
    for t in [*leaves, weights]:
        t.grad = None
    tape = Tape()
    out = build(tape)
    backward(tape, tsum(mul(out, weights, tape), tape))
    return out.data, [t.grad for t in leaves]


def assert_same_bits(fused, unfused, leaves, weights):
    out_fused, grads_fused = taped_step(fused, leaves, weights)
    out_unfused, grads_unfused = taped_step(unfused, leaves, weights)
    assert np.array_equal(out_fused, out_unfused)
    for got, want in zip(grads_fused, grads_unfused):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return out_fused, grads_fused


class TestFusedEpilogues:
    """Each fused operand against the op sequence it replaces: the same bits
    forward and in every input gradient, and finite differences."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_matmul_bias_bits(self, geometry):
        batch, seq, h, _, ffn = GEOMETRIES[geometry]
        # q/k/v/o, FFN in, FFN out, and the decoder on labelled rows [n, H]
        for lead, k, n in (((batch, seq), h, h), ((batch, seq), h, ffn),
                           ((batch, seq), ffn, h), ((batch * 2,), h, 500)):
            x, w, bias = t32((*lead, k), 0), t32((k, n), 1), t32((n,), 2)
            assert_same_bits(lambda tape: matmul(x, w, tape, bias=bias),
                             lambda tape: add(matmul(x, w, tape), bias, tape),
                             [x, w, bias], t32((*lead, n), 3))

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_softmax_scale_and_mask_bits(self, geometry):
        batch, seq, h, heads, _ = GEOMETRIES[geometry]
        scores = t32((batch, heads, seq, seq), 0)
        lengths = np.random.default_rng(1).integers(1, seq + 1, batch)
        lengths[0] = seq // 2
        mask_bias = key_bias(lengths, seq, np.float32)
        c = 1.0 / np.sqrt(h // heads)
        probs, (grad,) = assert_same_bits(
            lambda tape: softmax(scores, tape, scale=c, bias=mask_bias),
            lambda tape: softmax(add_const(scale(scores, c, tape), mask_bias, tape), tape),
            [scores], t32(scores.shape, 2))
        padded = np.broadcast_to(mask_bias != 0, scores.shape)
        assert padded.any()
        assert not probs[padded].any() and not grad[padded].any()
        assert grad[~padded].any()

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_layer_norm_residual_bits(self, geometry):
        batch, seq, h, _, _ = GEOMETRIES[geometry]
        x, sub = t32((batch, seq, h), 0), t32((batch, seq, h), 1)
        gamma, beta = t32((h,), 2), t32((h,), 3)
        assert_same_bits(
            lambda tape: layer_norm(sub, gamma, beta, tape=tape, residual=x),
            lambda tape: layer_norm(add(x, sub, tape), gamma, beta, tape=tape),
            [x, sub, gamma, beta], t32((batch, seq, h), 4))

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_matmul_bias_gradients(self, lead):
        x, w, bias = t64((*lead, 4), 0), t64((4, 5), 1), t64((5,), 2)
        weights = t64((*lead, 5), 3)
        grad_check([x, w, bias], lambda tape: tsum(
            mul(matmul(x, w, tape, bias=bias), weights, tape), tape))

    def test_softmax_scale_and_mask_gradients(self):
        scores = t64((2, 2, 3, 3), 0)
        mask_bias = key_bias([3, 2], 3, np.float64)
        weights = t64((2, 2, 3, 3), 1)
        grad_check([scores], lambda tape: tsum(mul(
            softmax(scores, tape, scale=0.35, bias=mask_bias), weights, tape), tape))
        assert not scores.grad[1, :, :, 2].any()

    def test_layer_norm_residual_gradients(self):
        a, r = t64((2, 3, 6), 0), t64((2, 3, 6), 1)
        gamma, beta = t64((6,), 2), t64((6,), 3)
        weights = t64((2, 3, 6), 4)
        grad_check([a, r, gamma, beta], lambda tape: tsum(mul(
            layer_norm(a, gamma, beta, tape=tape, residual=r), weights, tape), tape),
            tol=1e-5)
        assert np.array_equal(a.grad, r.grad)

    @pytest.mark.parametrize("a_shape, r_shape", [((2, 3, 4), (1, 4)), ((1, 4), (2, 3, 4))],
                             ids=["residual-row", "input-row"])
    def test_layer_norm_broadcast_residual_gradients(self, a_shape, r_shape):
        # the embedding's segment row is such a residual: each operand's
        # gradient is summed down to that operand's own shape
        a, r = t64(a_shape, 0), t64(r_shape, 1)
        gamma, beta = t64((4,), 2), t64((4,), 3)
        weights = t64((2, 3, 4), 4)
        grad_check([a, r, gamma, beta], lambda tape: tsum(mul(
            layer_norm(a, gamma, beta, tape=tape, residual=r), weights, tape), tape),
            tol=1e-5)
        assert a.grad.shape == a_shape and r.grad.shape == r_shape

    def test_matmul_bias_needs_2d_weight_and_vector(self):
        with pytest.raises(ValueError, match="bias"):
            matmul(t64((2, 3, 4), 0), t64((2, 4, 5), 1), bias=t64((5,), 2))
        with pytest.raises(ValueError, match="bias"):
            matmul(t64((3, 4), 0), t64((4, 5), 1), bias=t64((1, 5), 2))


def assert_same_bits_written_over(op, a, leaves, weights):
    """``op(a, tape, out=)`` written over its input's own buffer has the
    bits of a fresh output, taped (value and every gradient) and untaped. A
    taped copy of ``a`` stands in for the sublayer output the op consumes."""
    def over(tape):
        copy = transpose(a, tuple(range(a.data.ndim)), tape)
        got = op(copy, tape, out=copy.data)
        assert got.data is copy.data
        return got

    assert_same_bits(lambda tape: op(a, tape), over, [a, *leaves], weights)
    assert np.array_equal(over(None).data, op(a, None).data)


class TestOutWrittenOverInput:
    """gelu, layer_norm, softmax and dropout take out= and may write over their
    input."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_softmax_scale_and_mask(self, geometry):
        batch, seq, h, heads, _ = GEOMETRIES[geometry]
        scores = t32((batch, heads, seq, seq), 0)
        mask_bias = key_bias(np.random.default_rng(1).integers(1, seq + 1, batch), seq,
                             np.float32)
        c = 1.0 / np.sqrt(h // heads)
        assert_same_bits_written_over(
            lambda a, tape, out=None: softmax(a, tape, scale=c, bias=mask_bias, out=out),
            scores, [], t32(scores.shape, 2))

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("residual", [None, "same", "row"])
    def test_layer_norm(self, geometry, residual):
        batch, seq, h, _, _ = GEOMETRIES[geometry]
        sub, gamma, beta = t32((batch, seq, h), 0), t32((h,), 2), t32((h,), 3)
        r = {None: None, "same": t32((batch, seq, h), 1), "row": t32((1, h), 1)}[residual]
        assert_same_bits_written_over(
            lambda a, tape, out=None: layer_norm(a, gamma, beta, tape=tape, residual=r,
                                                 out=out),
            sub, [gamma, beta] + ([] if r is None else [r]), t32((batch, seq, h), 4))

    def test_desk_shaped_gelu_value_and_slope(self):
        batch, seq, _, _, ffn = GEOMETRIES["desk"]
        x = Tensor((np.random.default_rng(5).standard_normal((batch, seq, ffn)) * 3.0)
                   .astype(np.float32))
        # unit weights: the input's gradient is the slope itself
        assert_same_bits_written_over(gelu, x, [], Tensor(np.ones(x.shape, np.float32)))

    def test_desk_shaped_dropout(self):
        batch, seq, h, _, _ = GEOMETRIES["desk"]
        # a fresh rng of one seed per call: every call drops the same entries
        assert_same_bits_written_over(
            lambda a, tape, out=None: dropout(a, 0.1, np.random.default_rng(7), tape,
                                              out=out),
            t32((batch, seq, h), 0), [], t32((batch, seq, h), 1))

    @pytest.mark.parametrize("bad", ["shape", "dtype", "strided", "read-only", "list"])
    def test_out_of_another_kind_raises(self, bad):
        x, gamma, beta = t32((3, 4, 8), 0), t32((8,), 1), t32((8,), 2)
        out = {"shape": np.empty((3, 4, 9), np.float32),
               "dtype": np.empty((3, 4, 8), np.float64),
               "strided": np.empty((3, 4, 16), np.float32)[..., ::2],
               "read-only": np.frombuffer(bytes(4 * 96), np.float32).reshape(3, 4, 8),
               "list": np.zeros((3, 4, 8), np.float32).tolist()}[bad]
        for op in (lambda tape: gelu(x, tape, out=out),
                   lambda tape: layer_norm(x, gamma, beta, tape=tape, out=out),
                   lambda tape: softmax(x, tape, scale=0.5, out=out),
                   lambda tape: dropout(x, 0.1, np.random.default_rng(0), tape, out=out)):
            for tape in (None, Tape()):
                with pytest.raises(ValueError, match="out must be"):
                    op(tape)


def split_heads(x, heads, axes, tape):
    """[B, S, heads·d] to per-head layout by the reshape and transpose copy
    that matmul(heads=) does without."""
    batch, seq, width = x.shape
    return transpose(reshape(x, (batch, seq, heads, width // heads), tape), axes, tape)


class TestMatmulHeads:
    """matmul(heads=) reads a [B, S, heads·d] activation per head through a
    view: the bits of the reshape/transpose/matmul composition it replaces,
    forward and in every gradient."""

    # the GEOMETRIES, plus one-token sequences (vector-matrix products)
    SHAPES = {**GEOMETRIES, "one-token": (3, 1, 16, 2, 0)}

    @pytest.mark.parametrize("geometry", sorted(SHAPES))
    def test_scores_bits(self, geometry):
        batch, seq, h, heads, _ = self.SHAPES[geometry]
        q, k = t32((batch, seq, h), 0), t32((batch, seq, h), 1)

        def kt(tape):
            return split_heads(k, heads, (0, 2, 3, 1), tape)

        assert_same_bits(
            lambda tape: matmul(q, kt(tape), tape, heads=heads),
            lambda tape: matmul(split_heads(q, heads, (0, 2, 1, 3), tape), kt(tape), tape),
            [q, k], t32((batch, heads, seq, seq), 2))

    @pytest.mark.parametrize("geometry", sorted(SHAPES))
    def test_context_bits(self, geometry):
        batch, seq, h, heads, _ = self.SHAPES[geometry]
        probs, v = t32((batch, heads, seq, seq), 0), t32((batch, seq, h), 1)

        def merged(tape):
            ctx = matmul(probs, split_heads(v, heads, (0, 2, 1, 3), tape), tape)
            return reshape(transpose(ctx, (0, 2, 1, 3), tape), (batch, seq, h), tape)

        out, _ = assert_same_bits(lambda tape: matmul(probs, v, tape, heads=heads), merged,
                                  [probs, v], t32((batch, seq, h), 2))
        assert out.shape == (batch, seq, h) and out.flags.c_contiguous

    @pytest.mark.parametrize("form", ["scores", "context"])
    def test_gradients(self, form):
        if form == "scores":  # [B, S, heads·d] x [B, heads, d, n]
            a, b, out_shape = t64((2, 3, 6), 0), t64((2, 2, 3, 4), 1), (2, 2, 3, 4)
        else:  # [B, heads, m, S] x [B, S, heads·d]
            a, b, out_shape = t64((2, 2, 3, 4), 0), t64((2, 4, 6), 1), (2, 3, 6)
        weights = t64(out_shape, 2)
        grad_check([a, b], lambda tape: tsum(
            mul(matmul(a, b, tape, heads=2), weights, tape), tape))

    @pytest.mark.parametrize("form", ["scores", "context"])
    def test_activation_gradient_is_fresh(self, form):
        x = t32((2, 3, 8), 0)
        other = t32((2, 4, 2, 5) if form == "scores" else (2, 4, 5, 3), 1)
        a, b = (x, other) if form == "scores" else (other, x)
        tape = Tape()
        out = matmul(a, b, tape, heads=4)
        backward(tape, tsum(mul(out, t32(out.shape, 2), tape), tape))
        assert x.grad.shape == x.shape and x.grad.dtype == x.dtype
        assert x.grad.flags.c_contiguous and x.grad.base is None
        assert_grads_owned([x, other])

    @pytest.mark.parametrize("a_shape, b_shape, match", [
        ((2, 3, 6), (2, 4, 1, 3), "not divisible"),    # width 6 over 4 heads
        ((2, 3, 8), (3, 4, 2, 3), "extents differ"),   # batch
        ((2, 3, 8), (2, 2, 2, 3), "extents differ"),   # heads
        ((2, 3, 8), (2, 4, 3, 3), "extents differ"),   # per-head width
        ((2, 4, 3, 5), (2, 3, 8), "extents differ"),   # length
        ((2, 4, 3, 2), (2, 4, 2, 3), "rank-3"),        # no activation
        ((2, 3, 8), (2, 8, 3), "rank-3"),              # two activations
    ])
    def test_shapes_rejected(self, a_shape, b_shape, match):
        with pytest.raises(ValueError, match=match):
            matmul(t32(a_shape, 0), t32(b_shape, 1), heads=4)

    def test_bias_rejected(self):
        with pytest.raises(ValueError, match="bias"):
            matmul(t32((2, 3, 8), 0), t32((2, 4, 2, 3), 1), heads=4, bias=t32((3,), 2))


def assert_grads_owned(tensors):
    """Every ``.grad`` is a writable array of its tensor's shape and dtype, and
    no two tensors' gradients share memory (gradients are adopted, not copied)."""
    held = [t for t in tensors if t.grad is not None]
    assert held
    for t in held:
        assert isinstance(t.grad, np.ndarray) and t.grad.flags.writeable
        assert t.grad.shape == t.shape and t.grad.dtype == t.dtype
    for i, t in enumerate(held):
        for other in held[i + 1:]:
            assert not np.shares_memory(t.grad, other.grad)


class TestAdjointRelease:
    """Each op frees its output's adjoint once its backward has run."""

    def test_only_leaves_keep_grads(self):
        x, w, bias = t64((4, 5), 0), t64((5, 6), 1), t64((6,), 2)
        gamma, beta = t64((6,), 3), t64((6,), 4)
        tape = Tape()
        h = matmul(x, w, tape, bias=bias)
        g = gelu(h, tape)
        n = layer_norm(g, gamma, beta, tape=tape, residual=h)
        loss = cross_entropy_masked(n, np.array([0, 3, 1, 5]), tape)
        backward(tape, loss)
        assert all(t.grad is None for t in (h, g, n, loss))
        assert all(t.grad is not None for t in (x, w, bias, gamma, beta))

    def test_input_shared_by_projections_and_residual(self):
        # an intermediate x feeds q, k, v and the residual of the layer norm
        # after attention: its producer must see the sum of all four paths
        x0, wq, wk, wv = t64((2, 3, 4), 0), t64((4, 4), 1), t64((4, 4), 2), t64((4, 4), 3)
        bq, bk, bv = t64((4,), 4), t64((4,), 5), t64((4,), 6)
        ones, zeros = Tensor(np.ones(4)), Tensor(np.zeros(4))
        weights = t64((2, 3, 4), 7)
        mask_bias = key_bias([3, 2], 3, np.float64)

        def run(tape):
            x = layer_norm(x0, ones, zeros, tape=tape)
            q = matmul(x, wq, tape, bias=bq)
            kt = transpose(matmul(x, wk, tape, bias=bk), (0, 2, 1), tape)
            probs = softmax(matmul(q, kt, tape), tape, scale=0.5, bias=mask_bias[:, 0])
            attn = matmul(probs, matmul(x, wv, tape, bias=bv), tape)
            out = layer_norm(attn, ones, zeros, tape=tape, residual=x)
            return tsum(mul(out, weights, tape), tape)

        # bk shifts every key's score of a row equally, so softmax cancels its
        # gradient to round-off that finite differences cannot resolve
        grad_check([x0, wq, wk, wv, bq, bv], run, tol=1e-5)

    def test_residual_of_itself(self):
        x0, gamma, beta = t64((3, 6), 0), t64((6,), 1), t64((6,), 2)
        weights = t64((3, 6), 3)

        def run(tape):
            x = gelu(x0, tape)
            return tsum(mul(layer_norm(x, gamma, beta, tape=tape, residual=x),
                            weights, tape), tape)

        grad_check([x0, gamma, beta], run, tol=1e-5)
        fused = x0.grad
        x0.grad = None
        tape = Tape()
        x = gelu(x0, tape)
        backward(tape, tsum(mul(layer_norm(add(x, x, tape), gamma, beta, tape=tape),
                                weights, tape), tape))
        assert np.array_equal(fused, x0.grad)

    # Gradients are adopted, not copied: each leaf's .grad is a buffer of its
    # own, however its adjoint arrived.

    def owned_after_backward(self, build, leaves):
        tape = Tape()
        backward(tape, build(tape))
        assert_grads_owned(leaves)

    def test_owned_add_of_itself(self):
        x = t32((3, 4), 0)
        self.owned_after_backward(lambda tape: tsum(add(x, x, tape), tape), [x])

    def test_owned_add_of_equal_shapes(self):
        x, y = t32((3, 4), 0), t32((3, 4), 1)
        self.owned_after_backward(lambda tape: tsum(add(x, y, tape), tape), [x, y])

    def test_owned_layer_norm_residual(self):
        a, r, gamma, beta = t32((3, 6), 0), t32((3, 6), 1), t32((6,), 2), t32((6,), 3)
        weights = t32((3, 6), 4)
        self.owned_after_backward(
            lambda tape: tsum(mul(layer_norm(a, gamma, beta, tape=tape, residual=r),
                                  weights, tape), tape),
            [a, r, gamma, beta, weights])

    def test_owned_tsum(self):
        x = t32((2, 5), 0)
        self.owned_after_backward(lambda tape: tsum(x, tape), [x])

    def test_owned_transpose_into_matmul(self):
        # the tied decoder: the table's gradient is a transposed view, then
        # the embedding lookup adds into it
        table, h = t32((7, 4), 0), t32((3, 4), 1)

        def build(tape):
            rows = gather_rows(table, np.array([0, 2, 2, 5]), tape)
            logits = matmul(h, transpose(table, (1, 0), tape), tape)
            return add(tsum(rows, tape), tsum(logits, tape), tape)

        self.owned_after_backward(build, [table, h])

    def test_owned_mlm_step_at_cli_geometry(self):
        # configs/desk.ini's model, with dropout on so its closures run too
        batch, seq, hidden, heads, ffn = GEOMETRIES["cli"]
        config = ModelConfig(num_layers=4, hidden=hidden, num_heads=heads, ffn_dim=ffn,
                             vocab_size=450, max_seq=32)
        params = init_params(config, 0)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, config.vocab_size, size=(batch, seq))
        mask = (np.arange(seq) < rng.integers(4, seq + 1, size=batch)[:, None]).astype(np.int64)
        keep = np.flatnonzero(rng.random((batch, seq)) < 0.15)

        def build(tape):
            hidden = forward(ids, mask, config, params, tape=tape, rng=rng)
            logits = mlm_logits(hidden[-1], params, tape)
            return cross_entropy_masked(gather_rows(logits, keep, tape),
                                        ids.reshape(-1)[keep], tape)

        self.owned_after_backward(build, list(params.values()))

    def test_pruned_mlm_step_frees_intermediates_and_owns_grads(self, monkeypatch):
        # the step train() takes: the last layer past attention on labelled rows
        batch, seq, hidden, heads, ffn = GEOMETRIES["cli"]
        config = ModelConfig(num_layers=4, hidden=hidden, num_heads=heads, ffn_dim=ffn,
                             vocab_size=450, max_seq=32)
        params = init_params(config, 0)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, config.vocab_size, size=(batch, seq))
        mask = (np.arange(seq) < rng.integers(4, seq + 1, size=batch)[:, None]).astype(np.int64)
        keep = np.flatnonzero((rng.random((batch, seq)) < 0.15) & (mask == 1))
        created = []
        real_init = Tensor.__init__

        def recording_init(self, data):
            real_init(self, data)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        tape = Tape()
        last = forward(ids, mask, config, params, tape=tape, rng=rng, rows=keep)[-1]
        loss = cross_entropy_masked(mlm_logits(last, params, tape), ids.reshape(-1)[keep],
                                    tape)
        backward(tape, loss)
        monkeypatch.undo()
        assert last.shape == (keep.size, hidden)
        assert len(created) == len(tape)
        assert all(t.grad is None for t in created)
        assert_grads_owned(list(params.values()))


def gelu_unblocked(x, g, erf_fn=erf):
    """GELU's forward and input gradient by the plain whole-array formula."""
    cdf = erf_fn(x / math.sqrt(2.0))
    cdf += 1.0
    cdf *= 0.5
    pdf = np.exp(-0.5 * x * x) / x.dtype.type(math.sqrt(2.0 * math.pi))
    return x * cdf, g * (cdf + x * pdf)


class TestGeluBlocks:
    """gelu runs in flat blocks of _GELU_BLOCK elements, with the bits of the
    unblocked formula at every block edge."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, _GELU_BLOCK - 1, _GELU_BLOCK, _GELU_BLOCK + 1,
                                      2 * _GELU_BLOCK + 3])
    def test_bits_match_the_unblocked_formula(self, size, dtype):
        rng = np.random.default_rng(size)
        # spread over erf's clamp and float64's Cody and libm ranges
        x = (rng.standard_normal(size) * 3.0).astype(dtype)
        g = rng.standard_normal(size).astype(dtype)
        want_out, want_grad = gelu_unblocked(x, g)

        plain = gelu(Tensor(x))
        a, weights = Tensor(x.copy()), Tensor(g)
        tape = Tape()
        taped = gelu(a, tape)
        backward(tape, tsum(mul(taped, weights, tape), tape))
        for got, want in [(plain.data, want_out), (taped.data, want_out),
                          (a.grad, want_grad)]:
            assert got.dtype == dtype and np.array_equal(got, want)


class TestTapeBuffers:
    """Tape(spare) hands request i a view of the spare's buffer i when that
    has the dtype and room enough, and a fresh array otherwise."""

    def test_equal_or_smaller_request_gets_the_spare_buffer(self):
        spare = Tape()
        a = spare.empty((4, 5), np.float32)
        b = spare.empty((6,), np.float64)
        tape = Tape(spare)
        x = tape.empty((4, 5), np.float32)
        y = tape.empty((2, 2), np.float64)
        assert x.shape == (4, 5) and x.dtype == np.float32 and x.flags.c_contiguous
        assert y.shape == (2, 2) and y.dtype == np.float64 and y.flags.c_contiguous
        assert x.ctypes.data == a.ctypes.data and y.ctypes.data == b.ctypes.data

    def test_larger_or_other_dtype_request_is_fresh(self):
        spare = Tape()
        a = spare.empty((4,), np.float32)
        b = spare.empty((4,), np.float32)
        tape = Tape(spare)
        got = [tape.empty((5,), np.float32), tape.empty((4,), np.float64),
               tape.empty((1,), np.float32)]  # the spare has no third buffer
        assert not any(np.shares_memory(x, old) for x in got for old in (a, b))

    def test_no_buffer_fills_two_slots(self):
        spare = Tape()
        for n in (8, 3, 8):
            spare.empty((n,), np.float32)
        tape = Tape(spare)
        got = [tape.empty(shape, np.float32) for shape in ((2, 4), (3,), (9,), (1,), (4,))]
        # the spare's buffers went to the first tape that took it over
        got += [Tape(spare).empty((3,), np.float32)]
        for i, x in enumerate(got):
            assert not any(np.shares_memory(x, y) for y in got[i + 1:])

    def test_outgrown_spare_is_dropped_before_its_replacement(self, monkeypatch):
        spare = Tape()
        outgrown = weakref.ref(spare.empty((8,), np.float32).base)
        tape = Tape(spare)
        del spare
        alive = []
        real_empty = np.empty

        def watching_empty(*args, **kwargs):
            alive.append(outgrown() is not None)
            return real_empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", watching_empty)
        tape.empty((16,), np.float32)
        monkeypatch.undo()
        assert alive == [False]


def reuse_cases():
    """Each op that draws from its tape, as build(tape) on float32 leaves of a
    leading extent n: name -> (seed, n) -> (leaves, build)."""

    def gen(seed, *shape):
        return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))

    seq, h = 5, 6

    def matmul_bias(seed, n):
        x, w, b = gen(seed, n, seq, h), gen(seed + 1, h, 7), gen(seed + 2, 7)
        return [x, w, b], lambda tape: matmul(x, w, tape, bias=b)

    def matmul_batched(seed, n):
        q, k = gen(seed, n, 2, seq, 3), gen(seed + 1, n, 2, 3, seq)
        return [q, k], lambda tape: matmul(q, k, tape)

    def add_segment_row(seed, n):
        x, row = gen(seed, n, seq, h), gen(seed + 1, 1, h)
        return [x, row], lambda tape: add(x, row, tape)

    def transpose_heads(seed, n):
        x = gen(seed, n, seq, 2, 3)
        return [x], lambda tape: transpose(x, (0, 2, 1, 3), tape)

    def gather_rows_2d(seed, n):
        table = gen(seed, 11, h)
        ids = np.random.default_rng(seed + 1).integers(0, 11, size=(n, seq))
        return [table], lambda tape: gather_rows(table, ids, tape)

    def softmax_masked(seed, n):
        scores = gen(seed, n, 2, seq, seq)
        bias = key_bias(np.arange(n) % seq + 1, seq, np.float32)
        return [scores], lambda tape: softmax(scores, tape, scale=0.4, bias=bias)

    def layer_norm_residual(seed, n):
        a, r, gamma, beta = gen(seed, n, seq, h), gen(seed + 1, n, seq, h), \
            gen(seed + 2, h), gen(seed + 3, h)
        return [a, r, gamma, beta], lambda tape: layer_norm(a, gamma, beta, tape=tape,
                                                            residual=r)

    def gelu_ffn(seed, n):
        x = gen(seed, n, seq, 4 * h)
        return [x], lambda tape: gelu(x, tape)

    def dropout_fixed(seed, n):
        x = gen(seed, n, seq, h)
        return [x], lambda tape: dropout(x, 0.3, np.random.default_rng(seed), tape)

    def cross_entropy(seed, n):
        logits = gen(seed, n * seq, 9)
        labels = np.random.default_rng(seed + 1).integers(0, 9, size=n * seq)
        return [logits], lambda tape: cross_entropy_masked(logits, labels, tape)

    return {fn.__name__: fn for fn in (
        matmul_bias, matmul_batched, add_segment_row, transpose_heads, gather_rows_2d,
        softmax_masked, layer_norm_residual, gelu_ffn, dropout_fixed, cross_entropy)}


REUSE_CASES = reuse_cases()


def step_bits(leaves, build, tape):
    """Output and leaf gradients of one step on ``tape``: the output itself
    when it is a scalar loss, else sum(out * fixed weights)."""
    for t in leaves:
        t.grad = None
    out = build(tape)
    loss = out
    if out.shape != ():
        weights = np.random.default_rng(99).standard_normal(out.shape)
        loss = tsum(mul(out, Tensor(weights.astype(np.float32)), tape), tape)
    backward(tape, loss)
    return out.data.copy(), [t.grad.copy() for t in leaves]


class TestTapeReuseBits:
    """An op on reused buffers, filled with another step's values, gives the
    bits of the same op untaped and on a fresh tape."""

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_reused_buffers_keep_every_bit(self, case):
        spare = Tape()  # a larger step with other values leaves its buffers
        step_bits(*REUSE_CASES[case](1, 4), spare)
        taken = list(spare._buffers)
        assert taken
        leaves, build = REUSE_CASES[case](0, 3)
        untaped = build(None).data.copy()
        want_out, want_grads = step_bits(leaves, build, Tape())
        tape = Tape(spare)
        got_out, got_grads = step_bits(leaves, build, tape)
        assert any(buf is old for buf in tape._buffers for old in taken)
        assert np.array_equal(want_out, untaped)
        assert got_out.dtype == untaped.dtype and np.array_equal(got_out, untaped)
        for got, want in zip(got_grads, want_grads):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def ones_row_sum(x):
    """Sums over the last axis, keepdims, spelled as autodiff spells them: one
    product of the rows, flattened to 2-D, with a ones vector."""
    h = x.shape[-1]
    return (x.reshape(-1, h) @ np.ones(h, x.dtype)).reshape(x.shape[:-1] + (1,))


def ones_lead_sum(x):
    """Sums over every axis but the last, as a ones vector times the rows."""
    rows = x.reshape(-1, x.shape[-1])
    return np.ones(rows.shape[0], x.dtype) @ rows


def plain_softmax(x, g, scale, bias):
    """softmax(x * scale + bias) and its input gradient, one new array a step."""
    z = x * x.dtype.type(scale) + bias
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / ones_row_sum(e)
    ga = p * (g - ones_row_sum(g * p))
    ga *= x.dtype.type(scale)
    return p, ga


def plain_layer_norm(x, gamma, beta, g):
    """layer_norm(x) and its x, gamma and beta gradients, one new array a step."""
    h = x.shape[-1]
    mu = ones_row_sum(x)
    mu /= h
    centered = x - mu
    var = ones_row_sum(centered * centered)
    var /= h
    inv = 1.0 / np.sqrt(var + x.dtype.type(1e-12))
    xhat = centered * inv
    gx = g * gamma
    term = (gx - ones_row_sum(gx) / h - xhat * (ones_row_sum(gx * xhat) / h))
    return xhat * gamma + beta, inv * term, ones_lead_sum(g * xhat), ones_lead_sum(g)


def plain_cross_entropy(logits, labels):
    """Mean cross-entropy over every row and its logits gradient."""
    rows, n = np.arange(labels.size), labels.size
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(ones_row_sum(np.exp(shifted)))
    loss = -logp[rows, labels].sum() / logits.dtype.type(n)
    g = np.ones((), dtype=logits.dtype)
    gl = np.exp(logp) * (g / n)
    gl[rows, labels] -= g / logits.dtype.type(n)
    return loss, gl


class TestInPlaceBackwardBits:
    """softmax, layer_norm and cross_entropy_masked form their results in
    their own or their adjoint's buffers: the bits of the plain formulas."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax(self, dtype):
        batch, seq, h, heads, _ = GEOMETRIES["cli"]
        scores = Tensor(t64((batch, heads, seq, seq), 0).data.astype(dtype))
        mask_bias = key_bias(np.arange(batch) % seq + 1, seq, dtype)
        g = t64(scores.shape, 1).data.astype(dtype)
        tape = Tape()
        out = softmax(scores, tape, scale=0.35, bias=mask_bias)
        backward(tape, tsum(mul(out, Tensor(g), tape), tape))
        want_p, want_grad = plain_softmax(scores.data, g, 0.35, mask_bias)
        assert np.array_equal(out.data, want_p) and np.array_equal(scores.grad, want_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, dtype):
        x, gamma, beta, g = (Tensor(t64(shape, seed).data.astype(dtype)) for seed, shape
                             in enumerate([(8, 18, 32), (32,), (32,), (8, 18, 32)]))
        tape = Tape()
        out = layer_norm(x, gamma, beta, tape=tape)
        backward(tape, tsum(mul(out, g, tape), tape))
        want = plain_layer_norm(x.data, gamma.data, beta.data, g.data)
        for got, expect in zip((out.data, x.grad, gamma.grad, beta.grad), want):
            assert got.dtype == dtype and np.array_equal(got, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        logits = Tensor(t64((40, 23), 0).data.astype(dtype))
        labels = np.random.default_rng(1).integers(0, 23, size=40)
        tape = Tape()
        loss = cross_entropy_masked(logits, labels, tape)
        backward(tape, loss)
        want_loss, want_grad = plain_cross_entropy(logits.data, labels)
        assert loss.data == want_loss and np.array_equal(logits.grad, want_grad)


def sum_shapes(geometry):
    """The shapes the model sums over: activations, FFN and attention scores."""
    batch, seq, h, heads, ffn = GEOMETRIES[geometry]
    return [(batch, seq, h), (batch, seq, ffn), (batch, heads, seq, seq)]


def assert_sum_close(got, x, axis, want_shape):
    """got is x summed over axis, to within h * eps of the sum of |x| (the
    bound of any summation order), in x's dtype and want_shape."""
    want = x.sum(axis=axis).reshape(want_shape)
    bound = x.shape[axis] if isinstance(axis, int) else math.prod(x.shape[i] for i in axis)
    bound *= np.finfo(x.dtype).eps * np.abs(x).sum(axis=axis).reshape(want_shape)
    assert got.dtype == x.dtype and got.shape == want_shape
    assert np.all(np.abs(got - want) <= bound)


class TestBlasSums:
    """_row_sum and _lead_sum, the ones-vector products every axis sum of an
    op goes through, against numpy's sums."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_match_numpy(self, geometry, dtype):
        for seed, shape in enumerate(sum_shapes(geometry)):
            x = t64(shape, seed).data.astype(dtype)
            assert_sum_close(_row_sum(x), x, -1, shape[:-1] + (1,))
            assert_sum_close(_lead_sum(x, x.ndim - 1), x, tuple(range(x.ndim - 1)),
                             shape[-1:])
            assert_sum_close(_lead_sum(x, 1), x, 0, shape[1:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_adjoint(self, dtype):
        # the adjoint transpose's backward hands on: a view with no unit stride
        # along its last axis
        batch, seq, h, heads, _ = GEOMETRIES["desk"]
        x = np.transpose(t64((batch, heads, seq, h // heads), 0).data.astype(dtype),
                         (0, 2, 3, 1))
        assert not x.flags.c_contiguous
        assert_sum_close(_row_sum(x), x, -1, x.shape[:-1] + (1,))
        assert_sum_close(_lead_sum(x, 2), x, (0, 1), x.shape[2:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_leading_axis_sums_to_zeros(self, dtype):
        x = np.ones((0, 18, 32), dtype)
        assert _row_sum(x).shape == (0, 18, 1)
        for lead, shape in ((1, (18, 32)), (2, (32,))):
            got = _lead_sum(x, lead)
            assert got.dtype == dtype and got.shape == shape and not got.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_ones_keep_the_bits_of_fresh_ones(self, dtype):
        # a long sum first, so the short ones read a prefix of the kept vector
        long, short = t64((3, 700), 0).data.astype(dtype), t64((6, 5, 9), 1).data.astype(dtype)
        assert np.array_equal(_lead_sum(long.T, 1), ones_lead_sum(long.T))
        for x in (short, long):
            assert np.array_equal(_row_sum(x), ones_row_sum(x))
            assert np.array_equal(_lead_sum(x, x.ndim - 1), ones_lead_sum(x))
        assert not _ones(9, np.dtype(dtype)).flags.writeable
        assert np.shares_memory(_ones(9, np.dtype(dtype)), _ones(700, np.dtype(dtype)))

    def test_row_sum_written_into_out(self):
        x = t32((4, 5, 6), 0).data
        out = np.empty((4, 5), np.float32)
        got = _row_sum(x, out)
        assert got.shape == (4, 5, 1) and np.shares_memory(got, out)
        assert np.array_equal(got, _row_sum(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_row_max_keeps_numpy_bits(self, dtype):
        # rows masked with the attention bias, a NaN, +-inf, and a max of +-0
        batch, seq, h, heads, _ = GEOMETRIES["cli"]
        scores = t64((batch, heads, seq, seq), 0).data.astype(dtype)
        scores[0, 0, 0, 3] = np.nan
        scores[1, 1, 2, 0] = np.inf
        scores[2, 2, 4, 5] = -np.inf
        scores[3, 3, 5] = -1.0
        scores[3, 3, 5, :2] = (-0.0, 0.0)
        mask_bias = key_bias(np.arange(batch) % seq + 1, seq, dtype)
        g = t64(scores.shape, 1).data.astype(dtype)
        with np.errstate(invalid="ignore"):  # inf - inf in the +inf row
            out = softmax(Tensor(scores), Tape(), scale=0.35, bias=mask_bias)
            want_p, _ = plain_softmax(scores, g, 0.35, mask_bias)
        assert np.array_equal(out.data, want_p, equal_nan=True)
        assert np.isnan(out.data[0, 0, 0]).all() and np.isnan(out.data[1, 1, 2]).all()
        assert np.isfinite(out.data[2:]).all()


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

    def test_cross_entropy_no_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            cross_entropy_masked(t64((0, 3), 0), np.zeros(0, dtype=np.int64))

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            cross_entropy_masked(t64((2, 3), 0), np.array([0, 3]))
        # -100, the usual "ignore this row" label, is out of range too
        with pytest.raises(ValueError, match="range"):
            cross_entropy_masked(t64((2, 3), 0), np.array([0, -100]))

    def test_cross_entropy_needs_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            cross_entropy_masked(t64((2, 3, 4), 0), np.array([0, 1]))
