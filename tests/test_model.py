"""Encoder model: shapes, init statistics, masking invariance, checkpoints."""

import math
import re
import struct

import numpy as np
import pytest

from daptlab.autodiff import (IGNORE_INDEX, Tape, Tensor, add, add_const, backward,
                              cross_entropy_masked, dropout, gather_rows, gelu, layer_norm,
                              matmul, mul, reshape, scale, softmax, transpose, tsum)
from daptlab.model import (ATTENTION_MASK_BIAS, ModelConfig, embed_document, forward,
                           init_params, load_checkpoint, mlm_logits, pad_batch,
                           param_shapes, save_checkpoint, truncated_normal)
from daptlab.tokenizer import SPECIAL_TOKENS, Vocab, encode

from helpers import grad_check


def tiny_config(**overrides):
    base = dict(num_layers=2, hidden=8, num_heads=2, ffn_dim=16,
                vocab_size=12, max_seq=8, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny():
    config = tiny_config()
    return config, init_params(config, seed=0)


def letter_vocab():
    letters = ["a", "b", "c", "d", "e"]
    return Vocab(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters])


class TestModelConfig:
    def test_desk_defaults(self):
        cfg = ModelConfig.desk(500)
        assert (cfg.num_layers, cfg.hidden, cfg.num_heads, cfg.ffn_dim) == (4, 64, 4, 256)
        assert cfg.max_seq == 128 and cfg.dropout == 0.1 and cfg.type_vocab == 2

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(hidden=10, num_heads=4)

    @pytest.mark.parametrize("field", ["num_layers", "hidden", "ffn_dim",
                                       "vocab_size", "max_seq"])
    def test_positive_dims(self, field):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: 0})

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=1.0)
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=-0.1)


class TestParamShapes:
    def test_embedding_and_head_entries(self):
        cfg = tiny_config()
        shapes = param_shapes(cfg)
        assert shapes["emb.word"] == (12, 8)
        assert shapes["emb.pos"] == (8, 8)
        assert shapes["emb.segment"] == (2, 8)
        assert shapes["mlm.dense.w"] == (8, 8)
        assert shapes["mlm.bias"] == (12,)
        # tied decoder: no standalone output projection
        assert not any("decoder" in name for name in shapes)

    def test_per_layer_entries(self):
        shapes = param_shapes(tiny_config(num_layers=3))
        for i in range(3):
            assert shapes[f"layer{i}.attn.wq"] == (8, 8)
            assert shapes[f"layer{i}.ffn.w1"] == (8, 16)
            assert shapes[f"layer{i}.ffn.w2"] == (16, 8)
        assert "layer3.attn.wq" not in shapes


class TestPadBatch:
    def test_ids_and_masks_padded_to_longest(self):
        vocab = letter_vocab()
        short, long = encode("a", vocab, 8), encode("a b c", vocab, 8)
        assert (len(short.ids), len(long.ids)) == (3, 5)
        ids, mask, rows = pad_batch([short.ids, long.ids], [[1], [1, 3]], vocab.pad_id)
        assert ids.dtype == mask.dtype == rows.dtype == np.int64
        assert ids.tolist() == [short.ids + [vocab.pad_id] * 2, long.ids]
        assert mask.tolist() == [[1, 1, 1, 0, 0], [1] * 5]
        assert rows.tolist() == [1, 6, 8]

    def test_mask_marks_each_sequence_length(self):
        ids, mask, _ = pad_batch([[7, 8, 9], [7], [7, 8, 9, 9, 9]], [[], [], []], 0)
        assert mask.dtype == np.int64
        assert mask.tolist() == [[1, 1, 1, 0, 0], [1, 0, 0, 0, 0], [1] * 5]
        assert ids.tolist() == [[7, 8, 9, 0, 0], [7, 0, 0, 0, 0], [7, 8, 9, 9, 9]]

    def test_rows_in_sequence_order_each_sequence_as_listed(self):
        seqs = [[7, 8, 9], [7], [7, 8, 9, 9], [7, 8]]
        positions = [[2, 0], [], np.array([1, 3]), [0]]
        ids, _, rows = pad_batch(seqs, positions, 0)
        assert rows.tolist() == [2, 0, 9, 11, 12]
        flat = ids.reshape(-1)
        assert flat[rows].tolist() == [seq[p] for seq, pos in zip(seqs, positions)
                                       for p in pos]

    def test_no_positions_give_empty_int64_rows(self):
        _, _, rows = pad_batch([[7, 8], [7]], [[], []], 0)
        assert rows.shape == (0,) and rows.dtype == np.int64


def rows_batch(config, seed, dtype=np.float32):
    """Padded ids and mask, parameters in ``dtype`` with nonzero biases and
    layer-norm shifts, and labels on about a third of the real positions."""
    rng = np.random.default_rng(seed)
    lengths = np.array([config.max_seq, 3, config.max_seq - 2, 5])
    mask = (np.arange(config.max_seq) < lengths[:, None]).astype(np.int64)
    ids = np.where(mask == 1, rng.integers(5, config.vocab_size, mask.shape), 0)
    labels = np.where((mask == 1) & (rng.random(mask.shape) < 0.3), ids, IGNORE_INDEX)
    params = {name: Tensor((t.data + rng.normal(0.0, 0.02, t.shape)).astype(dtype))
              for name, t in init_params(config, seed).items()}
    return ids, mask, labels, params


class TestForwardRows:
    """forward(rows=): the last layer's post-attention block on flat rows only."""

    def test_gathers_rows_in_order(self, tiny):
        config, params = tiny
        ids, mask = np.array([[1, 5, 6, 2], [1, 7, 2, 0]]), np.array([[1] * 4, [1, 1, 1, 0]])
        full = forward(ids, mask, config, params)
        keep = np.array([6, 1, 3])
        pruned = forward(ids, mask, config, params, rows=keep)
        assert len(pruned) == config.num_layers + 1
        for got, want in zip(pruned[:-1], full[:-1]):
            assert np.array_equal(got.data, want.data)
        assert pruned[-1].shape == (3, config.hidden)
        flat = full[-1].data.reshape(-1, config.hidden)
        np.testing.assert_allclose(pruned[-1].data, flat[keep], rtol=1e-6, atol=1e-7)

    def test_taped_ops_per_forward(self):
        # one layer: 5 embedding ops and 20 in the layer; the pruned layer
        # adds only its two row gathers
        config = tiny_config(num_layers=1)
        params = init_params(config, seed=0)
        ids, mask = np.array([[1, 5, 6, 2], [1, 7, 2, 0]]), np.array([[1] * 4, [1, 1, 1, 0]])
        full, pruned = Tape(), Tape()
        forward(ids, mask, config, params, tape=full)
        forward(ids, mask, config, params, tape=pruned, rows=np.array([6, 1, 3]))
        assert len(full) == 25
        assert len(pruned) == len(full) + 2

    def test_gradients_match_gathering_after_the_full_forward(self):
        config = tiny_config()
        ids, mask, labels, params = rows_batch(config, 0, np.float64)
        keep = np.flatnonzero(labels != IGNORE_INDEX)
        weights = Tensor(np.random.default_rng(1).standard_normal((keep.size, config.hidden)))
        tape = Tape()
        last = forward(ids, mask, config, params, tape=tape)[-1]
        rows = gather_rows(reshape(last, (ids.size, config.hidden), tape), keep, tape)
        backward(tape, tsum(mul(rows, weights, tape), tape))
        want = {name: t.grad for name, t in params.items()}
        for t in params.values():
            t.grad = None
        tape = Tape()
        last = forward(ids, mask, config, params, tape=tape, rows=keep)[-1]
        backward(tape, tsum(mul(last, weights, tape), tape))
        for name, t in params.items():
            if name.startswith("mlm."):  # the head is not in this loss
                assert t.grad is None and want[name] is None
            else:
                np.testing.assert_allclose(t.grad, want[name], rtol=1e-12, atol=1e-15,
                                           err_msg=name)

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-12, 1e-14),
                                                   (np.float32, 1e-6, 1e-7)],
                             ids=["float64", "float32"])
    def test_last_hidden_equals_full_forward_rows(self, dtype, rtol, atol):
        config = tiny_config(hidden=32, num_heads=4, ffn_dim=128, vocab_size=40,
                             max_seq=12)
        ids, mask, labels, params = rows_batch(config, 2, dtype)
        keep = np.flatnonzero(labels != IGNORE_INDEX)
        full = forward(ids, mask, config, params)[-1].data.reshape(-1, config.hidden)
        pruned = forward(ids, mask, config, params, rows=keep)[-1].data
        assert pruned.dtype == dtype and pruned.shape == (keep.size, config.hidden)
        np.testing.assert_allclose(pruned, full[keep], rtol=rtol, atol=atol)

    def test_pruned_mlm_loss_gradients_match_finite_differences(self):
        # criterion 1's check and tolerance, through the loss train() takes
        config = tiny_config()
        ids, mask, labels, params = rows_batch(config, 3, np.float64)
        keep = np.flatnonzero(labels != IGNORE_INDEX)
        assert keep.size >= 4

        def loss(tape):
            last = forward(ids, mask, config, params, tape=tape, rows=keep)[-1]
            return cross_entropy_masked(mlm_logits(last, params, tape),
                                        labels.reshape(-1)[keep], tape)

        assert grad_check(list(params.values()), loss, tol=1e-3) < 1e-3

    @pytest.mark.parametrize("rows, match", [
        (np.array([[0, 1]]), "1-D"),
        (np.array([0.0, 1.0]), "integer"),
        (np.array([0, 8]), "below 8"),
        (np.array([-1, 2]), "below 8"),
    ], ids=["2-d", "float", "past-end", "negative"])
    def test_bad_rows_rejected(self, tiny, rows, match):
        config, params = tiny
        ids = np.array([[1, 5, 6, 2], [1, 7, 2, 0]])
        with pytest.raises(ValueError, match=match):
            forward(ids, np.ones_like(ids), config, params, rows=rows)


class TestInit:
    def test_truncation_bound(self):
        rng = np.random.default_rng(0)
        out = truncated_normal(rng, (20000,), std=0.02)
        assert out.dtype == np.float32
        assert np.abs(out).max() <= 0.04
        # clipping would pile mass exactly on the bound; resampling must not
        assert not np.any(np.abs(out) == np.float32(0.04))

    def test_sample_std(self):
        rng = np.random.default_rng(1)
        out = truncated_normal(rng, (50000,), std=0.02)
        assert abs(float(out.std()) - 0.0176) < 0.002  # truncation shrinks std

    def test_init_kinds(self, tiny):
        _, params = tiny
        assert np.all(params["emb.ln.gamma"].data == 1.0)
        assert np.all(params["layer0.attn.ln.beta"].data == 0.0)
        assert np.all(params["layer1.ffn.b1"].data == 0.0)
        assert np.all(params["mlm.bias"].data == 0.0)
        assert np.abs(params["emb.word"].data).max() <= 0.04
        assert all(t.data.dtype == np.float32 for t in params.values())

    def test_seed_determinism(self):
        cfg = tiny_config()
        a = init_params(cfg, 7)
        b = init_params(cfg, 7)
        c = init_params(cfg, 8)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        assert not np.array_equal(a["emb.word"].data, c["emb.word"].data)


class TestForward:
    def test_single_sequence_shapes(self, tiny):
        config, params = tiny
        ids = np.array([[1, 5, 6, 2]])
        hidden = forward(ids, np.ones((1, 4), dtype=int), config, params)
        assert len(hidden) == config.num_layers + 1
        assert all(h.data.shape == (1, 4, 8) for h in hidden)

    def test_batch_shapes(self, tiny):
        config, params = tiny
        ids = np.array([[1, 5, 2], [1, 7, 2]])
        hidden = forward(ids, np.ones((2, 3), dtype=int), config, params)
        assert all(h.data.shape == (2, 3, 8) for h in hidden)

    def test_single_equals_batch_row(self, tiny):
        # a one-row batch gives the same bits as that row of a two-row batch
        config, params = tiny
        rows = np.array([[1, 5, 6, 2], [1, 9, 4, 2]])
        batched = forward(rows, np.ones((2, 4), dtype=int), config, params)
        for b in range(2):
            single = forward(rows[b:b + 1], np.ones((1, 4), dtype=int), config, params)
            for hs, hb in zip(single, batched):
                assert np.array_equal(hs.data[0], hb.data[b])

    def test_padding_does_not_leak(self, tiny):
        # -1e9 key bias underflows to exact zero probability, so real
        # positions must be bit-identical with and without trailing padding
        config, params = tiny
        short = forward(np.array([[1, 5, 6, 2]]), np.ones((1, 4), dtype=int),
                        config, params)
        padded = forward(np.array([[1, 5, 6, 2, 0, 0]]),
                         np.array([[1, 1, 1, 1, 0, 0]]), config, params)
        for hs, hp in zip(short, padded):
            assert np.array_equal(hs.data, hp.data[:, :4])

    def test_mask_changes_output(self, tiny):
        config, params = tiny
        ids = np.array([[1, 5, 6, 2]])
        full = forward(ids, np.ones((1, 4), dtype=int), config, params)
        part = forward(ids, np.array([[1, 1, 0, 1]]), config, params)
        assert not np.allclose(full[-1].data, part[-1].data)

    def test_deterministic(self, tiny):
        config, params = tiny
        ids = np.array([[1, 5, 6, 2]])
        a = forward(ids, np.ones((1, 4), dtype=int), config, params)
        b = forward(ids, np.ones((1, 4), dtype=int), config, params)
        assert np.array_equal(a[-1].data, b[-1].data)

    def test_input_validation(self, tiny):
        config, params = tiny
        ones = np.ones((1, 4), dtype=int)
        with pytest.raises(ValueError, match=re.escape("[B, S]")):
            forward(np.array([1, 5, 6, 2]), np.ones(4, dtype=int), config, params)
        with pytest.raises(ValueError, match="out of range"):
            forward(np.array([[1, 99, 6, 2]]), ones, config, params)
        with pytest.raises(ValueError, match="mask shape"):
            forward(np.array([[1, 5, 6, 2]]), np.ones((1, 3), dtype=int), config, params)
        with pytest.raises(ValueError, match="0 or 1"):
            forward(np.array([[1, 5, 6, 2]]), np.array([[1, 2, 1, 1]]), config, params)
        with pytest.raises(ValueError, match="at least one"):
            forward(np.array([[1, 5, 6, 2]]), np.zeros((1, 4), dtype=int), config, params)
        with pytest.raises(ValueError, match="sequence length"):
            forward(np.ones((1, 9), dtype=int), np.ones((1, 9), dtype=int), config, params)
        with pytest.raises(ValueError, match="integers"):
            forward(np.array([[1.0, 5.0]]), np.ones((1, 2), dtype=int), config, params)

    def test_dropout_runs_exactly_when_given_an_rng(self):
        config = tiny_config(dropout=0.5)
        params = init_params(config, 0)
        ids, mask = np.array([[1, 5, 2], [1, 7, 2]]), np.ones((2, 3), dtype=int)
        a = forward(ids, mask, config, params, rng=np.random.default_rng(4))
        b = forward(ids, mask, config, params, rng=np.random.default_rng(4))
        plain = forward(ids, mask, config, params)
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
        assert not np.array_equal(a[-1].data, plain[-1].data)

    def test_no_dropout_draws_nothing_from_rng(self, tiny):
        # pretraining and fine-tuning pass their rng at any rate; at rate 0 the
        # masking and batch-order draws that follow must see an untouched stream
        config, params = tiny
        rng = np.random.default_rng(9)
        out = forward(np.array([[1, 5, 2]]), np.ones((1, 3), dtype=int), config,
                      params, rng=rng)
        assert len(out) == config.num_layers + 1
        assert rng.random() == np.random.default_rng(9).random()


    def test_segment_row_gets_every_position_gradient(self, tiny):
        # every position adds segment row 0 and its own position row, so row 0
        # collects the sum of all position-row gradients; row 1 stays zero
        config, params = tiny
        tape = Tape()
        ids = np.array([[1, 5, 6, 2], [1, 7, 2, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
        hidden = forward(ids, mask, config, params, tape=tape)
        weights = Tensor(np.random.default_rng(0).standard_normal(
            hidden[-1].shape).astype(np.float32))
        backward(tape, tsum(mul(hidden[-1], weights, tape), tape))
        try:
            segment, pos = params["emb.segment"].grad, params["emb.pos"].grad
            assert np.abs(segment[0]).max() > 0
            assert np.allclose(segment[0], pos.sum(axis=0), rtol=1e-5, atol=1e-7)
            assert not segment[1].any()
        finally:
            for t in params.values():
                t.grad = None


def unfused_mlm_loss(ids, mask, labels, config, params, tape, rng):
    """The MLM training loss with every epilogue as its own op: bias adds, the
    attention scale and mask, the residual adds. The reference the fused
    ``forward`` and ``mlm_logits`` must match bit for bit."""
    batch, seq = ids.shape
    h, heads = config.hidden, config.num_heads
    dh = h // heads
    keep = np.flatnonzero(labels != IGNORE_INDEX)

    def drop(t):
        return dropout(t, config.dropout, rng, tape)

    def linear(t, w, b):
        return add(matmul(t, params[w], tape), params[b], tape)

    def norm(t, prefix):
        return layer_norm(t, params[prefix + ".gamma"], params[prefix + ".beta"], tape=tape)

    def split_heads(t, axes):
        return transpose(reshape(t, (batch, seq, heads, dh), tape), axes, tape)

    x = add(gather_rows(params["emb.word"], ids, tape),
            gather_rows(params["emb.pos"], np.arange(seq), tape), tape)
    x = add(x, gather_rows(params["emb.segment"], np.zeros(1, dtype=np.int64), tape), tape)
    x = drop(norm(x, "emb.ln"))
    mask_bias = ((1.0 - mask) * ATTENTION_MASK_BIAS).astype(np.float32)[:, None, None, :]
    for i in range(config.num_layers):
        p = f"layer{i}."
        q, k, v = (linear(x, f"{p}attn.w{c}", f"{p}attn.b{c}") for c in "qkv")
        scores = matmul(split_heads(q, (0, 2, 1, 3)), split_heads(k, (0, 2, 3, 1)), tape)
        scores = add_const(scale(scores, 1.0 / np.sqrt(dh), tape), mask_bias, tape)
        probs = drop(softmax(scores, -1, tape))
        ctx = transpose(matmul(probs, split_heads(v, (0, 2, 1, 3)), tape), (0, 2, 1, 3), tape)
        if i == config.num_layers - 1:  # the rest of the last layer on labelled rows
            ctx = gather_rows(reshape(ctx, (batch * seq, h), tape), keep, tape)
            x = gather_rows(reshape(x, (batch * seq, h), tape), keep, tape)
        else:
            ctx = reshape(ctx, (batch, seq, h), tape)
        attn = drop(linear(ctx, p + "attn.wo", p + "attn.bo"))
        x = norm(add(x, attn, tape), p + "attn.ln")
        inner = gelu(linear(x, p + "ffn.w1", p + "ffn.b1"), tape)
        x = norm(add(x, drop(linear(inner, p + "ffn.w2", p + "ffn.b2")), tape), p + "ffn.ln")
    t = norm(gelu(linear(x, "mlm.dense.w", "mlm.dense.b"), tape), "mlm.ln")
    decoder = transpose(params["emb.word"], (1, 0), tape)
    logits = add(matmul(t, decoder, tape), params["mlm.bias"], tape)
    return cross_entropy_masked(logits, labels.reshape(-1)[keep], tape)


def fused_mlm_loss(ids, mask, labels, config, params, tape, rng):
    keep = np.flatnonzero(labels != IGNORE_INDEX)
    last = forward(ids, mask, config, params, tape=tape, rng=rng, rows=keep)[-1]
    return cross_entropy_masked(mlm_logits(last, params, tape), labels.reshape(-1)[keep],
                                tape)


class TestMlmStep:
    """One MLM training step: fused epilogues, released adjoints, tied table."""

    @staticmethod
    def batch(config, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array([config.max_seq, 3, 7, config.max_seq - 1, 5, 2, 9, 4])
        mask = (np.arange(config.max_seq) < lengths[:, None]).astype(np.int64)
        ids = np.where(mask == 1, rng.integers(5, config.vocab_size, mask.shape), 0)
        labels = np.where((mask == 1) & (rng.random(mask.shape) < 0.3), ids, IGNORE_INDEX)
        return ids, mask, labels

    def test_step_matches_unfused_ops_and_frees_intermediate_grads(self, monkeypatch):
        # the CLI geometry with dropout on, so both paths also draw the same masks
        config = tiny_config(hidden=32, num_heads=4, ffn_dim=128, vocab_size=40,
                             max_seq=12, dropout=0.1)
        ids, mask, labels = self.batch(config, 0)
        params = init_params(config, seed=3)
        for t in params.values():  # nonzero biases and layer-norm shifts
            t.data += np.random.default_rng(4).normal(0.0, 0.02, t.shape).astype(np.float32)

        tape = Tape()
        want = unfused_mlm_loss(ids, mask, labels, config, params, tape,
                                np.random.default_rng(5))
        backward(tape, want)
        want_grads = {name: t.grad for name, t in params.items()}
        for t in params.values():
            t.grad = None

        created = []
        real_init = Tensor.__init__

        def recording_init(self, data):
            real_init(self, data)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        tape = Tape()
        got = fused_mlm_loss(ids, mask, labels, config, params, tape,
                             np.random.default_rng(5))
        backward(tape, got)
        monkeypatch.undo()

        assert len(created) == len(tape)  # the outputs of the recorded ops
        assert np.array_equal(got.data, want.data)
        for name, t in params.items():
            assert np.array_equal(t.grad, want_grads[name]), name
        assert all(t.grad is None for t in created)

    def test_tied_embedding_gets_gather_and_decoder_paths(self):
        config = tiny_config(vocab_size=20, max_seq=12)
        ids, mask, labels = self.batch(config, 1)
        params = {name: Tensor(t.data.astype(np.float64))
                  for name, t in init_params(config, seed=0).items()}
        tape = Tape()
        backward(tape, fused_mlm_loss(ids, mask, labels, config, params, tape, None))
        tied = params["emb.word"].grad

        encoder = {name: Tensor(t.data.copy()) for name, t in params.items()}
        decoder = dict(encoder, **{"emb.word": Tensor(params["emb.word"].data.copy())})
        tape = Tape()
        keep = np.flatnonzero(labels != IGNORE_INDEX)
        last = forward(ids, mask, config, encoder, tape=tape, rows=keep)[-1]
        backward(tape, cross_entropy_masked(mlm_logits(last, decoder, tape),
                                            labels.reshape(-1)[keep], tape))
        gathered, decoded = encoder["emb.word"].grad, decoder["emb.word"].grad
        assert np.abs(gathered).max() > 0 and np.abs(decoded).max() > 0
        np.testing.assert_allclose(tied, gathered + decoded, rtol=1e-12, atol=1e-15)


class TestMlmLogits:
    def test_shapes(self, tiny):
        config, params = tiny
        hidden = forward(np.array([[1, 5, 6, 2]]), np.ones((1, 4), dtype=int),
                         config, params)
        logits = mlm_logits(hidden[-1], params)
        assert logits.data.shape == (1, 4, config.vocab_size)

    def test_decoder_reads_live_embedding_table(self, tiny):
        config, params = tiny
        hidden = forward(np.array([[1, 5, 6, 2]]), np.ones((1, 4), dtype=int),
                         config, params)
        before = mlm_logits(hidden[-1], params).data.copy()
        params["emb.word"].data[3] += 0.5
        try:
            after = mlm_logits(hidden[-1], params).data
        finally:
            params["emb.word"].data[3] -= 0.5
        assert not np.allclose(before[..., 3], after[..., 3])
        other = [v for v in range(config.vocab_size) if v != 3]
        assert np.allclose(before[..., other], after[..., other])


class TestEmbedDocument:
    def test_output_shape_and_dtype(self):
        config = tiny_config(num_layers=3)
        params = init_params(config, 0)
        vec = embed_document("a b c", letter_vocab(), config, params)
        assert vec.shape == (4 * config.hidden,)
        assert vec.dtype == np.float32

    def test_single_content_piece_selects_that_position(self):
        config = tiny_config(num_layers=3)
        params = init_params(config, 0)
        vocab = letter_vocab()
        vec = embed_document("a", vocab, config, params)
        enc = encode("a", vocab, config.max_seq)
        hidden = forward(np.array([enc.ids]), np.ones((1, len(enc.ids)), dtype=np.int64),
                         config, params)
        manual = np.concatenate([h.data[0, 1] for h in hidden[-4:]])
        assert np.allclose(vec, manual.astype(np.float32))

    def test_too_shallow_model(self):
        config = tiny_config(num_layers=2)
        with pytest.raises(ValueError, match="num_layers"):
            embed_document("a", letter_vocab(), config, init_params(config, 0))

    def test_no_content_rejected(self):
        config = tiny_config(num_layers=3)
        with pytest.raises(ValueError, match="content"):
            embed_document("", letter_vocab(), config, init_params(config, 0))


class TestCheckpoint:
    def test_roundtrip_exact(self, tiny, tmp_path):
        config, params = tiny
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, path)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert list(loaded) == list(param_shapes(config))
        for name in params:
            assert np.array_equal(loaded[name].data, params[name].data)
            assert loaded[name].data.dtype == np.float32

    def test_resave_is_byte_identical(self, tiny, tmp_path):
        config, params = tiny
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, config, first)
        loaded, cfg = load_checkpoint(first)
        save_checkpoint(loaded, cfg, second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file(self, tiny, tmp_path):
        config, params = tiny
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, path)
        clipped = tmp_path / "clip.ckpt"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(clipped)

    def test_trailing_bytes(self, tiny, tmp_path):
        config, params = tiny
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, path)
        padded = tmp_path / "pad.ckpt"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(padded)

    def test_missing_tensor(self, tiny, tmp_path):
        config, params = tiny
        partial = {k: v for k, v in params.items() if k != "mlm.bias"}
        path = tmp_path / "m.ckpt"
        save_checkpoint(partial, config, path)
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)

    def test_unexpected_tensor(self, tiny, tmp_path):
        from daptlab.autodiff import Tensor
        config, params = tiny
        extra = dict(params)
        extra["rogue"] = Tensor(np.zeros(3, dtype=np.float32))
        path = tmp_path / "m.ckpt"
        save_checkpoint(extra, config, path)
        with pytest.raises(ValueError, match="unexpected"):
            load_checkpoint(path)

    # Fault injection: each corrupt file gets its own message. The header is
    # magic (8 bytes), version, seven uint32 config fields, float64 dropout and
    # the tensor count (52 bytes); the first tensor record follows it.
    HEADER = 52

    def saved(self, tiny, tmp_path):
        config, params = tiny
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, path)
        return path.read_bytes()

    def first_record(self, blob):
        """(offset of its rank field, end offset, name) of the first tensor."""
        (name_len,) = struct.unpack_from("<I", blob, self.HEADER)
        rank_at = self.HEADER + 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, rank_at)
        shape = struct.unpack_from(f"<{rank}I", blob, rank_at + 4)
        end = rank_at + 4 + 4 * rank + 4 * math.prod(shape)
        return rank_at, end, blob[self.HEADER + 4:rank_at].decode()

    def load_bytes(self, tmp_path, blob):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        return load_checkpoint(path)

    def test_unsupported_version(self, tiny, tmp_path):
        blob = self.saved(tiny, tmp_path)
        blob = blob[:8] + struct.pack("<I", 2) + blob[12:]
        with pytest.raises(ValueError, match="^unsupported checkpoint version 2$"):
            self.load_bytes(tmp_path, blob)

    def test_implausible_rank(self, tiny, tmp_path):
        blob = self.saved(tiny, tmp_path)
        rank_at, _, name = self.first_record(blob)
        blob = blob[:rank_at] + struct.pack("<I", 9) + blob[rank_at + 4:]
        with pytest.raises(ValueError, match=f"^implausible rank 9 for tensor '{name}'$"):
            self.load_bytes(tmp_path, blob)

    def test_duplicate_tensor(self, tiny, tmp_path):
        blob = self.saved(tiny, tmp_path)
        _, end, name = self.first_record(blob)
        (count,) = struct.unpack_from("<I", blob, self.HEADER - 4)
        blob = (blob[:self.HEADER - 4] + struct.pack("<I", count + 1) +
                blob[self.HEADER:end] + blob[self.HEADER:end] + blob[end:])
        with pytest.raises(ValueError, match=f"^duplicate tensor '{name}' in checkpoint$"):
            self.load_bytes(tmp_path, blob)

    def test_shape_mismatch(self, tiny, tmp_path):
        config, params = tiny
        bad = dict(params)
        bad["mlm.bias"] = Tensor(np.zeros(config.vocab_size + 1, dtype=np.float32))
        path = tmp_path / "m.ckpt"
        save_checkpoint(bad, config, path)
        message = (f"tensor 'mlm.bias' has shape ({config.vocab_size + 1},), "
                   f"expected ({config.vocab_size},)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_cut_inside_config_block(self, tiny, tmp_path):
        blob = self.saved(tiny, tmp_path)[:20]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^truncated checkpoint {re.escape(str(path))}$"):
            load_checkpoint(path)

    def test_float64_rejected_at_save(self, tiny, tmp_path):
        from daptlab.autodiff import Tensor
        config, params = tiny
        bad = dict(params)
        bad["mlm.bias"] = Tensor(np.zeros(config.vocab_size, dtype=np.float64))
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(bad, config, tmp_path / "m.ckpt")
