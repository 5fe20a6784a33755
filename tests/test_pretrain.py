"""MLM masking recipe, training loop behavior, and the adaptation regimen."""

import math

import numpy as np
import pytest

from daptlab import finetune, pretrain
from daptlab.autodiff import (IGNORE_INDEX, Tape, Tensor, backward, cross_entropy_masked,
                              reshape)
from daptlab.model import ModelConfig, forward, init_params, mlm_logits
from daptlab.pretrain import (MaskingPolicy, RegimenError, TrainConfig,
                              TrainingDiverged, apply_masking,
                              corpus_token_count, dapt, encode_corpus,
                              maskable_positions, masked_token_accuracy, perplexity,
                              train)
from daptlab.finetune import FinetuneConfig, LabeledTextDataset, finetune_classify
from daptlab.synth import PATTERN_WORDS, classification_records, patterned_corpus
from daptlab.tokenizer import SPECIAL_TOKENS, Vocab, encode, train_vocab


@pytest.fixture(scope="module")
def vocab():
    # every pattern word is a whole piece; no subword splitting in these tests
    return Vocab(list(SPECIAL_TOKENS) + list(PATTERN_WORDS))


def tiny_setup(vocab, seed=0):
    config = ModelConfig(num_layers=1, hidden=8, num_heads=2, ffn_dim=16,
                         vocab_size=len(vocab), max_seq=16, dropout=0.0)
    return config, init_params(config, seed)


@pytest.fixture(scope="module")
def trained_tiny(vocab):
    """One short real training run shared by the learning-progress tests."""
    config = ModelConfig(num_layers=2, hidden=32, num_heads=2, ffn_dim=64,
                         vocab_size=len(vocab), max_seq=16, dropout=0.0)
    params = init_params(config, 0)
    texts = patterned_corpus(32, sentence_len=8)
    before_acc = masked_token_accuracy(config, params, texts, vocab, seed=9)
    tc = TrainConfig(peak_lr=6e-3, epochs=100, batch_size=8, warmup_steps=5,
                     seed=0)
    log = train(config, params, texts, vocab, tc)
    return config, params, texts, log, before_acc


class TestMaskingPolicy:
    def test_defaults(self):
        policy = MaskingPolicy()
        assert (policy.select_prob, policy.mask_frac,
                policy.random_frac, policy.keep_frac) == (0.15, 0.8, 0.1, 0.1)

    def test_fraction_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MaskingPolicy(mask_frac=0.8, random_frac=0.1, keep_frac=0.2)

    def test_select_prob_bounds(self):
        with pytest.raises(ValueError, match="select_prob"):
            MaskingPolicy(select_prob=0.0)
        with pytest.raises(ValueError, match="select_prob"):
            MaskingPolicy(select_prob=1.1)

    def test_negative_fraction(self):
        with pytest.raises(ValueError):
            MaskingPolicy(mask_frac=1.1, random_frac=-0.2, keep_frac=0.1)


class TestApplyMasking:
    def test_labels_mark_selected_positions_only(self, vocab):
        enc = encode("alpha bravo charlie delta echo", vocab, 16)
        rng = np.random.default_rng(3)
        ids = np.asarray(enc.ids)
        corrupted, labels = apply_masking(enc, vocab, MaskingPolicy(), rng)
        chosen = labels != IGNORE_INDEX
        assert chosen.any()
        assert np.array_equal(labels[chosen], ids[chosen])
        assert np.array_equal(corrupted[~chosen], ids[~chosen])

    def test_specials_never_touched(self, vocab):
        enc = encode("alpha bravo", vocab, 8)  # CLS a b SEP PAD...
        ids = np.asarray(enc.ids)
        policy = MaskingPolicy(select_prob=1.0)
        for seed in range(20):
            corrupted, labels = apply_masking(enc, vocab, policy,
                                              np.random.default_rng(seed))
            special = np.isin(ids, list(vocab.special_ids))
            assert np.array_equal(corrupted[special], ids[special])
            assert np.all(labels[special] == IGNORE_INDEX)

    def test_select_all(self, vocab):
        enc = encode("alpha bravo charlie", vocab, 8)
        _, labels = apply_masking(enc, vocab, MaskingPolicy(select_prob=1.0),
                                  np.random.default_rng(0))
        assert (labels != IGNORE_INDEX).sum() == 3

    def test_mask_replacement_uses_mask_token(self, vocab):
        enc = encode("alpha bravo charlie delta", vocab, 8)
        policy = MaskingPolicy(select_prob=1.0, mask_frac=1.0,
                               random_frac=0.0, keep_frac=0.0)
        corrupted, labels = apply_masking(enc, vocab, policy,
                                          np.random.default_rng(1))
        assert np.all(corrupted[labels != IGNORE_INDEX] == vocab.mask_id)

    def test_random_replacement_never_special(self, vocab):
        enc = encode("alpha bravo charlie delta", vocab, 8)
        policy = MaskingPolicy(select_prob=1.0, mask_frac=0.0,
                               random_frac=1.0, keep_frac=0.0)
        for seed in range(50):
            corrupted, labels = apply_masking(enc, vocab, policy,
                                              np.random.default_rng(seed))
            replaced = corrupted[labels != IGNORE_INDEX]
            assert not np.isin(replaced, list(vocab.special_ids)).any()

    def test_keep_leaves_ids(self, vocab):
        enc = encode("alpha bravo charlie", vocab, 8)
        policy = MaskingPolicy(select_prob=1.0, mask_frac=0.0,
                               random_frac=0.0, keep_frac=1.0)
        corrupted, labels = apply_masking(enc, vocab, policy,
                                          np.random.default_rng(2))
        assert np.array_equal(corrupted, np.asarray(enc.ids))
        assert (labels != IGNORE_INDEX).sum() == 3

    def test_resamples_once_after_empty_draw(self, vocab):
        enc = encode("alpha bravo charlie delta echo foxtrot", vocab, 16)
        policy = MaskingPolicy(select_prob=0.05)
        hit = None
        for seed in range(500):
            rng = np.random.default_rng(seed)
            first = rng.random(6) < 0.05
            second = rng.random(6) < 0.05
            if not first.any() and second.any():
                hit = seed
                break
        assert hit is not None
        _, labels = apply_masking(enc, vocab, policy, np.random.default_rng(hit))
        assert (labels != IGNORE_INDEX).any()

    def test_gives_up_after_two_empty_draws(self, vocab):
        enc = encode("alpha bravo", vocab, 8)
        policy = MaskingPolicy(select_prob=1e-12)
        corrupted, labels = apply_masking(enc, vocab, policy,
                                          np.random.default_rng(0))
        assert np.array_equal(corrupted, np.asarray(enc.ids))
        assert np.all(labels == IGNORE_INDEX)

    def test_no_content_rejected(self, vocab):
        enc = encode("", vocab, 8)
        with pytest.raises(ValueError, match="maskable"):
            apply_masking(enc, vocab, MaskingPolicy(), np.random.default_rng(0))

    def test_draws_pinned_with_scattered_specials(self):
        # specials spread through the id range, so a random replacement must map
        # its draw through the non-special id table; fixed seed, fixed arrays
        vocab = Vocab(["alpha", "bravo", "charlie", "[MASK]", "delta", "echo",
                       "foxtrot", "[PAD]", "[SEP]", "golf", "hotel", "india",
                       "[UNK]", "[CLS]", "juliett", "kilo", "lima"])
        policy = MaskingPolicy(select_prob=0.7, mask_frac=0.2, random_frac=0.6,
                               keep_frac=0.2)
        rng = np.random.default_rng(11)
        expected = [
            ("alpha bravo charlie delta echo foxtrot",
             [13, 3, 3, 2, 1, 9, 6, 8], [-100, 0, 1, 2, 4, 5, -100, -100]),
            ("golf hotel india juliett kilo lima alpha",
             [13, 16, 10, 5, 14, 16, 10, 0, 8],
             [-100, 9, 10, 11, -100, 15, 16, -100, -100]),
            ("zulu bravo", [13, 12, 1, 8], [-100, -100, 1, -100]),
            ("lima kilo juliett india hotel golf foxtrot echo",
             [13, 16, 6, 5, 11, 11, 9, 3, 6, 8],
             [-100, -100, 15, 14, 11, 10, -100, 6, 5, -100]),
        ]
        for text, want_ids, want_labels in expected:
            corrupted, labels = apply_masking(encode(text, vocab, 16), vocab, policy, rng)
            assert corrupted.tolist() == want_ids
            assert labels.tolist() == want_labels

    def test_batch_draws_pinned_with_candidates_given(self):
        # the batch path hands each encoding's maskable positions to
        # apply_masking; the draws and the rng stream are those of the path that
        # found them itself, recorded before the positions were precomputed
        vocab = Vocab(["alpha", "bravo", "charlie", "[MASK]", "delta", "echo",
                       "foxtrot", "[PAD]", "[SEP]", "golf", "hotel", "india",
                       "[UNK]", "[CLS]", "juliett", "kilo", "lima"])
        texts = ["alpha bravo charlie delta", "zulu golf hotel",
                 "india juliett kilo lima echo foxtrot", "bravo zulu alpha"]
        encodings = encode_corpus(texts, vocab, 16)
        candidates = [maskable_positions(e, vocab) for e in encodings]
        assert candidates[1].tolist() == [2, 3]  # the [UNK] at 1 is never a candidate
        policy = MaskingPolicy(select_prob=0.5, mask_frac=0.5, random_frac=0.3,
                               keep_frac=0.2)
        rng = np.random.default_rng(4)
        # (ids, flat rows b * 8 + p of the masked positions, their original ids)
        expected = [
            ([[13, 0, 1, 2, 4, 8, 7, 7], [13, 12, 9, 10, 8, 7, 7, 7],
              [13, 11, 14, 3, 16, 5, 6, 8], [13, 1, 12, 5, 8, 7, 7, 7]],
             [4, 11, 19, 20, 27], [4, 10, 15, 16, 0]),
            ([[13, 0, 1, 2, 3, 8, 7, 7], [13, 12, 9, 10, 8, 7, 7, 7],
              [13, 3, 14, 15, 16, 5, 6, 8], [13, 3, 12, 0, 8, 7, 7, 7]],
             [4, 10, 17, 18, 25], [4, 9, 11, 14, 1]),
        ]
        for want_ids, want_rows, want_targets in expected:
            ids, _, rows, targets = pretrain._batch_arrays(encodings, candidates, vocab,
                                                           policy, rng)
            assert ids.tolist() == want_ids
            assert rows.dtype == targets.dtype == np.int64
            assert rows.tolist() == want_rows
            assert targets.tolist() == want_targets
        assert rng.integers(0, 1 << 30) == 394798592

    def test_candidates_built_once_per_encoding_per_call(self, vocab, monkeypatch):
        calls = []
        real = pretrain.maskable_positions

        def counting(encoding, vocab_):
            calls.append(encoding)
            return real(encoding, vocab_)

        monkeypatch.setattr(pretrain, "maskable_positions", counting)
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(10, sentence_len=6)
        train(config, params, texts, vocab,
              TrainConfig(peak_lr=1e-3, epochs=3, batch_size=4, warmup_steps=2))
        assert len(calls) == 10 and len({id(e) for e in calls}) == 10
        calls.clear()
        perplexity(config, params, texts, vocab, batch_size=4)
        assert len(calls) == 10

    def test_module_scale_statistics(self, vocab):
        # acceptance re-checks this at >=100k candidates; quick version here
        enc = encode(" ".join(PATTERN_WORDS), vocab, 32)
        rng = np.random.default_rng(0)
        ids = np.asarray(enc.ids)
        selected = masked = random_repl = kept = 0
        candidates = 0
        for _ in range(1500):
            corrupted, labels = apply_masking(enc, vocab, MaskingPolicy(), rng)
            chosen = labels != IGNORE_INDEX
            candidates += 20
            selected += int(chosen.sum())
            masked += int((corrupted[chosen] == vocab.mask_id).sum())
            kept += int((corrupted[chosen] == ids[chosen]).sum())
            random_repl += int(((corrupted[chosen] != vocab.mask_id)
                                & (corrupted[chosen] != ids[chosen])).sum())
        assert abs(selected / candidates - 0.15) < 0.02
        assert abs(masked / selected - 0.80) < 0.03
        # a random draw can repeat the original id, shifting mass to "kept"
        assert abs(random_repl / selected - 0.10) < 0.03
        assert abs(kept / selected - 0.10) < 0.03


class TestEncodeCorpus:
    def test_drops_empty_documents(self, vocab):
        encs = encode_corpus(["alpha bravo", "", "charlie"], vocab, 8)
        assert len(encs) == 2

    def test_respects_max_seq(self, vocab):
        encs = encode_corpus(["alpha bravo charlie delta"], vocab, 4)
        assert len(encs[0].ids) == 4


class TestTrain:
    def test_zero_epochs_is_noop(self, vocab):
        config, params = tiny_setup(vocab)
        before = {k: t.data.copy() for k, t in params.items()}
        log = train(config, params, ["alpha bravo"], vocab,
                    TrainConfig(peak_lr=1e-3, epochs=0))
        assert log.entries == []
        assert all(np.array_equal(before[k], params[k].data) for k in params)

    def test_step_count_and_epoch_ends(self, vocab):
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(10, sentence_len=6)
        tc = TrainConfig(peak_lr=1e-3, epochs=3, batch_size=4, warmup_steps=2,
                         seed=0)
        log = train(config, params, texts, vocab, tc)
        assert len(log.entries) == 3 * math.ceil(10 / 4)
        assert [s for s, _ in log.entries] == list(range(1, 10))

    def test_loss_decreases(self, trained_tiny):
        _, _, _, log, _ = trained_tiny
        first = np.mean([l for _, l in log.entries[:4]])
        last = np.mean([l for _, l in log.entries[-4:]])
        assert last < 0.7 * first

    def test_deterministic_given_seed(self, vocab):
        texts = patterned_corpus(8, sentence_len=6)
        tc = TrainConfig(peak_lr=1e-3, epochs=2, batch_size=4, warmup_steps=1,
                         seed=3)
        runs = []
        for _ in range(2):
            config, params = tiny_setup(vocab)
            log = train(config, params, texts, vocab, tc)
            runs.append((log.entries, {k: t.data.copy() for k, t in params.items()}))
        assert runs[0][0] == runs[1][0]
        assert all(np.array_equal(runs[0][1][k], runs[1][1][k]) for k in runs[0][1])

    def test_dropout_runs_repeat_to_the_byte(self, vocab):
        # the last layer draws dropout only for the labelled rows it keeps
        texts = patterned_corpus(12, sentence_len=6)
        tc = TrainConfig(peak_lr=1e-3, epochs=2, batch_size=4, warmup_steps=1, seed=3)
        runs = []
        for _ in range(2):
            config = ModelConfig(num_layers=2, hidden=8, num_heads=2, ffn_dim=16,
                                 vocab_size=len(vocab), max_seq=16, dropout=0.1)
            params = init_params(config, 0)
            log = train(config, params, texts, vocab, tc)
            runs.append((log.render(), b"".join(params[k].data.tobytes() for k in params)))
        assert runs[0] == runs[1]

    def test_seed_changes_trajectory(self, vocab):
        texts = patterned_corpus(8, sentence_len=6)
        losses = []
        for seed in (0, 1):
            config, params = tiny_setup(vocab)
            tc = TrainConfig(peak_lr=1e-3, epochs=2, batch_size=4,
                             warmup_steps=1, seed=seed)
            losses.append(train(config, params, texts, vocab, tc).entries)
        assert losses[0] != losses[1]

    def test_warmup_must_fit(self, vocab):
        config, params = tiny_setup(vocab)
        tc = TrainConfig(peak_lr=1e-3, epochs=1, batch_size=8, warmup_steps=100)
        with pytest.raises(ValueError, match="warmup"):
            train(config, params, ["alpha bravo"], vocab, tc)

    def test_empty_corpus_rejected(self, vocab):
        config, params = tiny_setup(vocab)
        with pytest.raises(ValueError, match="no usable"):
            train(config, params, ["", ""], vocab, TrainConfig(peak_lr=1e-3))

    def test_document_with_no_maskable_piece_is_skipped(self, vocab):
        # every word of the inserted text is [UNK] to the pattern vocab
        texts = patterned_corpus(10, sentence_len=6)
        unspellable = "уязвимость в ядре"
        with_unk = texts[:5] + [unspellable] + texts[5:]
        assert maskable_positions(encode(unspellable, vocab, 16), vocab).size == 0
        tc = TrainConfig(peak_lr=1e-3, epochs=3, batch_size=4, warmup_steps=2, seed=0)
        runs = []
        for corpus in (with_unk, texts):
            config, params = tiny_setup(vocab)
            log = train(config, params, corpus, vocab, tc)
            runs.append((log.entries, params_bytes(params),
                         perplexity(config, params, corpus, vocab, batch_size=4),
                         masked_token_accuracy(config, params, corpus, vocab,
                                               batch_size=4)))
        assert len(runs[0][0]) == tc.epochs * math.ceil((len(with_unk) - 1) / 4)
        assert runs[0] == runs[1]  # as if the document were not there
        config, params = tiny_setup(vocab)
        with pytest.raises(ValueError, match="no usable"):
            train(config, params, [unspellable], vocab, tc)
        with pytest.raises(ValueError, match="usable"):
            perplexity(config, params, [unspellable], vocab)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_log(self, vocab):
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(8, sentence_len=6)
        tc = TrainConfig(peak_lr=1e8, epochs=50, batch_size=8, warmup_steps=1,
                         seed=0)
        with pytest.raises(TrainingDiverged) as info:
            train(config, params, texts, vocab, tc)
        err = info.value
        assert err.step == len(err.loss_log.entries) + 1
        assert all(math.isfinite(l) for _, l in err.loss_log.entries)
        assert "non-finite" in str(err)

    def test_non_finite_gradient_raises_diverged(self, vocab, monkeypatch):
        # the loss stays finite; only one gradient entry is poisoned
        config, params = tiny_setup(vocab)
        real_backward = pretrain.backward

        def poisoned_backward(tape, loss):
            real_backward(tape, loss)
            params["emb.word"].grad[0, 0] = np.nan

        monkeypatch.setattr(pretrain, "backward", poisoned_backward)
        before = {name: t.data.copy() for name, t in params.items()}
        tc = TrainConfig(peak_lr=1e-3, epochs=2, batch_size=8, warmup_steps=1)
        with pytest.raises(TrainingDiverged) as info:
            train(config, params, patterned_corpus(8, sentence_len=6), vocab, tc)
        err = info.value
        assert err.step == 1
        assert "non-finite gradient for 'emb.word'" in str(err)
        assert [step for step, _ in err.loss_log.entries] == [1]
        assert all(np.array_equal(before[name], params[name].data) for name in params)

    def test_parameters_train_as_views_into_one_state(self, vocab):
        # fit rebinds every parameter and its gradient to views into one flat
        # buffer each, in dict order
        config, params = tiny_setup(vocab)
        shapes = {name: t.data.shape for name, t in params.items()}
        train(config, params, patterned_corpus(8, sentence_len=6), vocab,
              TrainConfig(peak_lr=1e-3, epochs=1, batch_size=4, warmup_steps=1))
        first = next(iter(params.values()))
        for slot in ("data", "grad"):
            flat = getattr(first, slot).base
            start = flat.__array_interface__["data"][0]
            offset = 0
            for name, t in params.items():
                view = getattr(t, slot)
                assert view.base is flat and view.shape == shapes[name], (slot, name)
                assert view.__array_interface__["data"][0] == start + offset * flat.itemsize
                offset += view.size
            assert offset == flat.size

    def test_loss_log_render(self):
        from daptlab.pretrain import LossLog
        log = LossLog(entries=[(1, 3.5), (2, 3.25)])
        assert log.render() == "step\tloss\n1\t3.500000\n2\t3.250000\n"


def params_bytes(params):
    return b"".join(params[name].data.tobytes() for name in params)


class TestTapeReuse:
    """fit builds each step's tape from the last one, so the steps reuse their
    buffers; every parameter and loss keeps its bytes against fresh tapes."""

    def runs(self, monkeypatch, run):
        """run() with fit's tapes reusing buffers, then with fresh tapes; also
        every buffer the reusing tapes handed out, in order of request."""
        handed = []

        class RecordingTape(Tape):
            def empty(self, shape, dtype):
                view = super().empty(shape, dtype)
                handed.append(view.base)
                return view

        with monkeypatch.context() as m:
            m.setattr(pretrain, "Tape", RecordingTape)
            reused = run()
        with monkeypatch.context() as m:
            m.setattr(pretrain, "Tape", lambda spare=None: Tape())
            fresh = run()
        return reused, fresh, handed

    def test_mlm_steps_match_fresh_tapes_to_the_byte(self, vocab, monkeypatch):
        # sentences of 3 to 11 words, so batches pad to different lengths and
        # slots outgrow their buffers or take views of larger ones
        texts = [" ".join(PATTERN_WORDS[(i + j) % len(PATTERN_WORDS)]
                          for j in range(3 + (5 * i) % 9)) for i in range(30)]
        config = ModelConfig(num_layers=2, hidden=8, num_heads=2, ffn_dim=16,
                             vocab_size=len(vocab), max_seq=16, dropout=0.1)
        tc = TrainConfig(peak_lr=1e-3, epochs=2, batch_size=7, warmup_steps=1, seed=4)
        widths = []
        real_forward = pretrain.forward

        def recording_forward(ids, *args, **kwargs):
            widths.append(ids.shape[1])
            return real_forward(ids, *args, **kwargs)

        monkeypatch.setattr(pretrain, "forward", recording_forward)

        def run():
            params = init_params(config, 0)
            log = train(config, params, texts, vocab, tc)
            return log.entries, params_bytes(params)

        reused, fresh, handed = self.runs(monkeypatch, run)
        assert reused == fresh
        steps = len(reused[0])
        assert steps == 10 and len(set(widths)) > 2
        per_step = len(handed) // steps
        distinct = len({id(buf) for buf in handed})
        # reused across steps, and some slots outgrew their first buffer
        assert per_step < distinct < len(handed)

    def test_finetune_seeds_match_fresh_tapes_to_the_byte(self, monkeypatch):
        records = classification_records(40, seed=5)
        vocab = train_vocab([r["text"] for r in records], target_size=200,
                            min_frequency=1)
        config = ModelConfig(num_layers=1, hidden=16, num_heads=2, ffn_dim=32,
                             vocab_size=len(vocab), max_seq=32, dropout=0.1)
        base = init_params(config, 0)
        data = LabeledTextDataset.from_records(records, seed=1, positive_label="relevant")
        fits = []
        real_fit = finetune.fit

        def recording_fit(state, *args, **kwargs):
            log = real_fit(state, *args, **kwargs)
            fits.append((log.entries, state.params.tobytes()))
            return log

        monkeypatch.setattr(finetune, "fit", recording_fit)

        def run():
            fits.clear()
            report = finetune_classify(config, base, vocab, data, seeds=(0, 1, 2, 3, 4),
                                       ft_config=FinetuneConfig(lr=2e-3, epochs=2,
                                                                batch_size=8))
            return report, list(fits)

        reused, fresh, handed = self.runs(monkeypatch, run)
        assert len(reused[1]) == 5 and reused == fresh
        assert len({id(buf) for buf in handed}) < len(handed)


def label_matrix(ids, rows, targets):
    """Oracle input: a [B, S] matrix holding each target at its flat row and
    IGNORE_INDEX everywhere else."""
    labels = np.full(ids.size, IGNORE_INDEX, dtype=np.int64)
    labels[rows] = targets
    return labels.reshape(ids.shape)


def full_decode_loss(config, params, ids, mask, labels, tape=None):
    """Oracle: decode every position, then let the loss skip the unlabelled ones."""
    hidden = forward(ids, mask, config, params, tape=tape)
    logits = mlm_logits(hidden[-1], params, tape)
    flat = reshape(logits, (ids.size, config.vocab_size), tape)
    return cross_entropy_masked(flat, labels.reshape(-1), tape)


class TestLabelledRowsOnly:
    def test_step_matches_full_decode_oracle(self, vocab, monkeypatch):
        config = ModelConfig(num_layers=1, hidden=8, num_heads=2, ffn_dim=16,
                             vocab_size=len(vocab), max_seq=16, dropout=0.0)
        params = {name: Tensor(t.data.astype(np.float64))
                  for name, t in init_params(config, 0).items()}
        batches, step_grads = [], []
        real_batch_arrays = pretrain._batch_arrays

        def recording_batch_arrays(*args):
            batches.append(real_batch_arrays(*args))
            return batches[-1]

        def recording_adam_step(state, *args):  # parameters stay put
            step_grads.append({name: t.grad.copy() for name, t in params.items()})
            state.grads.fill(0.0)

        monkeypatch.setattr(pretrain, "_batch_arrays", recording_batch_arrays)
        monkeypatch.setattr(pretrain, "adam_step", recording_adam_step)
        log = train(config, params, patterned_corpus(12, sentence_len=6), vocab,
                    TrainConfig(peak_lr=1e-3, epochs=2, batch_size=12, warmup_steps=1))
        assert len(batches) == len(step_grads) == len(log.entries) == 2
        for (ids, mask, rows, targets), grads, (_, loss) in zip(batches, step_grads,
                                                                 log.entries):
            tape = Tape()
            want = full_decode_loss(config, params, ids, mask,
                                    label_matrix(ids, rows, targets), tape)
            backward(tape, want)
            assert loss == pytest.approx(float(want.data), rel=1e-5)
            for name, t in params.items():
                np.testing.assert_allclose(grads[name], t.grad, rtol=1e-5, atol=1e-12,
                                           err_msg=name)
                t.grad = None

    def test_train_decodes_one_row_per_labelled_position(self, vocab, monkeypatch):
        config, params = tiny_setup(vocab)
        events = []
        real_batch_arrays, real_mlm_logits = pretrain._batch_arrays, pretrain.mlm_logits

        def recording_batch_arrays(*args):
            ids, mask, rows, targets = real_batch_arrays(*args)
            assert rows.shape == targets.shape
            events.append(("labelled", rows.size))
            return ids, mask, rows, targets

        def recording_mlm_logits(last_hidden, params, tape=None):
            events.append(("decoded", last_hidden.data.shape))
            return real_mlm_logits(last_hidden, params, tape)

        monkeypatch.setattr(pretrain, "_batch_arrays", recording_batch_arrays)
        monkeypatch.setattr(pretrain, "mlm_logits", recording_mlm_logits)
        log = train(config, params, patterned_corpus(10, sentence_len=6), vocab,
                    TrainConfig(peak_lr=1e-3, epochs=3, batch_size=4, warmup_steps=2))
        decoded = [(before, got) for before, got in zip(events, events[1:])
                   if got[0] == "decoded"]
        assert len(decoded) == len(log.entries) == 9
        for (kind, labelled), (_, shape) in decoded:
            assert kind == "labelled"
            assert shape == (labelled, config.hidden)

    def test_eval_matches_full_decode_oracle(self, vocab, trained_tiny):
        config, params, _, _, _ = trained_tiny
        texts = patterned_corpus(20, sentence_len=7)
        encodings = encode_corpus(texts, vocab, config.max_seq)
        rng = np.random.default_rng(5)
        nll = count = hits = 0
        for lo in range(0, len(encodings), 8):
            batch = encodings[lo:lo + 8]
            ids, mask, rows, targets = pretrain._batch_arrays(
                batch, [maskable_positions(e, vocab) for e in batch], vocab,
                MaskingPolicy(), rng)
            labels = label_matrix(ids, rows, targets)
            keep = labels != IGNORE_INDEX
            if not keep.any():
                continue
            n = int(keep.sum())
            nll += float(full_decode_loss(config, params, ids, mask, labels).data) * n
            count += n
            logits = mlm_logits(forward(ids, mask, config, params)[-1], params).data
            hits += int((logits.argmax(axis=-1)[keep] == labels[keep]).sum())
        assert 0 < hits < count
        assert perplexity(config, params, texts, vocab, seed=5, batch_size=8) == \
            pytest.approx(math.exp(nll / count), rel=1e-5)
        assert masked_token_accuracy(config, params, texts, vocab, seed=5,
                                     batch_size=8) == hits / count


class TestPerplexity:
    def test_fresh_model_near_vocab_size(self, vocab):
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(30, sentence_len=8)
        ppl = perplexity(config, params, texts, vocab, seed=0)
        v = len(vocab)
        assert abs(ppl - v) / v < 0.15

    def test_deterministic(self, vocab):
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(10, sentence_len=6)
        assert perplexity(config, params, texts, vocab, seed=4) == \
            perplexity(config, params, texts, vocab, seed=4)

    def test_empty_corpus_rejected(self, vocab):
        config, params = tiny_setup(vocab)
        with pytest.raises(ValueError, match="usable"):
            perplexity(config, params, [""], vocab)


class TestMaskedAccuracy:
    def test_untrained_accuracy_is_chance_level(self, vocab):
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(30, sentence_len=8)
        acc = masked_token_accuracy(config, params, texts, vocab, seed=0)
        assert 0.0 <= acc < 0.3

    def test_training_raises_accuracy(self, vocab, trained_tiny):
        config, params, texts, _, before = trained_tiny
        after = masked_token_accuracy(config, params, texts, vocab, seed=9)
        assert after > before + 0.2


class TestCorpusTokenCount:
    def test_counts_content_pieces_only(self, vocab):
        assert corpus_token_count(["alpha bravo", "charlie"], vocab) == 3

    def test_empty(self, vocab):
        assert corpus_token_count([], vocab) == 0


class TestDapt:
    def test_lr_must_drop(self, vocab):
        config, params = tiny_setup(vocab)
        base = TrainConfig(peak_lr=1e-4)
        same = TrainConfig(peak_lr=1e-4)
        higher = TrainConfig(peak_lr=2e-4)
        for bad in (same, higher):
            with pytest.raises(RegimenError, match="peak_lr"):
                dapt(config, params, ["alpha"], vocab, bad, base)

    def test_corpus_must_shrink_when_count_given(self, vocab):
        config, params = tiny_setup(vocab)
        base = TrainConfig(peak_lr=1e-4)
        smaller = TrainConfig(peak_lr=2e-5)
        with pytest.raises(RegimenError, match="smaller"):
            dapt(config, params, ["alpha bravo charlie"], vocab, smaller, base,
                 base_token_count=3)

    def test_zero_epoch_copy_equals_base(self, vocab):
        config, params = tiny_setup(vocab)
        base = TrainConfig(peak_lr=1e-4)
        adapted, log = dapt(config, params, ["alpha bravo"], vocab,
                            TrainConfig(peak_lr=2e-5, epochs=0), base)
        assert log.entries == []
        assert all(np.array_equal(adapted[k].data, params[k].data)
                   for k in params)
        assert all(adapted[k] is not params[k] for k in params)

    def test_base_params_never_mutated(self, vocab):
        config, params = tiny_setup(vocab)
        before = {k: t.data.copy() for k, t in params.items()}
        base = TrainConfig(peak_lr=1e-3)
        adapt_tc = TrainConfig(peak_lr=5e-4, epochs=4, batch_size=4,
                               warmup_steps=1, seed=1)
        adapted, log = dapt(config, params, patterned_corpus(8, 6), vocab,
                            adapt_tc, base, base_token_count=4000)
        assert all(np.array_equal(before[k], params[k].data) for k in params)
        assert log.entries
        assert any(not np.array_equal(adapted[k].data, params[k].data)
                   for k in params)
