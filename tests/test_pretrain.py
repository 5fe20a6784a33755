"""MLM masking recipe, training loop behavior, and the adaptation regimen."""

import math

import numpy as np
import pytest

from daptlab import pretrain
from daptlab.autodiff import IGNORE_INDEX
from daptlab.model import ModelConfig, init_params
from daptlab.pretrain import (MaskingPolicy, RegimenError, TrainConfig,
                              TrainingDiverged, apply_masking,
                              corpus_token_count, dapt, encode_corpus,
                              masked_token_accuracy, perplexity, train)
from daptlab.synth import PATTERN_WORDS, patterned_corpus
from daptlab.tokenizer import SPECIAL_TOKENS, Vocab, encode


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
        assert log.entries == [] and log.epoch_ends == []
        assert all(np.array_equal(before[k], params[k].data) for k in params)

    def test_step_count_and_epoch_ends(self, vocab):
        config, params = tiny_setup(vocab)
        texts = patterned_corpus(10, sentence_len=6)
        tc = TrainConfig(peak_lr=1e-3, epochs=3, batch_size=4, warmup_steps=2,
                         seed=0)
        log = train(config, params, texts, vocab, tc)
        assert len(log.entries) == 3 * math.ceil(10 / 4)
        assert [s for s, _ in log.entries] == list(range(1, 10))
        assert log.epoch_ends == [3, 6, 9]

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

    def test_loss_log_render(self):
        from daptlab.pretrain import LossLog
        log = LossLog(entries=[(1, 3.5), (2, 3.25)], epoch_ends=[2])
        assert log.render() == "step\tloss\n1\t3.500000\n2\t3.250000\n"


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
