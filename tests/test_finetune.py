"""Fine-tuning protocol: metrics vs oracles, datasets, 5-seed reporting."""

import dataclasses
import math

import numpy as np
import pytest

from daptlab import finetune, pretrain
from daptlab.autodiff import (IGNORE_INDEX, Tape, Tensor, backward, cross_entropy_masked,
                              matmul, reshape, select_position)
from daptlab.finetune import (FinetuneConfig, LabeledTextDataset, RunReport,
                              TaggedTokenDataset, aggregate, classification_f1,
                              f1_binary, finetune_classify, finetune_tag,
                              format_mean_std, iob_spans, span_f1, token_f1)
from daptlab.model import ModelConfig, forward, init_params, pad_batch
from daptlab.optim import LrSchedule, lr_at_step
from daptlab.pretrain import TrainingDiverged
from daptlab.synth import classification_records, tagging_records
from daptlab.tokenizer import encode, encode_words, train_vocab
from helpers import (grad_check, oracle_binary_f1, oracle_span_f1, oracle_spans,
                     random_iob_case)


class TestBinaryF1:
    def test_perfect(self):
        assert f1_binary(["y", "n", "y"], ["y", "n", "y"], "y") == 1.0

    def test_hand_computed(self):
        # tp=2 fp=1 fn=1 -> precision=recall=2/3 -> f1=2/3
        pred = ["y", "y", "y", "n", "n"]
        gold = ["y", "y", "n", "y", "n"]
        assert f1_binary(pred, gold, "y") == pytest.approx(2 / 3)

    def test_undefined_is_zero(self):
        assert f1_binary(["n", "n"], ["n", "n"], "y") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="count"):
            f1_binary(["y"], ["y", "n"], "y")

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            pred = ["pos" if rng.random() < 0.5 else "neg" for _ in range(n)]
            gold = ["pos" if rng.random() < 0.5 else "neg" for _ in range(n)]
            assert f1_binary(pred, gold, "pos") == pytest.approx(
                oracle_binary_f1(pred, gold, "pos"), abs=1e-12)


class TestClassificationF1:
    def test_binary_uses_positive_label(self):
        pred, gold = ["a", "b", "b"], ["a", "b", "a"]
        assert classification_f1(pred, gold, ("a", "b"), positive_label="a") == \
            pytest.approx(f1_binary(pred, gold, "a"))
        # default positive class is the second label
        assert classification_f1(pred, gold, ("a", "b")) == \
            pytest.approx(f1_binary(pred, gold, "b"))

    def test_macro_average(self):
        pred = ["a", "b", "c", "a"]
        gold = ["a", "c", "c", "b"]
        expected = sum(f1_binary(pred, gold, l) for l in "abc") / 3
        assert classification_f1(pred, gold, ("a", "b", "c")) == pytest.approx(expected)


class TestIobSpans:
    def test_basic_extraction(self):
        tags = ["B-X", "I-X", "O", "B-Y", "B-X"]
        assert iob_spans(tags) == {(0, 1, "X"), (3, 3, "Y"), (4, 4, "X")}

    def test_trailing_span_closes(self):
        assert iob_spans(["O", "B-X", "I-X"]) == {(1, 2, "X")}

    def test_adjacent_b_tags_split(self):
        assert iob_spans(["B-X", "B-X"]) == {(0, 0, "X"), (1, 1, "X")}

    def test_orphan_continuation_strict(self):
        with pytest.raises(ValueError, match="invalid IOB"):
            iob_spans(["O", "I-X"])
        with pytest.raises(ValueError, match="invalid IOB"):
            iob_spans(["B-X", "I-Y"])

    def test_orphan_continuation_repaired(self):
        assert iob_spans(["O", "I-X", "I-X"], repair=True) == {(1, 2, "X")}
        assert iob_spans(["B-X", "I-Y"], repair=True) == {(0, 0, "X"), (1, 1, "Y")}

    def test_malformed_tag(self):
        with pytest.raises(ValueError, match="malformed"):
            iob_spans(["B-X", "SHOUT"])

    def test_matches_scanning_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            pred, gold = random_iob_case(rng)
            assert iob_spans(pred, repair=True) == oracle_spans(pred, repair=True)
            assert iob_spans(gold) == oracle_spans(gold)


class TestSpanF1:
    def test_hand_computed(self):
        gold = ["B-X", "I-X", "O", "B-Y"]
        pred = ["B-X", "I-X", "O", "O"]  # tp=1 fp=0 fn=1
        assert span_f1([pred], [gold]) == pytest.approx(2 / 3)

    def test_partial_span_does_not_count(self):
        gold = ["B-X", "I-X", "I-X"]
        pred = ["B-X", "I-X", "O"]  # boundary wrong: tp=0 fp=1 fn=1
        assert span_f1([pred], [gold]) == 0.0

    def test_batch_of_sequences(self):
        gold = [["B-X"], ["O", "B-Y"]]
        pred = [["B-X"], ["O", "O"]]
        assert span_f1(pred, gold) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            span_f1([["B-X", "O"]], [["B-X"]])

    @pytest.mark.parametrize("metric", [span_f1, token_f1])
    def test_single_sequence_rejected(self, metric):
        # a bare sequence would otherwise be read as strings of characters
        with pytest.raises(ValueError, match="lists of tag sequences"):
            metric(["B-X", "O"], ["B-Y", "O"])

    def test_matches_span_set_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            cases = [random_iob_case(rng) for _ in range(int(rng.integers(1, 5)))]
            preds = [p for p, _ in cases]
            golds = [g for _, g in cases]
            assert span_f1(preds, golds) == pytest.approx(
                oracle_span_f1(preds, golds), abs=1e-12)


class TestTokenF1:
    def test_hand_computed(self):
        gold = ["B-X", "I-X", "O", "B-Y"]
        pred = ["B-X", "O", "O", "B-Y"]  # tp=2 fp=0 fn=1
        assert token_f1([pred], [gold]) == pytest.approx(0.8)

    def test_o_agreement_not_rewarded(self):
        assert token_f1([["O", "O"]], [["O", "O"]]) == 0.0


class TestAggregate:
    def test_mean_and_sample_std(self):
        mean, std = aggregate([0.8, 0.9, 0.9, 0.9, 1.0])
        assert mean == pytest.approx(0.9)
        assert std == pytest.approx(math.sqrt(0.005))

    def test_exactly_five_runs(self):
        with pytest.raises(ValueError, match="5 runs"):
            aggregate([0.9, 0.9, 0.9, 0.9])
        with pytest.raises(ValueError, match="5 runs"):
            aggregate([0.9] * 6)

    def test_finite_only(self):
        with pytest.raises(ValueError, match="finite"):
            aggregate([0.9, 0.9, float("nan"), 0.9, 0.9])

    def test_format(self):
        assert format_mean_std(0.88693, 0.00256) == "0.8869 (0.0026)"
        assert format_mean_std(0.9, math.sqrt(0.005)) == "0.9000 (0.0707)"


class TestRunReport:
    def test_from_values(self):
        rep = RunReport.from_values("cls", "base", "f1", [0.8, 0.9, 0.9, 0.9, 1.0])
        assert rep.mean == pytest.approx(0.9)
        assert rep.formatted == "0.9000 (0.0707)"

    def test_render_row(self):
        rep = RunReport.from_values("cls", "base", "f1", [0.9] * 5)
        lines = rep.render().splitlines()
        assert lines[0].split("\t") == ["task", "model", "metric", "mean", "std",
                                        "formatted", "values", "secondary_metric",
                                        "secondary_formatted"]
        row = lines[1].split("\t")
        assert row[:3] == ["cls", "base", "f1"]
        assert row[5] == "0.9000 (0.0000)"
        assert row[6] == ",".join(["0.900000"] * 5)
        assert row[7:] == ["-", "-"]

    def test_render_secondary(self):
        rep = RunReport.from_values("tag", "base", "span_f1", [0.9] * 5,
                                    secondary_metric="token_f1",
                                    secondary_values=[0.8] * 5)
        row = rep.render().splitlines()[1].split("\t")
        assert row[7] == "token_f1"
        assert row[8] == "0.8000 (0.0000)"


class TestLabeledTextDataset:
    def records(self, n=20):
        return classification_records(n, seed=0)

    def test_ratio_split_sizes(self):
        data = LabeledTextDataset.from_records(self.records(20), seed=0)
        assert (len(data.train), len(data.dev), len(data.test)) == (16, 2, 2)

    def test_split_field_routing(self):
        records = [{"text": f"t{i}", "label": "a", "split": s}
                   for i, s in enumerate(["train", "train", "dev", "test"])]
        data = LabeledTextDataset.from_records(records)
        assert [t for t, _ in data.train] == ["t0", "t1"]
        assert [t for t, _ in data.dev] == ["t2"]

    def test_bad_split_name(self):
        records = [{"text": "x", "label": "a", "split": "validation"}]
        with pytest.raises(ValueError, match="split"):
            LabeledTextDataset.from_records(records)

    def test_labels_inferred_sorted(self):
        data = LabeledTextDataset.from_records(self.records(20), seed=0)
        assert data.labels == ("irrelevant", "relevant")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            LabeledTextDataset(train=[("x", "weird")], dev=[("y", "a")],
                               test=[("z", "a")], labels=("a", "b"))

    def test_positive_label_must_exist(self):
        with pytest.raises(ValueError, match="positive_label"):
            LabeledTextDataset(train=[("x", "a")], dev=[("y", "a")],
                               test=[("z", "a")], labels=("a", "b"),
                               positive_label="c")

    def test_split_leakage_rejected(self):
        with pytest.raises(ValueError, match="both"):
            LabeledTextDataset(train=[("same", "a")], dev=[("same", "a")],
                               test=[("z", "a")], labels=("a",))

    def test_record_fields_validated(self):
        with pytest.raises(ValueError, match="string text"):
            LabeledTextDataset.from_records([{"text": 3, "label": "a"}])

    def test_split_deterministic(self):
        a = LabeledTextDataset.from_records(self.records(30), seed=4)
        b = LabeledTextDataset.from_records(self.records(30), seed=4)
        assert a.train == b.train and a.test == b.test


class TestTaggedTokenDataset:
    def test_from_records_infers_tags(self):
        data = TaggedTokenDataset.from_records(tagging_records(20, seed=0), seed=0)
        assert "O" in data.tags and data.tags == tuple(sorted(data.tags))

    @pytest.mark.parametrize("record", [
        {"words": ["a"], "tags": ["O"]},
        {"tokens": "a", "tags": ["O"]},
        {"tokens": ["a"], "tags": [1]},
    ], ids=["missing", "not-a-list", "not-strings"])
    def test_record_fields_validated(self, record):
        with pytest.raises(ValueError, match="record 1 needs tokens and tags"):
            TaggedTokenDataset.from_records([{"tokens": ["b"], "tags": ["O"]}, record])

    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="misaligned"):
            TaggedTokenDataset(train=[(["a", "b"], ["O"])], dev=[(["c"], ["O"])],
                               test=[(["d"], ["O"])], tags=("O",))

    def test_gold_iob_validated(self):
        with pytest.raises(ValueError, match="invalid IOB"):
            TaggedTokenDataset(train=[(["a", "b"], ["O", "I-X"])],
                               dev=[(["c"], ["O"])], test=[(["d"], ["O"])],
                               tags=("B-X", "I-X", "O"))

    def test_tag_set_needs_o(self):
        with pytest.raises(ValueError, match="'O'"):
            TaggedTokenDataset(train=[(["a"], ["B-X"])], dev=[(["b"], ["B-X"])],
                               test=[(["c"], ["B-X"])], tags=("B-X",))


class TestFinetuneConfig:
    def test_defaults_are_reference_values(self):
        ft = FinetuneConfig()
        assert (ft.lr, ft.epochs, ft.batch_size, ft.weight_decay) == \
            (2e-5, 4, 16, 0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="lr"):
            FinetuneConfig(lr=0.0)
        with pytest.raises(ValueError, match="epochs"):
            FinetuneConfig(epochs=0)


@pytest.fixture(scope="module")
def classify_setup():
    records = classification_records(60, seed=5)
    vocab = train_vocab([r["text"] for r in records], target_size=250,
                        min_frequency=1)
    config = ModelConfig(num_layers=1, hidden=16, num_heads=2, ffn_dim=32,
                         vocab_size=len(vocab), max_seq=32, dropout=0.0)
    params = init_params(config, 0)
    data = LabeledTextDataset.from_records(records, seed=1,
                                           positive_label="relevant")
    return config, params, vocab, data


class TestFinetuneClassify:
    def test_report_structure_and_determinism(self, classify_setup):
        config, params, vocab, data = classify_setup
        ft = FinetuneConfig(lr=2e-3, epochs=2, batch_size=16)
        reports = [finetune_classify(config, params, vocab, data,
                                     seeds=(0, 1, 2, 3, 4), ft_config=ft,
                                     task="cls", model_name="tiny")
                   for _ in range(2)]
        rep = reports[0]
        assert rep.task == "cls" and rep.model == "tiny" and rep.metric == "f1"
        assert len(rep.values) == 5
        assert all(0.0 <= v <= 1.0 for v in rep.values)
        assert reports[0] == reports[1]

    def test_base_params_unchanged(self, classify_setup):
        config, params, vocab, data = classify_setup
        before = {k: t.data.copy() for k, t in params.items()}
        ft = FinetuneConfig(lr=2e-3, epochs=1, batch_size=16)
        finetune_classify(config, params, vocab, data, seeds=(0, 1, 2, 3, 4),
                          ft_config=ft)
        assert all(np.array_equal(before[k], params[k].data) for k in params)

    def test_degenerate_train_warns(self, classify_setup):
        config, params, vocab, _ = classify_setup
        data = LabeledTextDataset(
            train=[("aa bb", "relevant"), ("cc dd", "relevant")],
            dev=[("ee ff", "irrelevant")], test=[("gg hh", "relevant")],
            labels=("irrelevant", "relevant"))
        ft = FinetuneConfig(lr=1e-3, epochs=1, batch_size=2)
        with pytest.warns(UserWarning, match="cannot learn"):
            finetune_classify(config, params, vocab, data, seeds=(0, 1, 2, 3, 4),
                              ft_config=ft)


class TestFinetuneDivergence:
    """A diverged seed stops the protocol with TrainingDiverged, as pretraining does."""

    SEEDS = (0, 1, 2, 3, 4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_with_log(self, classify_setup):
        config, params, vocab, data = classify_setup
        before = {k: t.data.copy() for k, t in params.items()}
        with pytest.raises(TrainingDiverged) as info:
            finetune_classify(config, params, vocab, data, self.SEEDS,
                              ft_config=FinetuneConfig(lr=1e12, epochs=2, batch_size=16))
        err = info.value
        assert str(err).startswith("seed 0: non-finite loss")
        assert err.step == len(err.loss_log.entries) + 1
        assert all(math.isfinite(loss) for _, loss in err.loss_log.entries)
        assert all(np.array_equal(before[k], params[k].data) for k in params)

    def test_non_finite_gradient_raises_through_pretrain_bindings(self, classify_setup,
                                                                  monkeypatch):
        # the loss stays finite; backward, looked up in pretrain, poisons the head
        config, params, vocab, data = classify_setup
        heads = []
        real_matmul, real_backward = finetune.matmul, pretrain.backward

        def recording_matmul(a, b, tape=None, **kwargs):  # only the head's matmul
            heads.append(b)
            return real_matmul(a, b, tape, **kwargs)

        def poisoned_backward(tape, loss):
            real_backward(tape, loss)
            heads[-1].grad[0, 0] = np.nan

        monkeypatch.setattr(finetune, "matmul", recording_matmul)
        monkeypatch.setattr(pretrain, "backward", poisoned_backward)
        with pytest.raises(TrainingDiverged) as info:
            finetune_classify(config, params, vocab, data, self.SEEDS,
                              ft_config=FinetuneConfig(lr=1e-3, epochs=1, batch_size=16))
        err = info.value
        assert str(err).startswith("seed 0: non-finite gradient for 'head.w' at step 1")
        assert err.step == 1 and [step for step, _ in err.loss_log.entries] == [1]


@pytest.fixture(scope="module")
def tag_setup():
    records = tagging_records(40, seed=6)
    vocab = train_vocab([" ".join(r["tokens"]) for r in records],
                        target_size=250, min_frequency=1)
    config = ModelConfig(num_layers=1, hidden=16, num_heads=2, ffn_dim=32,
                         vocab_size=len(vocab), max_seq=32, dropout=0.0)
    params = init_params(config, 0)
    data = TaggedTokenDataset.from_records(records, seed=2)
    return config, params, vocab, data


class TestFinetuneTag:
    def test_report_has_secondary_metric(self, tag_setup):
        config, params, vocab, data = tag_setup
        ft = FinetuneConfig(lr=2e-3, epochs=2, batch_size=16)
        rep = finetune_tag(config, params, vocab, data, seeds=(0, 1, 2, 3, 4),
                           ft_config=ft, task="tag", model_name="tiny")
        assert rep.metric == "span_f1"
        assert rep.secondary_metric == "token_f1"
        assert len(rep.values) == 5 and len(rep.secondary_values) == 5
        assert all(0.0 <= v <= 1.0 for v in rep.values + rep.secondary_values)

    def test_predictions_cover_every_word(self, tag_setup):
        # truncated words fall back to O, keeping pred/gold aligned, so
        # span_f1 never raises on a length mismatch
        config, _, vocab, data = tag_setup
        config = dataclasses.replace(config, max_seq=8)
        assert any(len(encode_words(tokens, vocab, 64).ids) > config.max_seq
                   for tokens, _ in data.test)
        ft = FinetuneConfig(lr=1e-3, epochs=1, batch_size=16)
        rep = finetune_tag(config, init_params(config, 0), vocab, data,
                           seeds=(0, 1, 2, 3, 4), ft_config=ft)
        assert len(rep.values) == 5


@pytest.mark.parametrize("task", ["classify", "tag"])
class TestProtocolChecks:
    """Input checks both fine-tune tasks make before any training."""

    @pytest.fixture
    def setup(self, request, task):
        config, params, vocab, data = request.getfixturevalue(f"{task}_setup")
        run = finetune_classify if task == "classify" else finetune_tag
        return run, config, params, vocab, data

    def test_five_distinct_seeds_required(self, setup):
        run, config, params, vocab, data = setup
        for seeds in ((0, 1, 2, 3), (0, 0, 1, 2, 3)):
            with pytest.raises(ValueError, match="5 distinct"):
                run(config, params, vocab, data, seeds)

    @pytest.mark.parametrize("split", ["train", "dev", "test"])
    def test_empty_split_rejected(self, setup, split):
        # the split checks run first: an empty train split must not reach the
        # degenerate-label warning, which reads its first label
        run, config, params, vocab, data = setup
        data = dataclasses.replace(data, **{split: []})
        with pytest.raises(ValueError, match=f"{split} split is empty"):
            run(config, params, vocab, data, seeds=(0, 1, 2, 3, 4))


class TestSeedProtocol:
    """The per-seed loop of ``_run_seeds``: which training items each step sees
    (head, then one permutation per epoch, then the dropout draws inside
    ``batch_loss``, all from the seed's rng) and the dev-best selection."""

    # Recorded before _run_seeds trained through pretrain.fit; integers, so
    # the record holds on every platform.
    BATCHES = {
        0: [[2, 1, 3], [6, 0, 4], [5], [1, 2, 6], [0, 4, 3], [5], [2, 6, 5],
            [0, 1, 4], [3]],
        1: [[3, 0, 1], [4, 5, 6], [2], [0, 5, 3], [1, 6, 2], [4], [5, 2, 3],
            [0, 4, 6], [1]],
    }

    CONFIG = ModelConfig(num_layers=1, hidden=4, num_heads=2, ffn_dim=8, vocab_size=16,
                         max_seq=8)

    @classmethod
    def head_loss(cls, batch, work, tape, rng):
        # stands in for the encoder: consumes the rng as dropout would
        x = Tensor(rng.standard_normal((len(batch), cls.CONFIG.hidden), dtype=np.float32))
        logits = matmul(x, work["head.w"], tape, bias=work["head.b"])
        return cross_entropy_masked(logits, np.array(batch) % 2, tape)

    def test_batches_and_dev_best_weights_pinned(self):
        params = {"w": Tensor(np.ones(3, dtype=np.float32))}
        ft = FinetuneConfig(lr=1e-2, epochs=3, batch_size=3)
        batches, weights, buffers, dev_f1 = [], [], [], []

        def batch_loss(batch, work, tape, rng):
            batches.append([int(i) for i in batch])
            return self.head_loss(batch, work, tape, rng)

        def score(items, work):
            weights.append({k: t.data.copy() for k, t in work.items()})
            buffers.append(work["head.w"].data.base)
            return (dev_f1.pop(0) if items == "dev" else 0.0,)

        for seed, want in self.BATCHES.items():
            batches.clear()
            weights.clear()
            buffers.clear()
            dev_f1[:] = [0.2, 0.9, 0.5]
            finetune._run_seeds(self.CONFIG, params, [seed], ft, 2, list(range(7)),
                                batch_loss, score, "dev", "test")
            assert batches == want
            assert len(weights) == 4 and dev_f1 == []
            epoch2, epoch3, tested = weights[1], weights[2], weights[3]
            assert all(np.array_equal(tested[k], epoch2[k]) for k in epoch2)
            assert not np.array_equal(epoch3["head.w"], epoch2["head.w"])
            # the dev-best weights are written back into the training state's
            # buffer, which the test split then reads
            dev_buffers, tested_buffer = buffers[:3], buffers[3]
            assert tested_buffer is not None
            assert all(buf is tested_buffer for buf in dev_buffers)

    def test_learning_rates_pinned(self, monkeypatch):
        # warmup over a tenth of the steps, then linear decay; the one step of
        # a one-step run takes the configured rate exactly
        params = {"w": Tensor(np.ones(3, dtype=np.float32))}
        lrs, real_step = [], pretrain.adam_step

        def recording_step(state, lr, *args):
            lrs.append(lr)
            real_step(state, lr, *args)

        def run_lrs(ft, n_train):
            lrs.clear()
            finetune._run_seeds(self.CONFIG, params, [0], ft, 2, list(range(n_train)),
                                self.head_loss, lambda items, work: (0.5,), "dev", "test")
            return list(lrs)

        monkeypatch.setattr(pretrain, "adam_step", recording_step)
        one_step = FinetuneConfig(lr=1e-2, epochs=1, batch_size=3)
        assert run_lrs(one_step, 3) == [one_step.lr]
        ten_steps = FinetuneConfig(lr=1e-2, epochs=2, batch_size=2)
        schedule = LrSchedule(ten_steps.lr, 1, 10)
        assert run_lrs(ten_steps, 10) == [lr_at_step(schedule, k) for k in range(1, 11)]


def full_sequence_hidden(examples, vocab, config, work, tape):
    """Oracle input: the last layer on every position of the padded batch."""
    ids, mask, _ = pad_batch([enc.ids for enc, _, _ in examples], [[]] * len(examples),
                             vocab.pad_id)
    return forward(ids, mask, config, work, tape=tape)[-1]


def oracle_head_loss(head_in, gold, work, tape):
    logits = matmul(head_in, work["head.w"], tape, bias=work["head.b"])
    return cross_entropy_masked(logits, gold, tape)


class TestListedPositionsOnly:
    """Both fine-tunes run the last layer past attention on the positions their
    head reads; in float64 that matches the head on every position."""

    TAGS = ("B-SOFT", "I-SOFT", "O")
    # "vendors", "fuzzingaudit" and "audited" are several pieces each; the
    # second record is longer than MAX_SEQ, so its last words are cut
    RECORDS = [
        (["vendors", "audited", "with"], ["O", "B-SOFT", "O"]),
        (["during", "vendors", "fuzzingaudit", "dataforge", "4", "audited", "update",
          "vendor", "notice"],
         ["O", "O", "B-SOFT", "I-SOFT", "I-SOFT", "O", "O", "B-SOFT", "O"]),
        (["dataforge", "4"], ["B-SOFT", "I-SOFT"]),
    ]
    MAX_SEQ = 12

    @staticmethod
    def float64_work(vocab, n_out, max_seq):
        config = ModelConfig(num_layers=2, hidden=8, num_heads=2, ffn_dim=16,
                             vocab_size=len(vocab), max_seq=max_seq, dropout=0.0)
        rng = np.random.default_rng(3)
        work = {name: Tensor(t.data.astype(np.float64))
                for name, t in init_params(config, 0).items()}
        work["head.w"] = Tensor(rng.standard_normal((config.hidden, n_out)))
        work["head.b"] = Tensor(rng.standard_normal(n_out))
        return config, work

    def classified(self, vocab):
        """(vocab, config, work, examples, oracle): the head on [CLS] through
        select_position."""
        config, work = self.float64_work(vocab, 2, 32)
        texts = ["the dropper of worm and worm", "of attachment", "subnet with router"]
        examples = [(encode(text, vocab, config.max_seq), [0], [i % 2])
                    for i, text in enumerate(texts)]

        def oracle(tape):
            hidden = full_sequence_hidden(examples, vocab, config, work, tape)
            return oracle_head_loss(select_position(hidden, 0, tape),
                                    np.array([0, 1, 0]), work, tape)
        return vocab, config, work, examples, oracle

    def tagged(self, vocab):
        """(vocab, config, work, examples, oracle): the head on every piece,
        with IGNORE_INDEX off each word's first piece."""
        config, work = self.float64_work(vocab, len(self.TAGS), self.MAX_SEQ)
        tag_ids = {tag: i for i, tag in enumerate(self.TAGS)}
        examples = finetune._tagged_examples(self.RECORDS, vocab, self.MAX_SEQ, tag_ids)
        spans = [enc.word_spans for enc, _, _ in examples]
        assert len(spans[1]) < len(self.RECORDS[1][0])  # truncated
        assert any(stop - start >= 2 for kept in spans for start, stop in kept)
        labels = np.full((len(examples), max(len(enc.ids) for enc, _, _ in examples)),
                         IGNORE_INDEX)
        for b, ((enc, _, _), (_, tags)) in enumerate(zip(examples, self.RECORDS)):
            for (start, _), tag in zip(enc.word_spans, tags):
                labels[b, start] = tag_ids[tag]

        def oracle(tape):
            hidden = full_sequence_hidden(examples, vocab, config, work, tape)
            return oracle_head_loss(reshape(hidden, (labels.size, config.hidden), tape),
                                    labels.reshape(-1), work, tape)
        return vocab, config, work, examples, oracle

    def test_loss_and_gradients_match_full_sequence_oracle(self, classify_setup,
                                                           tag_setup):
        for task, (vocab, config, work, examples, oracle) in (
                ("classify", self.classified(classify_setup[2])),
                ("tag", self.tagged(tag_setup[2]))):
            results = []
            for loss_fn in (lambda tape: finetune._head_loss(vocab, config)(
                                examples, work, tape, None),
                            oracle):
                for t in work.values():
                    t.grad = None
                tape = Tape()
                loss = loss_fn(tape)
                backward(tape, loss)
                results.append((float(loss.data), {name: t.grad for name, t in work.items()}))
            (got_loss, got), (want_loss, want) = results
            assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0.0), task
            for name in work:
                if want[name] is None:  # the MLM head
                    assert got[name] is None, (task, name)
                else:
                    np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                               atol=1e-15, err_msg=f"{task} {name}")

    def test_loss_matches_finite_differences(self, classify_setup, tag_setup):
        for vocab, config, work, examples, _ in (self.classified(classify_setup[2]),
                                                  self.tagged(tag_setup[2])):
            checked = [work[name] for name in ("head.w", "head.b", "layer1.attn.wo",
                                               "layer1.ffn.w2", "layer0.attn.wq")]
            grad_check(checked, lambda tape: finetune._head_loss(vocab, config)(
                examples, work, tape, None))
