"""Acceptance gate: every release property checked end to end, one verdict
line per criterion (collected into the terminal summary).

The expensive trained-model setups live in conftest as session fixtures;
everything here either asserts on those or builds its own small fixture.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from daptlab import cli
from daptlab.autodiff import Tensor, cross_entropy_masked, gather_rows
from daptlab.corpus import Document, compute_stats, dedupe, keeps
from daptlab.evaluate import (SIMILAR, DISSIMILAR, SimilarityPair, cluster_eval,
                              evaluate_pairs, render_cloze, silhouette)
from daptlab.finetune import (FinetuneConfig, LabeledTextDataset, f1_binary,
                              finetune_classify, span_f1)
from daptlab.model import ModelConfig, forward, init_params, mlm_logits, pad_batch
from daptlab.pretrain import (MaskingPolicy, RegimenError, apply_masking, dapt,
                              encode_corpus, masked_token_accuracy, perplexity)
from daptlab.synth import PATTERN_WORDS, classification_records, patterned_corpus
from daptlab.tokenizer import CLS, MASK, SEP, SPECIAL_TOKENS, Vocab, encode

from conftest import ACCEPTANCE_LINES
from helpers import (grad_check, oracle_binary_f1, oracle_silhouette,
                     oracle_span_f1, random_iob_case)


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_gradient_correctness():
    vocab = Vocab(SPECIAL_TOKENS + PATTERN_WORDS)
    config = ModelConfig(num_layers=2, hidden=32, num_heads=4, ffn_dim=64,
                         vocab_size=len(vocab), max_seq=12, dropout=0.0)
    params = {name: Tensor(t.data.astype(np.float64))
              for name, t in init_params(config, seed=0).items()}

    texts = [" ".join(PATTERN_WORDS[:9]), " ".join(PATTERN_WORDS[9:14])]
    encodings = encode_corpus(texts, vocab, config.max_seq)
    policy = MaskingPolicy(select_prob=0.3)
    rng = np.random.default_rng(3)
    masked = [apply_masking(enc, vocab, policy, rng) for enc in encodings]
    positions = [pos for _, pos in masked]
    ids, mask, rows = pad_batch([got for got, _ in masked], positions, vocab.pad_id)
    targets = np.concatenate([np.asarray(enc.ids)[pos]
                              for enc, pos in zip(encodings, positions)])
    assert rows.size >= 4, "unlucky masking draw"

    def mlm_loss(tape):
        hidden = forward(ids, mask, config, params, tape=tape)
        logits = mlm_logits(hidden[-1], params, tape)
        return cross_entropy_masked(gather_rows(logits, rows, tape), targets, tape)

    started = time.perf_counter()
    worst = grad_check(list(params.values()), mlm_loss, tol=1e-3)
    seconds = time.perf_counter() - started
    verdict(1, worst < 1e-3 and seconds < 60.0,
            f"max rel error {worst:.2e} over {len(params)} tensors "
            f"in {seconds:.0f}s")


def test_criterion_2_masking_statistics():
    words = tuple(a + b for a in "abcdefghijklmnop" for b in "abcdefghijklm")[:200]
    vocab = Vocab(SPECIAL_TOKENS + words)
    enc = encode(" ".join(words), vocab, max_seq=256)
    policy = MaskingPolicy()
    rng = np.random.default_rng(0)
    original = np.asarray(enc.ids)
    special = np.isin(original, sorted(vocab.special_ids))

    candidates = selected = masked = randomized = kept = 0
    special_corruptions = 0
    for _ in range(600):
        corrupted, chosen = apply_masking(enc, vocab, policy, rng)
        special_corruptions += int((corrupted[special] != original[special]).sum())
        special_corruptions += int(special[chosen].sum())
        candidates += int((~special).sum())
        selected += chosen.size
        masked += int((corrupted[chosen] == vocab.mask_id).sum())
        kept += int((corrupted[chosen] == original[chosen]).sum())
        randomized += int(((corrupted[chosen] != vocab.mask_id)
                           & (corrupted[chosen] != original[chosen])).sum())

    select_rate = selected / candidates
    mask_rate = masked / selected
    random_rate = randomized / selected
    keep_rate = kept / selected
    ok = (candidates >= 100_000
          and abs(select_rate - 0.15) <= 0.01
          and abs(mask_rate - 0.80) <= 0.02
          and abs(random_rate - 0.10) <= 0.02
          and abs(keep_rate - 0.10) <= 0.02
          and special_corruptions == 0)
    verdict(2, ok,
            f"{candidates} candidates: select {select_rate:.3f}, "
            f"mask/random/keep {mask_rate:.3f}/{random_rate:.3f}/{keep_rate:.3f}, "
            f"{special_corruptions} special corruptions")


def test_criterion_3_training_sanity(patterned_run):
    run = patterned_run
    initial = run.log.entries[0][1]
    final = run.log.entries[-1][1]
    ln_v = math.log(run.config.vocab_size)
    accuracy = masked_token_accuracy(run.config, run.params, run.texts,
                                     run.vocab, seed=99)
    ok = (abs(initial - ln_v) <= 0.10 * ln_v
          and final < 0.5 * initial
          and accuracy > 0.9
          and run.seconds < 600.0)
    verdict(3, ok,
            f"init {initial:.3f} (ln V {ln_v:.3f}), final {final:.3f}, "
            f"held-out acc {accuracy:.3f}, {run.seconds:.0f}s")


def test_criterion_4_adaptation_effect(dapt_setup):
    s = dapt_setup
    results = []
    for seed in (7, 8):
        g_base = perplexity(s.config, s.base, s.general_held, s.vocab, seed=seed)
        d_base = perplexity(s.config, s.base, s.domain_held, s.vocab, seed=seed)
        g_adapt = perplexity(s.config, s.adapted, s.general_held, s.vocab, seed=seed)
        d_adapt = perplexity(s.config, s.adapted, s.domain_held, s.vocab, seed=seed)
        g_ctrl = perplexity(s.config, s.control, s.general_held, s.vocab, seed=seed)
        results.append((1.0 - d_adapt / d_base,   # domain improvement
                        g_adapt / g_base - 1.0,   # general degradation
                        g_ctrl / g_base - 1.0))   # control degradation
    ok = all(gain >= 0.20 and drop <= 0.25 and ctrl > drop
             for gain, drop, ctrl in results)
    # the guard itself must refuse the control regimen (same lr as base)
    with pytest.raises(RegimenError):
        dapt(s.config, s.base, s.domain, s.vocab, s.base_config, s.base_config)
    detail = "; ".join(f"domain {gain:+.1%}, general {drop:+.1%}, "
                       f"control {ctrl:+.1%}" for gain, drop, ctrl in results)
    verdict(4, ok, detail)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(0)

    worst_sil = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 201))
        d = int(rng.integers(1, 17))
        k = int(rng.integers(2, 7))
        points = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        labels[:2] = [0, 1]
        if rng.random() < 0.5:  # sometimes give clusters real structure
            points += 2.0 * rng.standard_normal((k, d))[labels]
        worst_sil = max(worst_sil, abs(silhouette(points, labels)
                                       - oracle_silhouette(points, labels)))

    worst_binary = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        gold = [("rel", "irr")[int(rng.integers(2))] for _ in range(n)]
        pred = [("rel", "irr")[int(rng.integers(2))] for _ in range(n)]
        worst_binary = max(worst_binary, abs(f1_binary(pred, gold, "rel")
                                             - oracle_binary_f1(pred, gold, "rel")))

    worst_span = 0.0
    for _ in range(1000):
        cases = [random_iob_case(rng) for _ in range(int(rng.integers(1, 5)))]
        preds = [p for p, _ in cases]
        golds = [g for _, g in cases]
        worst_span = max(worst_span, abs(span_f1(preds, golds)
                                         - oracle_span_f1(preds, golds)))

    hand = silhouette([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
    ok = (worst_sil <= 1e-9 and worst_binary <= 1e-12 and worst_span <= 1e-12
          and abs(hand - 0.899749) <= 1e-6)
    verdict(5, ok,
            f"silhouette dev {worst_sil:.1e}, binary F1 dev {worst_binary:.1e}, "
            f"span F1 dev {worst_span:.1e}, hand example {hand:.6f}")


def test_criterion_6_clustering_protocol(pairing_dapt):
    s = pairing_dapt
    adapted_run = cluster_eval(s.config, s.adapted, s.vocab, s.held,
                               k_values=[5], seed=0)[0]
    random_params = init_params(s.config, seed=123)
    random_run = cluster_eval(s.config, random_params, s.vocab, s.held,
                              k_values=[5], seed=0)[0]
    ok = adapted_run.silhouette > random_run.silhouette
    verdict(6, ok,
            f"k=5 silhouette adapted {adapted_run.silhouette:.4f} "
            f"vs random init {random_run.silhouette:.4f}")


def test_criterion_7_cloze_protocol():
    vocab = Vocab(SPECIAL_TOKENS + ("are", "and", "similar", "?", "yes", "no",
                                    "virus", "malware"))
    enc, mask_pos = render_cloze("virus", "malware", vocab, max_seq=16)
    template_ok = ([vocab.pieces[i] for i in enc.ids] == [CLS, "are", "virus", "and",
                                                         "malware", "similar", "?", MASK, SEP]
                   and mask_pos == 7)

    pairs = [SimilarityPair("virus", "malware", SIMILAR),
             SimilarityPair("worm", "trojan", SIMILAR),
             SimilarityPair("breach", "leak", SIMILAR),
             SimilarityPair("virus", "garden", DISSIMILAR),
             SimilarityPair("leak", "pond", DISSIMILAR),
             SimilarityPair("worm", "apple", DISSIMILAR)]
    rigged = {("virus", "malware"): (2.0, 1.0),   # yes  -> true positive
              ("worm", "trojan"): (0.5, 0.5),     # tie  -> yes -> true positive
              ("breach", "leak"): (-1.0, 1.0),    # no   -> false negative
              ("virus", "garden"): (3.0, 0.0),    # yes  -> false positive
              ("leak", "pond"): (0.0, 2.0),       # no   -> true negative
              ("worm", "apple"): (-2.0, -1.0)}    # no   -> true negative
    f1, predictions = evaluate_pairs(pairs, lambda a, b: rigged[(a, b)])
    hand_f1 = 2.0 * 2 / (2 * 2 + 1 + 1)  # tp=2 fp=1 fn=1
    tie_ok = predictions[1][1] == SIMILAR
    ok = template_ok and f1 == hand_f1 and tie_ok
    verdict(7, ok,
            f"template {'ok' if template_ok else 'WRONG'}, stub F1 {f1:.6f} "
            f"(hand {hand_f1:.6f}), tie->similar {tie_ok}")


def test_criterion_8_reporting_protocol(dapt_setup):
    s = dapt_setup
    dataset = LabeledTextDataset.from_records(s.classify_records, seed=0)
    report = finetune_classify(s.config, s.adapted, s.vocab, dataset,
                               (0, 1, 2, 3, 4),
                               FinetuneConfig(lr=1e-3, epochs=8, batch_size=8),
                               task="relevance", model_name="adapted")
    formatted_ok = report.formatted == f"{report.mean:.4f} ({report.std:.4f})"
    ok = (len(report.values) == 5
          and all(v >= 0.95 for v in report.values)
          and report.std <= 0.03
          and formatted_ok)
    verdict(8, ok,
            f"per-seed F1 {', '.join(f'{v:.4f}' for v in report.values)}, "
            f"reported {report.formatted}")


def test_criterion_9_corpus_rules():
    boundaries_ok = (
        not keeps(Document("a", "blog", "x" * 299))
        and keeps(Document("b", "blog", "x" * 300))
        and not keeps(Document("c", "arxiv", "x" * 2999))
        and keeps(Document("d", "arxiv", "x" * 3000)))

    docs = [Document("1", "nvd", "alpha beta"), Document("2", "nvd", "alpha beta"),
            Document("3", "nvd", "gamma"), Document("4", "nvd", "alpha beta")]
    once = dedupe(docs)
    dedupe_ok = ([d.id for d in once] == ["1", "3"] and dedupe(once) == once)

    keyword_ok = (
        keeps(Document("e", "twitter", "the security hole"))
        and keeps(Document("f", "twitter", "SOC analyst on duty"))
        and not keeps(Document("g", "twitter", "socks are comfy"))
        and not keeps(Document("h", "twitter", "cybersecurity summit")))

    letters = tuple("abcdefghijklmnopqrstuvwxyz")
    vocab = Vocab(SPECIAL_TOKENS + letters + tuple("##" + c for c in letters))
    table = compute_stats([Document("1", "nvd", "ab cd")], vocab).render()
    columns_ok = table.splitlines()[0] == \
        "Source\tMin\tMax\tSum\tMedian\tMean\tEntries"

    report = cli.forgetting_report({"total_score": 0.600994},
                                   {"total_score": 0.546831})
    forgetting_ok = abs(report.mean_delta - (-0.0542)) <= 1e-4

    ok = boundaries_ok and dedupe_ok and keyword_ok and columns_ok and forgetting_ok
    verdict(9, ok,
            f"boundaries {boundaries_ok}, dedupe {dedupe_ok}, "
            f"keywords {keyword_ok}, columns {columns_ok}, "
            f"benchmark mean delta {report.mean_delta:+.4f}")


PIPELINE_MODEL = ["--set", "model.num_layers=3", "--set", "model.hidden=8",
                  "--set", "model.num_heads=2", "--set", "model.ffn_dim=16",
                  "--set", "model.max_seq=16", "--set", "model.dropout=0.0"]


def _build_pipeline_inputs(root):
    from daptlab.synth import PAIR_WORDS, tagging_records
    pool = PAIR_WORDS[:16]
    docs = [" ".join(pool[(i + j) % 16] for j in range(8)) for i in range(16)]
    docs += ["are virus and malware similar yes",
             "no virus and malware are similar",
             "yes no are and similar virus malware"]
    dump = root / "dump.jsonl"
    dump.write_text("".join(
        json.dumps({"id": f"n{i}", "source": "nvd", "text": t}) + "\n"
        for i, t in enumerate(docs)))
    domain = root / "domain.jsonl"
    domain.write_text("".join(
        json.dumps({"id": f"d{i}", "source": "nvd",
                    "text": " ".join(pool[(i + j) % 16] for j in range(7, -1, -1))})
        + "\n" for i in range(12)))
    pairs = root / "pairs.jsonl"
    pairs.write_text(json.dumps({"word1": pool[0], "word2": pool[1]}) + "\n"
                     + json.dumps({"word1": pool[2], "word2": pool[3]}) + "\n")
    classify = root / "classify.jsonl"
    classify.write_text("".join(json.dumps(r) + "\n"
                                for r in classification_records(24, seed=3)))
    tagged = root / "tagged.jsonl"
    tagged.write_text("".join(json.dumps(r) + "\n"
                              for r in tagging_records(20, seed=4)))
    base_scores = root / "base_scores.json"
    base_scores.write_text(json.dumps({"total_score": 0.600994}))
    adapted_scores = root / "adapted_scores.json"
    adapted_scores.write_text(json.dumps({"total_score": 0.546831}))
    return SimpleNamespace(dump=dump, domain=domain, pairs=pairs,
                           classify=classify, tagged=tagged,
                           base=base_scores, adapted=adapted_scores)


def _run_pipeline(inputs, out):
    o = ["--out", str(out)]
    corpus = ["--corpus", str(out / "corpus.jsonl")]
    vocab = ["--vocab", str(out / "vocab.txt")]
    finetune = PIPELINE_MODEL + ["--set", "finetune.epochs=1",
                                 "--set", "finetune.lr=1e-3",
                                 "--set", "finetune.batch_size=8"]
    stages = [
        ["corpus-build", str(inputs.dump)] + o,
        ["tokenizer-train"] + corpus + o + ["--set", "tokenizer.vocab_size=140",
                                            "--set", "tokenizer.min_frequency=1"],
        ["corpus-stats"] + corpus + vocab + o,
        ["pretrain"] + corpus + vocab + o + PIPELINE_MODEL +
        ["--set", "train.base.epochs=3", "--set", "train.base.batch_size=8",
         "--set", "train.base.warmup_steps=2"],
        ["dapt", "--corpus", str(inputs.domain),
         "--checkpoint", str(out / "base.ckpt"), "--name", "adapted"] + vocab + o +
        PIPELINE_MODEL + ["--set", "train.dapt.epochs=1",
                          "--set", "train.dapt.batch_size=8",
                          "--set", "train.dapt.warmup_steps=1"],
        ["eval-cluster"] + corpus + vocab + o +
        ["--checkpoint", str(out / "adapted.ckpt"),
         "--set", "eval.k_min=2", "--set", "eval.k_max=3"],
        ["eval-similarity", "--pairs", str(inputs.pairs)] + vocab + o +
        ["--checkpoint", str(out / "adapted.ckpt")],
        ["finetune-classify", "--data", str(inputs.classify),
         "--checkpoint", str(out / "base.ckpt")] + vocab + o + finetune,
        ["finetune-tag", "--data", str(inputs.tagged),
         "--checkpoint", str(out / "base.ckpt")] + vocab + o + finetune,
        ["forgetting", "--base", str(inputs.base),
         "--adapted", str(inputs.adapted)] + o,
        ["report", str(out)],
    ]
    for argv in stages:
        assert cli.main(argv) == 0, f"stage failed: {argv[0]}"
    return len(stages)


def test_criterion_10_determinism(tmp_path):
    inputs = _build_pipeline_inputs(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    n_stages = _run_pipeline(inputs, first)
    _run_pipeline(inputs, second)
    names = sorted(p.name for p in first.iterdir())
    ok = names == sorted(p.name for p in second.iterdir()) and len(names) >= 14
    differing = [name for name in names
                 if (first / name).read_bytes() != (second / name).read_bytes()]
    ok = ok and not differing
    verdict(10, ok,
            f"{n_stages} stages, {len(names)} artifacts byte-identical"
            + (f"; differing: {differing}" if differing else ""))
