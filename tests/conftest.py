"""Session fixtures: the three trained-model setups the acceptance gate shares.

Each fixture is expensive (tens of seconds of CPU training), so they are
built once per session and only when a test actually requests them.
"""

import os
import time
from types import SimpleNamespace

# BLAS on one thread, as the CLI and the benchmark run it. This runs before
# the first numpy import, which the daptlab imports below make.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import pytest

from daptlab.model import ModelConfig, init_params
from daptlab.pretrain import TrainConfig, corpus_token_count, dapt, train
from daptlab.synth import (DOMAIN_TOPICS, GENERAL_TOPICS, classification_records,
                           pairing_corpus, patterned_corpus, tagging_records,
                           topic_corpus)
from daptlab.tokenizer import train_vocab

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def patterned_run():
    """Full desk-scale run on the 200-sentence deterministic corpus."""
    texts = patterned_corpus(200)
    vocab = train_vocab(texts, target_size=64)
    config = ModelConfig.desk(len(vocab), dropout=0.0)
    params = init_params(config, seed=0)
    started = time.perf_counter()
    log = train(config, params, texts, vocab,
                TrainConfig(peak_lr=6e-3, epochs=40, batch_size=32,
                            warmup_steps=10, seed=0))
    seconds = time.perf_counter() - started
    return SimpleNamespace(config=config, params=params, texts=texts,
                           vocab=vocab, log=log, seconds=seconds)


@pytest.fixture(scope="session")
def dapt_setup():
    """Base model on general corpus A, adaptation on the much smaller domain
    corpus B at reduced lr, plus a control adapted at the base lr."""
    general, _ = topic_corpus(GENERAL_TOPICS, 1200, words_per_doc=8, seed=11)
    domain, _ = topic_corpus(DOMAIN_TOPICS, 120, words_per_doc=8, seed=12)
    general_held, _ = topic_corpus(GENERAL_TOPICS, 400, words_per_doc=8, seed=21)
    domain_held, _ = topic_corpus(DOMAIN_TOPICS, 300, words_per_doc=8, seed=22)
    classify_records = classification_records(300, seed=33)
    tag_records = tagging_records(200, seed=34)
    vocab = train_vocab(general + domain
                        + [r["text"] for r in classify_records]
                        + [" ".join(r["tokens"]) for r in tag_records],
                        target_size=600)
    config = ModelConfig.desk(len(vocab), dropout=0.0)
    base_config = TrainConfig(peak_lr=1e-4, epochs=30, batch_size=64,
                              warmup_steps=100, seed=0)
    dapt_config = TrainConfig(peak_lr=2e-5, epochs=16, batch_size=16,
                              warmup_steps=50, seed=1)
    base = init_params(config, seed=0)
    train(config, base, general, vocab, base_config)
    base_tokens = corpus_token_count(general, vocab)
    adapted, _ = dapt(config, base, domain, vocab, dapt_config, base_config,
                      base_token_count=base_tokens)
    # the regimen-violating control: same steps on B but at the base lr
    control = {name: t.copy() for name, t in base.items()}
    train(config, control, domain, vocab,
          TrainConfig(peak_lr=1e-4, epochs=16, batch_size=16,
                      warmup_steps=50, seed=1))
    return SimpleNamespace(config=config, vocab=vocab, base=base,
                           adapted=adapted, control=control,
                           general=general, domain=domain,
                           general_held=general_held, domain_held=domain_held,
                           classify_records=classify_records,
                           base_config=base_config, dapt_config=dapt_config,
                           base_tokens=base_tokens)


@pytest.fixture(scope="session")
def pairing_dapt():
    """Adaptation on the co-occurrence-only 5-topic corpus.

    Topic identity is carried purely by which word pairs appear adjacently;
    unigram statistics are identical across topics, so clustering the topics
    requires contextual representations rather than token histograms."""
    general, _ = topic_corpus(GENERAL_TOPICS, 600, words_per_doc=8, seed=41)
    domain, _ = pairing_corpus(200, pairs_per_doc=16, seed=42)
    vocab = train_vocab(general + domain, target_size=400, min_frequency=2)
    config = ModelConfig.desk(len(vocab), dropout=0.0)
    base_config = TrainConfig(peak_lr=6e-3, epochs=30, batch_size=32,
                              warmup_steps=10, seed=0)
    base = init_params(config, seed=0)
    train(config, base, general, vocab, base_config)
    adapted, _ = dapt(config, base, domain, vocab,
                      TrainConfig(peak_lr=2e-3, epochs=18, batch_size=16,
                                  warmup_steps=10, seed=1),
                      base_config,
                      base_token_count=corpus_token_count(general, vocab))
    held, held_labels = pairing_corpus(100, pairs_per_doc=16, seed=43)
    return SimpleNamespace(config=config, vocab=vocab, adapted=adapted,
                           held=held, held_labels=held_labels)
