"""Two label-free probes of what continued pretraining actually taught.

Part 1 clusters document embeddings. The domain corpus here is adversarial:
every topic draws the same twenty words with identical frequencies, and only
word adjacency carries the topic. Counting words cannot separate these
documents, so any silhouette the adapted model earns had to come from
learned co-occurrence structure.

Part 2 asks a model directly whether two words are similar, by scoring
"yes" against "no" at a masked slot in a fixed question template. The
positive pairs ship with the package; negatives are sampled to balance.

Roughly a minute on one CPU core.
"""

from importlib import resources

import numpy as np

from daptlab.evaluate import (build_pairs, cluster_eval, evaluate_pairs,
                              load_pairs, model_cloze_predictor,
                              render_cluster_report, render_similarity_report)
from daptlab.model import ModelConfig, init_params
from daptlab.pretrain import TrainConfig, corpus_token_count, dapt, train
from daptlab.synth import (DOMAIN_TOPICS, GENERAL_TOPICS, cloze_statements,
                           pairing_corpus, topic_corpus)
from daptlab.tokenizer import train_vocab

# --- part 1: embedding clusters on a frequency-blind corpus ---------------

general, _ = topic_corpus(GENERAL_TOPICS, 600, words_per_doc=8, seed=41)
domain, _ = pairing_corpus(200, pairs_per_doc=16, seed=42)
vocab = train_vocab(general + domain, target_size=400, min_frequency=2)
config = ModelConfig.desk(len(vocab), dropout=0.0)

base_regimen = TrainConfig(peak_lr=6e-3, epochs=30, batch_size=32,
                           warmup_steps=10, seed=0)
base = init_params(config, seed=0)
train(config, base, general, vocab, base_regimen)
adapted, _ = dapt(config, base, domain, vocab,
                  TrainConfig(peak_lr=2e-3, epochs=18, batch_size=16,
                              warmup_steps=10, seed=1),
                  base_regimen,
                  base_token_count=corpus_token_count(general, vocab))
print("adapted a base model to 200 pairing documents (5 latent topics)")

held, _ = pairing_corpus(100, pairs_per_doc=16, seed=43)
untrained = init_params(config, seed=123)
for name, params in (("adapted", adapted), ("untrained", untrained)):
    runs = cluster_eval(config, params, vocab, held, k_values=(3, 5, 7), seed=0)
    print(render_cluster_report(name, runs))

# --- part 2: cloze word similarity -----------------------------------------

docs = topic_corpus(DOMAIN_TOPICS, 400, words_per_doc=8, seed=5)[0]
statements = cloze_statements(DOMAIN_TOPICS, 800, seed=6)
cloze_vocab = train_vocab(docs + statements, target_size=160)
small = ModelConfig(num_layers=3, hidden=32, num_heads=4, ffn_dim=64,
                    vocab_size=len(cloze_vocab), max_seq=24, dropout=0.0)
params = init_params(small, seed=0)
train(small, params, docs + statements, cloze_vocab,
      TrainConfig(peak_lr=6e-3, epochs=60, batch_size=32, warmup_steps=10,
                  seed=0))
print("trained a small model on topic documents plus yes/no statements")

topic_of = {w: t for t, words in DOMAIN_TOPICS.items() for w in words}
with resources.as_file(resources.files("daptlab") / "data"
                       / "word_pairs.jsonl") as path:
    positives = load_pairs(path)
# a corpus-bound model cannot know words it never saw; keep covered pairs
known = [p for p in positives if p.word1 in topic_of and p.word2 in topic_of]
pairs = build_pairs(known, np.random.default_rng(0))
print(f"kept {len(known)}/{len(positives)} shipped positives with corpus "
      f"words, balanced with {len(pairs) - len(known)} sampled negatives")

# the predictor is just a callable; a word-list oracle shows the ceiling
# (sampled negatives can land on genuinely similar words)
def oracle(w1, w2):
    return (1.0, 0.0) if topic_of[w1] == topic_of[w2] else (0.0, 1.0)

ceiling, _ = evaluate_pairs(pairs, oracle)
f1, predictions = evaluate_pairs(pairs, model_cloze_predictor(small, params, cloze_vocab))
report = render_similarity_report("cloze", f1, predictions)
lines = report.splitlines()
print("\n".join(lines[:10]))
print(f"... {len(lines) - 10} more rows")
print(f"trained-model f1 {f1:.3f} against a topic-oracle ceiling of "
      f"{ceiling:.3f}")
