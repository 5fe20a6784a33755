"""Five-seed fine-tuning on two downstream tasks, reported with variance.

Single-run scores on small datasets are noise. The fine-tuning loops here
always run five seeds and report mean (std); the per-seed values stay in the
report so nothing hides in the aggregate.

Classification is a separable relevance task (one marker word decides the
label). Tagging is IOB span extraction with two entity kinds, scored by
span-level F1 with token-level F1 as the secondary metric.

Under half a minute on one CPU core.
"""

from daptlab.finetune import (FinetuneConfig, LabeledTextDataset,
                              TaggedTokenDataset, finetune_classify,
                              finetune_tag)
from daptlab.model import ModelConfig, init_params
from daptlab.pretrain import TrainConfig, train
from daptlab.synth import (DOMAIN_TOPICS, classification_records,
                           tagging_records, topic_corpus)
from daptlab.tokenizer import train_vocab

SEEDS = (0, 1, 2, 3, 4)

clf_records = classification_records(300, seed=7)
tag_records = tagging_records(150, seed=8)

backbone_corpus = (topic_corpus(DOMAIN_TOPICS, 200, words_per_doc=8, seed=9)[0]
                   + [r["text"] for r in clf_records]
                   + [" ".join(r["tokens"]) for r in tag_records])
vocab = train_vocab(backbone_corpus, target_size=200)
config = ModelConfig(num_layers=2, hidden=32, num_heads=4, ffn_dim=64,
                     vocab_size=len(vocab), max_seq=32, dropout=0.0)
params = init_params(config, seed=0)
train(config, params, backbone_corpus, vocab,
      TrainConfig(peak_lr=6e-3, epochs=15, batch_size=32, warmup_steps=10,
                  seed=0))
print(f"pretrained a {config.num_layers}-layer backbone on "
      f"{len(backbone_corpus)} documents\n")

clf_data = LabeledTextDataset.from_records(clf_records, seed=0)
clf_report = finetune_classify(config, params, vocab, clf_data, SEEDS,
                               FinetuneConfig(lr=1e-3, epochs=14, batch_size=8),
                               task="relevance", model_name="backbone")
print(clf_report.render())

tag_data = TaggedTokenDataset.from_records(tag_records, seed=0)
tag_report = finetune_tag(config, params, vocab, tag_data, SEEDS,
                          FinetuneConfig(lr=1e-3, epochs=6, batch_size=8),
                          task="entities", model_name="backbone")
print(tag_report.render())

print(f"relevance f1 {clf_report.formatted}, entity span f1 "
      f"{tag_report.formatted}")
lo, hi = min(clf_report.values), max(clf_report.values)
print(f"relevance per-seed spread runs {lo:.3f} to {hi:.3f}; a single-seed "
      f"number anywhere in that range would have looked authoritative")
