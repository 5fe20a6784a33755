"""Masked-language-model pretraining on a corpus the model can actually solve.

The corpus is cyclic rotations of a fixed word list, so every masked token is
fully determined by its neighbors. A correctly wired encoder should push the
loss from about ln(vocab) toward zero and recover nearly every masked token.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from daptlab.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from daptlab.pretrain import TrainConfig, masked_token_accuracy, perplexity, train
from daptlab.synth import patterned_corpus
from daptlab.tokenizer import train_vocab

texts = patterned_corpus(120, sentence_len=8)
print(f"corpus: {len(texts)} deterministic sentences, e.g. {texts[0]!r}")

vocab = train_vocab(texts, target_size=48, min_frequency=1)
config = ModelConfig(num_layers=2, hidden=32, num_heads=4, ffn_dim=64,
                     vocab_size=len(vocab), max_seq=16, dropout=0.0)
params = init_params(config, seed=0)
print(f"model: {config.num_layers} layers, hidden {config.hidden}, "
      f"vocab {config.vocab_size}")

before_ppl = perplexity(config, params, texts, vocab, seed=5)
before_acc = masked_token_accuracy(config, params, texts, vocab, seed=5)
print(f"\nfresh model: perplexity {before_ppl:.1f} "
      f"(vocab size {len(vocab)}, so chance is about {len(vocab)}), "
      f"masked accuracy {before_acc:.3f}")

regimen = TrainConfig(peak_lr=6e-3, epochs=100, batch_size=16, warmup_steps=10, seed=0)
log = train(config, params, texts, vocab, regimen)
print(f"\ntrained {len(log.entries)} steps "
      f"(initial loss {log.entries[0][1]:.3f}, ln V = {math.log(len(vocab)):.3f})")
print("loss at every tenth epoch boundary:")
per_epoch = len(log.entries) // regimen.epochs
for step, loss in log.entries[per_epoch - 1::10 * per_epoch]:
    print(f"  step {step:>4}  loss {loss:.4f}")

after_ppl = perplexity(config, params, texts, vocab, seed=5)
after_acc = masked_token_accuracy(config, params, texts, vocab, seed=99)
print(f"\nafter training: perplexity {after_ppl:.2f}, "
      f"masked accuracy on fresh corruption draws {after_acc:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    save_checkpoint(params, config, path)
    restored, restored_config = load_checkpoint(path)
    same = all(np.array_equal(restored[k].data, params[k].data) for k in params)
    print(f"\ncheckpoint roundtrip: {path.stat().st_size} bytes, "
          f"tensors identical: {same}")
