"""The three closed-loop workloads: inputs from a seed, one repetition, checks.

Each workload has a ``setup`` that turns the workload seed into inputs (timed
as ``setup_s``) and a ``rep`` that runs one repetition of the closed loop and
returns a ``Rep``. One caller drives every loop: each operation starts when the
previous one returns. The program sees only the generated texts and files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from daptlab import evaluate, model, pretrain, synth, tokenizer

clock = time.perf_counter


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    A single-threaded workload's CPU time is its wall time less the time the
    host kept it off a core, so it is the steadier measure on a shared host.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# pretrain_b64 / eval_probes geometry: ModelConfig.desk with dropout 0.
BATCH = 64
MAX_SEQ = 64
VOCAB_TARGET = 600
DOCS_PER_FAMILY = 160      # x4 families = 640 docs = 10 steps per epoch at B=64
HELDOUT_PER_FAMILY = 64    # x4 = 256 held-out docs
PRETRAIN_EPOCHS = 4        # 40 steps per repetition
PRETRAIN_LR = 2e-3
EVAL_CKPT_EPOCHS = 1       # the eval_probes checkpoint, trained in setup
CLUSTER_DOCS = 500
CLUSTER_K = range(5, 10)
CLOZE_POSITIVES = 150      # plus as many sampled negatives
PPL_MASK_SEED = 0          # fixed masking draw for every perplexity


@dataclass
class Rep:
    """What one repetition measured and produced."""

    wall_s: float
    cpu_s: float                          # CPU time of the same interval
    ops: int
    op_ms: list[float]
    fingerprint: str                      # hash of every output the rep produced
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # workload-specific measurements


def attempt(rep, state: dict, work: Path, **options) -> Rep:
    """One repetition; a raised error fails all its operations, not the run."""
    gc.collect()  # no repetition pays for garbage the previous one left
    t0, cpu0 = clock(), cpu_clock()
    try:
        return rep(state, work, **options)
    except Exception as exc:  # reported and counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return Rep(wall_s=clock() - t0, cpu_s=cpu_clock() - cpu0,
                   ops=state["inputs"]["ops_per_rep"], op_ms=[], fingerprint="",
                   problems=[f"raised {exc!r}"])


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _data_seed(seed: int, offset: int) -> int:
    return 1000 * seed + offset


def lab_texts(per_family: int, seed: int) -> list[str]:
    """General + domain + pairing + cloze documents, about 16 pieces each."""
    both = {**synth.GENERAL_TOPICS, **synth.DOMAIN_TOPICS}
    return (synth.topic_corpus(synth.GENERAL_TOPICS, per_family, 8, seed=seed)[0]
            + synth.topic_corpus(synth.DOMAIN_TOPICS, per_family, 8, seed=seed + 1)[0]
            + synth.pairing_corpus(per_family, pairs_per_doc=8, seed=seed + 2)[0]
            + synth.cloze_statements(both, per_family, seed=seed + 3))


def _check_ppl(ppl: float, vocab_size: int, problems: list[str]) -> None:
    if not (math.isfinite(ppl) and 1.0 <= ppl < vocab_size):
        problems.append(f"held-out perplexity {ppl} not finite and in [1, {vocab_size})")


# ---------------------------------------------------------------------------
# pretrain_b64: pretrain.train at desk geometry, batch 64, then held-out ppl

def setup_pretrain_b64(seed: int, work: Path) -> dict:
    texts = lab_texts(DOCS_PER_FAMILY, _data_seed(seed, 0))
    heldout = lab_texts(HELDOUT_PER_FAMILY, _data_seed(seed, 500))
    vocab = tokenizer.train_vocab(texts, target_size=VOCAB_TARGET, min_frequency=2)
    config = model.ModelConfig.desk(len(vocab), max_seq=MAX_SEQ, dropout=0.0)
    encs = pretrain.encode_corpus(texts, vocab, MAX_SEQ)
    tokens = sum(len(e.ids) for e in encs)  # non-pad tokens, each trained once an epoch
    return {
        "seed": seed, "texts": texts, "heldout": heldout, "vocab": vocab,
        "config": config,
        "train_config": pretrain.TrainConfig(
            peak_lr=PRETRAIN_LR, epochs=PRETRAIN_EPOCHS, batch_size=BATCH,
            warmup_steps=4, weight_decay=0.01, seed=seed, max_seq=MAX_SEQ),
        "tokens_per_epoch": tokens,
        "inputs": {"geometry": "4 layers, hidden 64, 4 heads, FFN 256, dropout 0",
                   "batch": BATCH, "vocab_size": len(vocab),
                   "mean_seq_pieces": round(tokens / len(encs), 2),
                   "train_docs": len(texts), "heldout_docs": len(heldout),
                   "ops_per_rep": PRETRAIN_EPOCHS * math.ceil(len(encs) / BATCH)},
    }


def rep_pretrain_b64(state: dict, work: Path) -> Rep:
    config, vocab = state["config"], state["vocab"]
    stamps: list[float] = []
    adam_step = pretrain.adam_step

    def clocked_adam_step(*args, **kwargs):
        stamps.append(clock())  # one clock read per optimizer step
        return adam_step(*args, **kwargs)

    params = model.init_params(config, state["seed"])
    start, cpu_start = clock(), cpu_clock()
    pretrain.adam_step = clocked_adam_step
    try:
        log = pretrain.train(config, params, state["texts"], vocab,
                             state["train_config"])
    finally:
        pretrain.adam_step = adam_step
    trained = clock()
    ppl = pretrain.perplexity(config, params, state["heldout"], vocab,
                              seed=PPL_MASK_SEED, batch_size=BATCH)
    end, cpu_end = clock(), cpu_clock()

    losses = [loss for _, loss in log.entries]
    problems = []
    if not all(math.isfinite(loss) for loss in losses):
        problems.append("non-finite training loss")
    elif not losses or losses[-1] >= losses[0]:
        problems.append(f"final loss {losses[-1] if losses else None} not below "
                        f"first {losses[0] if losses else None}")
    _check_ppl(ppl, len(vocab), problems)
    train_s = trained - start
    tokens = state["tokens_per_epoch"] * state["train_config"].epochs
    param_hash = _sha(*(params[name].data.tobytes() for name in sorted(params)))
    return Rep(
        wall_s=end - start, cpu_s=cpu_end - cpu_start, ops=len(losses),
        op_ms=[1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])],
        fingerprint=_sha(param_hash, log.render(), ppl), problems=problems,
        facts={"train_s": train_s, "tokens": tokens, "heldout_ppl": ppl,
               "final_loss": losses[-1] if losses else float("nan"),
               "param_hash": param_hash})


# ---------------------------------------------------------------------------
# eval_probes: forward-only probes of a checkpoint trained in setup

def _train_checkpoint(state: dict, ckpt: Path) -> None:
    config, seed = state["config"], state["seed"]
    params = model.init_params(config, seed)
    train_config = pretrain.TrainConfig(
        peak_lr=PRETRAIN_LR, epochs=EVAL_CKPT_EPOCHS, batch_size=BATCH,
        warmup_steps=4, weight_decay=0.01, seed=seed, max_seq=MAX_SEQ)
    pretrain.train(config, params, state["texts"], state["vocab"], train_config)
    model.save_checkpoint(params, config, ckpt)


def setup_eval_probes(seed: int, work: Path) -> dict:
    state = setup_pretrain_b64(seed, work)
    vocab = state["vocab"]
    ckpt = work / "eval_probes.ckpt"
    # trained in a forked child, so that training's memory stays out of this
    # process's peak RSS, which then belongs to the probes alone
    child = multiprocessing.get_context("fork").Process(
        target=_train_checkpoint, args=(state, ckpt))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"checkpoint training exited {child.exitcode}")

    both = {**synth.GENERAL_TOPICS, **synth.DOMAIN_TOPICS}
    docs = synth.topic_corpus(both, CLUSTER_DOCS, 8, seed=_data_seed(seed, 600))[0]
    rng = np.random.default_rng(_data_seed(seed, 700))
    same_topic = [(a, b) for words in both.values()
                  for i, a in enumerate(words) for b in words[i + 1:]]
    picks = rng.choice(len(same_topic), size=CLOZE_POSITIVES, replace=False)
    pairs = evaluate.build_pairs([same_topic[int(i)] for i in picks], rng)
    return {
        "ckpt": ckpt, "vocab": vocab, "heldout": state["heldout"], "docs": docs,
        "pairs": pairs,
        "inputs": {**state["inputs"], "checkpoint_steps":
                   EVAL_CKPT_EPOCHS * math.ceil(len(state["texts"]) / BATCH),
                   "cluster_docs": len(docs), "k": f"{CLUSTER_K.start}..{CLUSTER_K.stop - 1}",
                   "cloze_pairs": len(pairs), "ops_per_rep": len(docs) + len(pairs),
                   "cluster_doc_pieces": max(len(tokenizer.encode(d, vocab, MAX_SEQ).ids)
                                             for d in docs)},
    }


def rep_eval_probes(state: dict, work: Path) -> Rep:
    vocab = state["vocab"]
    item_ms: list[float] = []
    returned = []  # what each timed call returned, hashed into the outputs
    embed_document = evaluate.embed_document

    def timed(fn):
        def call(*args, **kwargs):
            t0 = clock()
            got = fn(*args, **kwargs)
            item_ms.append(1000.0 * (clock() - t0))
            returned.append(got)
            return got
        return call

    start, cpu_start = clock(), cpu_clock()
    params, config = model.load_checkpoint(state["ckpt"])
    ppl = pretrain.perplexity(config, params, state["heldout"], vocab,
                              seed=PPL_MASK_SEED, batch_size=BATCH)
    acc = pretrain.masked_token_accuracy(config, params, state["heldout"], vocab,
                                         seed=PPL_MASK_SEED, batch_size=BATCH)
    evaluate.embed_document = timed(embed_document)
    try:
        runs = evaluate.cluster_eval(config, params, vocab, state["docs"],
                                     k_values=CLUSTER_K, seed=0)
    finally:
        evaluate.embed_document = embed_document
    embed_s = sum(item_ms) / 1000.0
    embeddings = _sha(*(vec.tobytes() for vec in returned))
    returned.clear()
    cloze_start = clock()
    predictor = timed(evaluate.model_cloze_predictor(config, params, vocab))
    f1, predictions = evaluate.evaluate_pairs(state["pairs"], predictor)
    end, cpu_end = clock(), cpu_clock()

    problems = []
    _check_ppl(ppl, len(vocab), problems)
    if not 0.0 <= acc <= 1.0:
        problems.append(f"masked-token accuracy {acc} outside [0, 1]")
    if [run.k for run in runs] != list(CLUSTER_K) or not all(
            -1.0 <= run.silhouette <= 1.0 for run in runs):
        problems.append("cluster sweep missing k values or silhouette outside [-1, 1]")
    if not 0.0 <= f1 <= 1.0 or len(predictions) != len(state["pairs"]):
        problems.append(f"cloze F1 {f1} outside [0, 1] or pairs missing")
    outputs = {"ppl": ppl, "acc": acc,
               "silhouette": [run.silhouette for run in runs],
               "assignments": _sha(*(run.assignments for run in runs)),
               "embeddings": embeddings, "f1": f1, "cloze_logits": _sha(*returned)}
    return Rep(
        wall_s=end - start, cpu_s=cpu_end - cpu_start, ops=len(item_ms),
        op_ms=item_ms,
        fingerprint=_sha(json.dumps(outputs, sort_keys=True)), problems=problems,
        facts={"heldout_ppl": ppl, "embed_docs_per_s": len(state["docs"]) / embed_s,
               "cloze_pairs_per_s": len(state["pairs"]) / (end - cloze_start),
               "outputs": outputs})


# ---------------------------------------------------------------------------
# cli_pipeline: the demos/06_cli_pipeline.sh chain, one process per stage

CONFIG = Path("configs/desk.ini")
STAGE_SHIM = Path(__file__).with_name("stage.py")


def _jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def write_demo_inputs(work: Path, seed: int) -> None:
    """The demo-06 generator, with every seed shifted by 100 * workload seed.

    Seed 0 writes exactly the demo's inputs.
    """
    s = 100 * seed
    topics = synth.DOMAIN_TOPICS
    docs = synth.topic_corpus(topics, 40, words_per_doc=8, seed=s + 1)[0]
    docs += synth.cloze_statements(topics, 30, seed=s + 2)
    docs += [" ".join(r["tokens"]) for r in synth.tagging_records(12, seed=s + 9)]
    docs += [r["text"] for r in synth.classification_records(6, seed=s + 10)]
    records = [{"id": f"n{i}", "source": "nvd", "text": t} for i, t in enumerate(docs)]
    records.append({"id": "t0", "source": "twitter", "text": "security advisory today"})
    records.append({"id": "b0", "source": "blog", "text": "too short to keep"})
    _jsonl(work / "dump.jsonl", records)
    with open(work / "dump.jsonl", "a", encoding="utf-8") as handle:
        handle.write("{broken json\n")  # tolerated: under the malformed-line limit
    domain = synth.topic_corpus({"malware": topics["malware"], "vulns": topics["vulns"]},
                                16, words_per_doc=8, seed=s + 13)[0]
    _jsonl(work / "domain.jsonl",
           [{"id": f"d{i}", "source": "nvd", "text": t} for i, t in enumerate(domain)])
    _jsonl(work / "pairs.jsonl", [{"word1": "trojan", "word2": "rootkit"},
                                  {"word1": "cipher", "word2": "keypair"}])
    _jsonl(work / "classify.jsonl", synth.classification_records(60, seed=s + 3))
    _jsonl(work / "tagged.jsonl", synth.tagging_records(40, seed=s + 4))
    (work / "base_scores.json").write_text(
        json.dumps({"relevance": 0.544, "entities": 0.661}))
    (work / "adapted_scores.json").write_text(
        json.dumps({"relevance": 0.536, "entities": 0.612}))


def demo_stages(inp: Path, run: Path) -> list[list[str]]:
    """The 13 subcommand invocations of demo 06, in its order."""
    common = ["--config", str(CONFIG), "--out", str(run)]
    vocab = ["--vocab", str(run / "vocab.txt")]
    stages = [
        ["corpus-build", str(inp / "dump.jsonl"), *common],
        ["tokenizer-train", "--corpus", str(run / "corpus.jsonl"), *common],
        ["corpus-stats", "--corpus", str(run / "corpus.jsonl"), *vocab, *common],
        ["pretrain", "--corpus", str(run / "corpus.jsonl"), *vocab, *common],
        ["dapt", "--corpus", str(inp / "domain.jsonl"), *vocab,
         "--checkpoint", str(run / "base.ckpt"), "--name", "adapted", *common],
    ]
    for ckpt in ("base", "adapted"):
        stages += [
            ["eval-cluster", "--corpus", str(run / "corpus.jsonl"), *vocab,
             "--checkpoint", str(run / f"{ckpt}.ckpt"), *common],
            ["eval-similarity", "--pairs", str(inp / "pairs.jsonl"), *vocab,
             "--checkpoint", str(run / f"{ckpt}.ckpt"), *common],
        ]
    stages += [
        ["finetune-classify", "--data", str(inp / "classify.jsonl"), *vocab,
         "--checkpoint", str(run / "base.ckpt"), *common],
        ["finetune-tag", "--data", str(inp / "tagged.jsonl"), *vocab,
         "--checkpoint", str(run / "base.ckpt"), *common],
        ["forgetting", "--base", str(inp / "base_scores.json"),
         "--adapted", str(inp / "adapted_scores.json"), *common],
        ["report", str(run), "--config", str(CONFIG)],
    ]
    return stages


def artifact_hash(run: Path) -> str:
    lines = [f"{p.relative_to(run).as_posix()}\t{hashlib.sha256(p.read_bytes()).hexdigest()}"
             for p in sorted(run.rglob("*")) if p.is_file()]
    return _sha("\n".join(lines))


def stage_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def setup_cli_pipeline(seed: int, work: Path) -> dict:
    inp = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
    write_demo_inputs(inp, seed)
    env = stage_env(Path("src").resolve())
    heldout = synth.topic_corpus(synth.DOMAIN_TOPICS, 64, words_per_doc=8,
                                 seed=100 * seed + 77)[0]
    return {"inputs_dir": inp, "work": work, "heldout": heldout, "env": env,
            "inputs": {"config": str(CONFIG), "geometry":
                       "4 layers, hidden 32, 4 heads, FFN 128, dropout 0",
                       "batch": 8, "ops_per_rep": len(demo_stages(inp, inp)),
                       "dump_lines": len((inp / "dump.jsonl").read_text().splitlines()),
                       "domain_docs": 16, "classify_records": 60,
                       "tag_records": 40, "heldout_docs": len(heldout)}}


def rep_cli_pipeline(state: dict, work: Path, tracer=None, pause=None) -> Rep:
    """One pass of the chain into a fresh directory; traced through the shim
    when a tracer is given, whose spans then include one span per stage.
    ``pause`` is called before every stage, outside the stages' timing."""
    run = Path(tempfile.mkdtemp(prefix="run-", dir=state["work"])) / "run"
    spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=state["work"]))
    stage_ms, stage_cpu, problems, stage_spans = [], [], [], []
    if not state.get("warm"):
        # one throwaway CLI process, so that the first timed stage finds a warm
        # file cache; once a run, outside every timing and outside set-up,
        # which is input generation only
        subprocess.run([sys.executable, "-m", "daptlab.cli", "--version"],
                       env=state["env"], capture_output=True, check=True)
        state["warm"] = True
    for i, argv in enumerate(demo_stages(state["inputs_dir"], run)):
        if pause is not None:
            pause()
        if tracer is None:
            cmd = [sys.executable, "-m", "daptlab.cli", *argv]
        else:
            spans_file = spans_dir / f"{i}.pickle"
            cmd = [sys.executable, str(STAGE_SHIM), str(spans_file), "--", *argv]
        t0, cpu0 = clock(), cpu_clock()
        proc = subprocess.run(cmd, env=state["env"], capture_output=True, text=True)
        t1 = clock()
        stage_cpu.append(cpu_clock() - cpu0)
        stage_ms.append(1000.0 * (t1 - t0))
        if tracer is not None:
            idx = tracer.open(f"cli.stage.{argv[0]}", start=t0)
            tracer.close(idx, end=t1)
            stage_spans.append((idx, spans_file))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"stage {argv[0]} exited {proc.returncode}: {tail[0]}")
    for idx, spans_file in stage_spans:
        if spans_file.is_file():  # written by our own stage.py, safe to unpickle
            tracer.adopt(pickle.loads(spans_file.read_bytes()), parent=idx)

    digest = artifact_hash(run) if run.is_dir() else "missing"
    loss_file = run / "base_loss.tsv"
    final_loss = (float(loss_file.read_text().split()[-1]) if loss_file.is_file()
                  else float("nan"))
    if "heldout_ppl" not in state and not problems:
        vocab = tokenizer.Vocab.load(run / "vocab.txt")
        params, config = model.load_checkpoint(run / "base.ckpt")
        state["heldout_ppl"] = pretrain.perplexity(
            config, params, state["heldout"], vocab, seed=PPL_MASK_SEED)
        state["vocab_size"] = len(vocab)
    if "heldout_ppl" in state:
        _check_ppl(state["heldout_ppl"], state["vocab_size"], problems)
    shutil.rmtree(run.parent)
    shutil.rmtree(spans_dir)
    return Rep(wall_s=sum(stage_ms) / 1000.0, cpu_s=sum(stage_cpu), ops=len(stage_ms),
               op_ms=stage_ms,
               fingerprint=_sha(digest, final_loss), problems=problems,
               facts={"artifact_hash": digest, "final_loss": final_loss,
                      "heldout_ppl": state.get("heldout_ppl", float("nan")),
                      "stage_ms": stage_ms})


# name -> (setup, rep, runs in this process)
WORKLOADS = {
    "pretrain_b64": (setup_pretrain_b64, rep_pretrain_b64, True),
    "cli_pipeline": (setup_cli_pipeline, rep_cli_pipeline, False),
    "eval_probes": (setup_eval_probes, rep_eval_probes, True),
}
