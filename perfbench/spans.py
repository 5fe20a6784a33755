"""Spans recorded around calls into daptlab's modules, from outside the package.

Nothing under ``src/`` knows about tracing. ``installed(tracer)`` replaces the
names each caller module binds (``daptlab.model.matmul``,
``daptlab.pretrain.adam_step``, ...) with timing wrappers, and ``Tape`` in
``pretrain`` and ``finetune`` with a subclass that labels every backward
closure with the op that recorded it. Leaving the context restores the
original bindings. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np

# Autodiff primitives the per-layer table reports, forward and backward.
OPS = ("matmul", "gelu", "layer_norm", "softmax", "add", "add_const", "scale",
       "gather_rows", "select_position", "transpose", "reshape",
       "cross_entropy_masked")

# The autodiff ops each caller module binds.
OP_CALLERS = {
    "model": ("add", "add_const", "gather_rows", "gelu", "layer_norm", "matmul",
              "reshape", "scale", "softmax", "transpose"),
    "pretrain": ("cross_entropy_masked", "reshape"),
    "finetune": ("add", "cross_entropy_masked", "matmul", "reshape", "select_position"),
}
# (caller module, bound name, span name). A module's own functions are listed
# under that module, so its internal calls and the benchmark's own calls
# (``pretrain.perplexity(...)``) resolve to the wrapper as well.
BINDINGS = (
    [(mod, op, f"autodiff.{op}") for mod, ops in OP_CALLERS.items() for op in ops]
    + [(mod, "backward", "autodiff.backward") for mod in ("pretrain", "finetune")]
    + [(mod, "adam_step", "optim.adam_step") for mod in ("pretrain", "finetune")]
    + [(mod, "forward", "model.forward")
       for mod in ("model", "pretrain", "finetune", "evaluate")]
    + [(mod, "mlm_logits", "model.mlm_logits") for mod in ("pretrain", "evaluate")]
    + [("evaluate", "embed_document", "model.embed_document"),
       ("cli", "save_checkpoint", "model.save_checkpoint"),
       ("cli", "load_checkpoint", "model.load_checkpoint"),
       ("model", "load_checkpoint", "model.load_checkpoint"),
       ("pretrain", "apply_masking", "pretrain.apply_masking"),
       ("pretrain", "encode_corpus", "pretrain.encode_corpus"),
       ("pretrain", "train", "pretrain.train"),
       ("cli", "train", "pretrain.train"),
       ("cli", "dapt", "pretrain.dapt"),
       ("pretrain", "perplexity", "pretrain.perplexity"),
       ("pretrain", "masked_token_accuracy", "pretrain.masked_token_accuracy"),
       ("cli", "finetune_classify", "finetune.finetune_classify"),
       ("cli", "finetune_tag", "finetune.finetune_tag"),
       ("evaluate", "kmeans", "evaluate.kmeans"),
       ("evaluate", "silhouette", "evaluate.silhouette"),
       ("cli", "cluster_eval", "evaluate.cluster_eval"),
       ("cli", "evaluate_pairs", "evaluate.evaluate_pairs"),
       ("evaluate", "cluster_eval", "evaluate.cluster_eval"),
       ("evaluate", "evaluate_pairs", "evaluate.evaluate_pairs"),
       ("cli", "train_vocab", "tokenizer.train_vocab"),
       ("cli", "build_corpus", "corpus.build_corpus"),
       ("cli", "compute_stats", "corpus.compute_stats"),
       ("fileio", "atomic_write_bytes", "fileio.atomic_write_bytes")]
    + [(mod, fn, f"tokenizer.{fn}") for mod, fn in (
        ("pretrain", "encode"), ("model", "encode"), ("finetune", "encode"),
        ("finetune", "encode_words"))]
)

_clock = time.perf_counter


class Tracer:
    """In-memory spans: parallel lists of name, start, end and parent index.

    A parent of -1 marks a top-level span. ``counts`` holds the tallies
    measured where the work happens (tape length, rows decoded, bytes).
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = ""  # autodiff op whose forward is running, labels tape records

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(_clock() if start is None else start)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.ends[idx] = _clock() if end is None else end
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def adopt(self, other: dict, parent: int) -> None:
        """Append spans exported by another process under span ``parent``."""
        base = len(self.names)
        self.names += [other["names"][i] for i in other["name_ids"]]
        self.starts += other["starts"]
        self.ends += other["ends"]
        self.parents += [parent if p < 0 else base + p for p in other["parents"]]
        for key, value in other["counts"].items():
            self.add(key, value)

    def export(self) -> dict:
        """Spans as JSON-ready lists; each name is stored once."""
        table: dict[str, int] = {}
        ids = [table.setdefault(name, len(table)) for name in self.names]
        return {"names": list(table), "name_ids": ids, "starts": self.starts,
                "ends": self.ends, "parents": self.parents, "counts": self.counts}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle, separators=(",", ":"))


def _timed(fn, name: str, tracer: Tracer, op: str = ""):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        tracer.op = op
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.op = ""
            tracer.close(idx)
    return wrapper


def _counting(name: str, fn, tracer: Tracer, caller: str):
    """Wrappers that also tally a count the per-layer table derives a ratio from."""
    if name == "autodiff.backward":
        def backward(tape, loss):
            tracer.add("tape_ops", len(tape))
            tracer.add("backward_calls", 1)
            return fn(tape, loss)
        return backward
    if name == "model.mlm_logits":
        def mlm_logits(last_hidden, params, tape=None):
            tracer.add("rows_decoded", int(np.prod(last_hidden.data.shape[:-1])))
            if caller == "evaluate":  # the cloze probe reads one decoded row
                tracer.add("rows_labelled", 1)
            return fn(last_hidden, params, tape)
        return mlm_logits
    if name == "pretrain.apply_masking":
        def apply_masking(*args, **kwargs):
            got, labels = fn(*args, **kwargs)
            tracer.add("mask_draws", 1)
            tracer.add("rows_labelled", int((labels >= 0).sum()))
            return got, labels
        return apply_masking
    if name == "fileio.atomic_write_bytes":
        def atomic_write_bytes(path, data):
            tracer.add("bytes_written", len(data))
            return fn(path, data)
        return atomic_write_bytes
    if name == "model.forward" and caller == "pretrain":
        def forward(ids, attention_mask, *args, **kwargs):
            tracer.add("masked_sequences", np.asarray(ids).shape[0])
            return fn(ids, attention_mask, *args, **kwargs)
        return forward
    return fn


def _tape_class(base, tracer: Tracer):
    class TracingTape(base):
        """Tape whose backward closures run inside a span named after their op."""

        def record(self, backward_fn):
            name = "autodiff.bwd." + (tracer.op or "other")

            def traced():
                idx = tracer.open(name)
                try:
                    backward_fn()
                finally:
                    tracer.close(idx)
            super().record(traced)

    return TracingTape


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route daptlab's cross-module calls through ``tracer`` for the block."""
    saved = []

    def replace(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for mod_name, attr, span_name in BINDINGS:
            module = importlib.import_module(f"daptlab.{mod_name}")
            original = getattr(module, attr)
            layer, _, fn = span_name.partition(".")
            op = fn if layer == "autodiff" else ""
            counted = _counting(span_name, original, tracer, mod_name)
            wrapped = _timed(counted, span_name, tracer, op)
            replace(module, attr, wrapped)
        for mod_name in ("pretrain", "finetune"):
            module = importlib.import_module(f"daptlab.{mod_name}")
            replace(module, "Tape", _tape_class(module.Tape, tracer))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

CLI_STAGES = ("corpus-build", "tokenizer-train", "corpus-stats", "pretrain", "dapt",
              "eval-cluster", "eval-similarity", "finetune-classify", "finetune-tag",
              "forgetting", "report")


def totals(tracer: Tracer) -> dict[str, list]:
    """Span name -> [inclusive seconds, self seconds, calls].

    Self time is a span's duration minus the time its direct children cover.
    """
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    in_children = [0.0] * len(durations)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            in_children[parent] += durations[i]
    out: dict[str, list] = {}
    for i, name in enumerate(tracer.names):
        entry = out.setdefault(name, [0.0, 0.0, 0])
        entry[0] += durations[i]
        entry[1] += durations[i] - in_children[i]
        entry[2] += 1
    return out


def coverage(tracer: Tracer) -> float:
    """Seconds inside module spans that no other module span encloses.

    ``cli.stage.*`` spans are timed from the parent process and are not module
    spans; the ``cli.main`` span inside each is.
    """
    stage = {i for i, name in enumerate(tracer.names) if name.startswith("cli.stage.")}
    return sum(tracer.ends[i] - tracer.starts[i] for i, parent in enumerate(tracer.parents)
               if i not in stage and (parent < 0 or parent in stage))


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per repetition, as name -> (value, unit)."""
    t = totals(tracer)
    counts = tracer.counts

    def incl(*names):
        return sum(t[n][0] for n in names if n in t) / reps

    def own(name):
        return t[name][1] / reps if name in t else 0.0

    def calls(*names):
        return sum(t[n][2] for n in names if n in t) / reps

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in OPS:
        m[f"autodiff.fwd_s.{op}"] = (incl(f"autodiff.{op}"), "s")
        m[f"autodiff.bwd_s.{op}"] = (incl(f"autodiff.bwd.{op}"), "s")
        m[f"autodiff.calls.{op}"] = (calls(f"autodiff.{op}"), "count")
    m["autodiff.backward_s"] = (incl("autodiff.backward"), "s")
    m["autodiff.tape_ops_per_step"] = (ratio("tape_ops", "backward_calls"), "count")
    m["optim.adam_step_s"] = (incl("optim.adam_step"), "s")
    m["optim.calls"] = (calls("optim.adam_step"), "count")
    for fn in ("forward", "mlm_logits", "embed_document"):
        m[f"model.{fn}_s"] = (incl(f"model.{fn}"), "s")
        m[f"model.{fn}_calls"] = (calls(f"model.{fn}"), "count")
    io = ("model.save_checkpoint", "model.load_checkpoint")
    m["model.checkpoint_io_s"] = (incl(*io), "s")
    m["model.checkpoint_io_calls"] = (calls(*io), "count")
    m["model.mlm_useful_row_share"] = (ratio("rows_labelled", "rows_decoded"), "share")
    m["pretrain.masking_s"] = (incl("pretrain.apply_masking"), "s")
    m["pretrain.masking_calls"] = (calls("pretrain.apply_masking"), "count")
    m["pretrain.mask_draws_per_seq"] = (ratio("mask_draws", "masked_sequences"), "count")
    for fn in ("encode_corpus", "perplexity"):
        m[f"pretrain.{fn}_s"] = (incl(f"pretrain.{fn}"), "s")
        m[f"pretrain.{fn}_calls"] = (calls(f"pretrain.{fn}"), "count")
    m["finetune.protocol_s.classify"] = (own("finetune.finetune_classify"), "s")
    m["finetune.protocol_s.tag"] = (own("finetune.finetune_tag"), "s")
    for fn in ("kmeans", "silhouette"):
        m[f"evaluate.{fn}_s"] = (incl(f"evaluate.{fn}"), "s")
        m[f"evaluate.{fn}_calls"] = (calls(f"evaluate.{fn}"), "count")
    m["evaluate.cloze_s"] = (incl("evaluate.evaluate_pairs"), "s")
    m["evaluate.cloze_calls"] = (calls("evaluate.evaluate_pairs"), "count")
    m["tokenizer.train_vocab_s"] = (incl("tokenizer.train_vocab"), "s")
    m["tokenizer.train_vocab_calls"] = (calls("tokenizer.train_vocab"), "count")
    encoders = ("tokenizer.encode", "tokenizer.encode_words")
    m["tokenizer.encode_s"] = (incl(*encoders), "s")
    m["tokenizer.encode_calls"] = (calls(*encoders), "count")
    m["corpus.build_corpus_s"] = (incl("corpus.build_corpus"), "s")
    m["corpus.compute_stats_s"] = (incl("corpus.compute_stats"), "s")
    m["fileio.write_s"] = (incl("fileio.atomic_write_bytes"), "s")
    m["fileio.write_calls"] = (calls("fileio.atomic_write_bytes"), "count")
    m["fileio.bytes_written"] = (counts.get("bytes_written", 0) / reps, "bytes")
    for stage in CLI_STAGES:
        m[f"cli.stage_s.{stage}"] = (incl(f"cli.stage.{stage}"), "s")
    # from the parent launching a stage process to that process entering main()
    startup = sum(tracer.starts[i] - tracer.starts[p] for i, p in enumerate(tracer.parents)
                  if tracer.names[i] == "cli.main" and p >= 0)
    m["cli.startup_s"] = (startup / reps, "s")
    return m
