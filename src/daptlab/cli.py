"""Command-line pipeline runner.

One subcommand per pipeline stage. Exit codes: 0 success, 1 validation error
(single-line `error: <reason>` on stderr), 2 runtime failure. All artifacts
are written atomically into the output directory; re-running a command with
the same config and seed reproduces them byte for byte.
"""

from __future__ import annotations

import os

# BLAS on one thread, whatever the environment says: the trained bytes depend
# on the thread count at some shapes, and the lab is single-core by design.
# This runs before numpy loads, as ``import daptlab`` loads none.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import configparser
import dataclasses
import functools
import importlib
import json
import math
import sys
import typing
from pathlib import Path

from . import __version__
from .corpus import build_corpus, compute_stats, read_corpus, write_corpus
from .fileio import atomic_write_text, read_jsonl
from .tokenizer import Vocab, train_vocab

# The names the commands read from modules that load numpy, by home module.
# The first read of one, ``_cli.train``, imports its home (``__getattr__``)
# and keeps the name here, so a stage loads numpy only if its command
# computes with it, and a name rebound on this module is the one called.
_LAZY = {name: home for home, names in (
    ("numpy", ("np",)),
    (".evaluate", ("SIMILAR", "build_pairs", "cluster_eval", "evaluate_pairs", "load_pairs",
                   "model_cloze_predictor", "render_cluster_report",
                   "render_similarity_report")),
    (".finetune", ("FinetuneConfig", "LabeledTextDataset", "TaggedTokenDataset",
                   "finetune_classify", "finetune_tag")),
    (".model", ("ModelConfig", "init_params", "load_checkpoint", "save_checkpoint")),
    (".pretrain", ("TrainConfig", "corpus_token_count", "dapt", "train")),
) for name in names}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(home, __package__)
    value = module if name == "np" else getattr(module, name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]  # this module, also when run as __main__


# ---------------------------------------------------------------------------
# configuration

def load_config(path: str | None, overrides: list[str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str
    if path is not None:
        if not Path(path).is_file():
            raise ValueError(f"config file not found: {path}")
        try:
            cp.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ValueError(f"bad config file {path}: {exc}") from None
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or "." not in key:
            raise ValueError(f"bad --set override {item!r} (expected section.key=value)")
        section, option = key.rsplit(".", 1)  # sections may be dotted (train.base)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option.strip(), value.strip())
    return cp


def cfg_get(cp, section: str, key: str, default, cast=str):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ValueError(f"bad config value [{section}] {key} = {raw!r}") from None


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.replace(",", " ").split())


def cfg_path(cp, key: str, flag_value, what: str):
    """Resolve an input path from a flag or [paths]; must exist."""
    value = flag_value if flag_value is not None else cfg_get(cp, "paths", key, None)
    if value is None:
        raise ValueError(f"{what} not configured (set [paths] {key} or pass the flag)")
    path = Path(value)
    if not path.is_file():
        raise ValueError(f"{what} not found: {path}")
    return path


def out_dir_of(args, cp) -> Path:
    """The output directory; the first artifact written there creates it
    (``fileio.atomic_write_bytes``), so a stage that fails first leaves none."""
    return Path(args.out if args.out is not None else cfg_get(cp, "paths", "out", "runs"))


# The INI keys each config dataclass reads from its own section. One with a
# max_seq field takes it from [model] max_seq.
_MODEL_KEYS = ("num_layers", "hidden", "num_heads", "ffn_dim", "dropout")
_TRAIN_KEYS = ("peak_lr", "epochs", "batch_size", "weight_decay", "warmup_steps", "seed")
_FINETUNE_KEYS = ("lr", "epochs", "batch_size", "weight_decay")


def _from_ini(cp, section: str, keys, base, **given):
    """A copy of the config dataclass ``base`` with each of ``keys`` read from
    ``[section]``, a max_seq field from ``[model]``, and the ``given`` values
    set as they are. A key left out keeps ``base``'s value; a value read is
    cast to its field's annotated type."""
    hints = typing.get_type_hints(type(base))
    sections = dict.fromkeys(keys, section)
    if "max_seq" in hints:
        sections["max_seq"] = "model"
    read = {name: cfg_get(cp, where, name, getattr(base, name), hints[name])
            for name, where in sections.items() if name not in given}
    return dataclasses.replace(base, **read, **given)


def model_config_from(cp, vocab_size: int) -> ModelConfig:
    return _from_ini(cp, "model", _MODEL_KEYS, _cli.ModelConfig.desk(vocab_size))


def train_config_from(cp, section: str, default_lr: float, seed_override) -> TrainConfig:
    given = {} if seed_override is None else {"seed": seed_override}
    return _from_ini(cp, section, _TRAIN_KEYS, _cli.TrainConfig(peak_lr=default_lr), **given)


def _load_texts(path: Path) -> list[str]:
    return [doc.text for doc in read_corpus(path)]


def _load_vocab(cp, flag_value) -> Vocab:
    return Vocab.load(cfg_path(cp, "vocab", flag_value, "vocab file"))


def _load_model(cp, flag_value, vocab: Vocab):
    path = cfg_path(cp, "checkpoint", flag_value, "checkpoint")
    params, config = _cli.load_checkpoint(path)
    if config.vocab_size != len(vocab.pieces):
        raise ValueError(f"vocab size {len(vocab.pieces)} does not match checkpoint "
                         f"vocab_size {config.vocab_size}")
    return params, config, path


def _file_name(value: str, what: str) -> str:
    """``value``, checked before it names an output file: one non-empty path
    component, not . or .., and no tab or line break, as the TSV reports
    that carry it split on those."""
    if value in ("", ".", "..") or Path(value).name != value or set(value) & set("\t\r\n"):
        raise ValueError(f"bad {what} {value!r}: a name is one path component, "
                         "not . or .., with no tab or line break")
    return value


def _model_name(args, path: Path) -> str:
    return _file_name(args.model_name or path.stem, "model name")


def _read_records(path: Path, what: str) -> list[dict]:
    records = []
    for lineno, rec in read_jsonl(path):
        if rec is None:
            raise ValueError(f"{what} line {lineno}: malformed JSON")
        if not isinstance(rec, dict):
            raise ValueError(f"{what} line {lineno}: expected an object")
        records.append(rec)
    if not records:
        raise ValueError(f"{what} is empty: {path}")
    return records


# ---------------------------------------------------------------------------
# commands

def cmd_corpus_build(args, cp) -> int:
    dumps = [Path(p) for p in args.dumps] if args.dumps else None
    if dumps is None:
        raw = cfg_get(cp, "paths", "dumps", None)
        if raw is None:
            raise ValueError("no dump files given (positional args or [paths] dumps)")
        dumps = [Path(p) for p in raw.split()]
    for dump in dumps:
        if not dump.is_file():
            raise ValueError(f"dump file not found: {dump}")
    out = out_dir_of(args, cp)
    documents, report, skipped = build_corpus(dumps)
    write_corpus(documents, out / "corpus.jsonl")
    atomic_write_text(out / "drop_report.tsv", report.render())
    print(f"kept {len(documents)} documents ({sum(report.dropped.values())} dropped, "
          f"{skipped} skipped lines)")
    print(f"wrote {out / 'corpus.jsonl'} and {out / 'drop_report.tsv'}")
    return 0


def cmd_corpus_stats(args, cp) -> int:
    out = out_dir_of(args, cp)
    documents = read_corpus(cfg_path(cp, "corpus", args.corpus, "corpus file"))
    vocab = _load_vocab(cp, args.vocab)
    table = compute_stats(documents, vocab).render()
    atomic_write_text(out / "corpus_stats.tsv", table)
    print(table, end="")
    print(f"wrote {out / 'corpus_stats.tsv'}")
    return 0


def cmd_tokenizer_train(args, cp) -> int:
    out = out_dir_of(args, cp)
    texts = _load_texts(cfg_path(cp, "corpus", args.corpus, "corpus file"))
    vocab = train_vocab(
        texts,
        target_size=cfg_get(cp, "tokenizer", "vocab_size", 800, int),
        min_frequency=cfg_get(cp, "tokenizer", "min_frequency", 2, int),
    )
    vocab.save(out / "vocab.txt")
    print(f"trained vocab of {len(vocab.pieces)} pieces")
    print(f"wrote {out / 'vocab.txt'}")
    return 0


def _save_trained(out: Path, name: str, params, config, log, done: str) -> int:
    ckpt, loss = out / f"{name}.ckpt", out / f"{name}_loss.tsv"
    _cli.save_checkpoint(params, config, ckpt)
    atomic_write_text(loss, log.render())
    final = f"{log.entries[-1][1]:.6f}" if log.entries else "n/a"
    print(f"{done} {len(log.entries)} steps, final loss {final}")
    print(f"wrote {ckpt} and {loss}")
    return 0


def cmd_pretrain(args, cp) -> int:
    out, name = out_dir_of(args, cp), _file_name(args.name, "checkpoint name")
    vocab = _load_vocab(cp, args.vocab)
    texts = _load_texts(cfg_path(cp, "corpus", args.corpus, "corpus file"))
    config = model_config_from(cp, len(vocab.pieces))
    train_config = train_config_from(cp, "train.base", 1e-4, args.seed)
    params = _cli.init_params(config, train_config.seed)
    log = _cli.train(config, params, texts, vocab, train_config)
    return _save_trained(out, name, params, config, log, "trained")


def cmd_dapt(args, cp) -> int:
    out, name = out_dir_of(args, cp), _file_name(args.name, "checkpoint name")
    vocab = _load_vocab(cp, args.vocab)
    domain_texts = _load_texts(cfg_path(cp, "domain_corpus", args.corpus, "domain corpus"))
    base_params, config, _ = _load_model(cp, args.checkpoint, vocab)
    base_config = train_config_from(cp, "train.base", 1e-4, None)
    dapt_config = train_config_from(cp, "train.dapt", 2e-5, args.seed)
    base_tokens = None
    if cfg_get(cp, "paths", "corpus", None) is None:
        print("note: [paths] corpus is not set; skipping the corpus-size guard",
              file=sys.stderr)
    else:
        base_corpus = cfg_path(cp, "corpus", None, "base corpus")
        base_tokens = _cli.corpus_token_count(_load_texts(base_corpus), vocab)
    adapted, log = _cli.dapt(config, base_params, domain_texts, vocab, dapt_config,
                             base_config, base_token_count=base_tokens)
    return _save_trained(out, name, adapted, config, log, "adapted for")


def cmd_eval_cluster(args, cp) -> int:
    out = out_dir_of(args, cp)
    vocab = _load_vocab(cp, args.vocab)
    params, config, ckpt = _load_model(cp, args.checkpoint, vocab)
    name = _model_name(args, ckpt)
    texts = _load_texts(cfg_path(cp, "eval_corpus", args.corpus, "evaluation corpus"))
    k_min = cfg_get(cp, "eval", "k_min", 5, int)
    k_max = cfg_get(cp, "eval", "k_max", 9, int)
    if k_max < k_min:
        raise ValueError(f"bad k range: k_min {k_min} > k_max {k_max}")
    seed = args.seed if args.seed is not None else cfg_get(cp, "eval", "seed", 0, int)
    runs = _cli.cluster_eval(config, params, vocab, texts,
                             k_values=range(k_min, k_max + 1), seed=seed)
    table = _cli.render_cluster_report(name, runs)
    atomic_write_text(out / f"cluster_{name}.tsv", table)
    print(table, end="")
    print(f"wrote {out / ('cluster_' + name + '.tsv')}")
    return 0


def cmd_eval_similarity(args, cp) -> int:
    out = out_dir_of(args, cp)
    vocab = _load_vocab(cp, args.vocab)
    params, config, ckpt = _load_model(cp, args.checkpoint, vocab)
    name = _model_name(args, ckpt)
    pairs = _cli.load_pairs(cfg_path(cp, "pairs", args.pairs, "word pair file"))
    seed = args.seed if args.seed is not None else cfg_get(cp, "eval", "seed", 0, int)
    if all(pair.label == _cli.SIMILAR for pair in pairs):
        n_pos = len(pairs)
        pairs = _cli.build_pairs(pairs, _cli.np.random.default_rng(seed))
        print(f"balanced {n_pos} positive pairs with {len(pairs) - n_pos} "
              f"sampled negatives")
    predictor = _cli.model_cloze_predictor(config, params, vocab)
    f1, predictions = _cli.evaluate_pairs(pairs, predictor)
    table = _cli.render_similarity_report(name, f1, predictions)
    atomic_write_text(out / f"similarity_{name}.tsv", table)
    print(f"{name}\tf1={f1:.6f}")
    print(f"wrote {out / ('similarity_' + name + '.tsv')}")
    return 0


def _cmd_finetune(args, cp, kind: str) -> int:
    """finetune-classify (kind "classify") and finetune-tag (kind "tag")."""
    out = out_dir_of(args, cp)
    vocab = _load_vocab(cp, args.vocab)
    params, config, ckpt = _load_model(cp, args.checkpoint, vocab)
    if args.seed is not None:
        seeds = tuple(range(args.seed, args.seed + 5))
    else:
        seeds = cfg_get(cp, "finetune", "seeds", (0, 1, 2, 3, 4), _int_list)
    ft = _from_ini(cp, "finetune", _FINETUNE_KEYS, _cli.FinetuneConfig())
    what = "classification data" if kind == "classify" else "tagging data"
    data_path = cfg_path(cp, f"{kind}_data", args.data, what)
    records = _read_records(data_path, what)
    split_seed = cfg_get(cp, "finetune", "split_seed", 0, int)
    if kind == "classify":
        dataset = _cli.LabeledTextDataset.from_records(
            records, positive_label=cfg_get(cp, "finetune", "positive_label", None),
            seed=split_seed)
        run, metric = _cli.finetune_classify, "f1"
    else:
        dataset = _cli.TaggedTokenDataset.from_records(records, seed=split_seed)
        run, metric = _cli.finetune_tag, "span f1"
    task = _file_name(args.task or data_path.stem, "task name")
    if "_" in task:  # else (a_b, c) and (a, b_c) would write one file
        raise ValueError(f"bad task name {task!r}: a task name has no '_', as '_' "
                         f"ends it in the result file {kind}_<task>_<model>.tsv")
    name = _model_name(args, ckpt)
    report = run(config, params, vocab, dataset, seeds, ft, task=task, model_name=name)
    path = out / f"{kind}_{task}_{name}.tsv"
    atomic_write_text(path, report.render())
    print(f"{task}\t{name}\t{metric}={report.formatted}")
    print(f"wrote {path}")
    return 0


def _read_scores(path: Path, what: str) -> dict[str, float]:
    try:
        with open(path, encoding="utf-8") as handle:
            # integers read as floats, so one too large for a float is inf
            data = json.load(handle, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not data:
        raise ValueError(f"{what} must be a non-empty JSON object of task -> score")
    scores = {}
    for task, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{what}: score for task {task!r} is not a number")
        if not math.isfinite(value):
            raise ValueError(f"{what}: score for task {task!r} is not a finite number")
        scores[str(task)] = float(value)
    return scores


@dataclasses.dataclass(frozen=True)
class ForgettingRow:
    task: str
    base: float
    adapted: float

    @property
    def delta(self) -> float:
        return self.adapted - self.base

    @property
    def improved(self) -> bool:
        return self.delta > 0.0


@dataclasses.dataclass
class ForgettingReport:
    rows: list[ForgettingRow]

    @property
    def mean_delta(self) -> float:
        return sum(r.delta for r in self.rows) / len(self.rows)

    def render(self) -> str:
        lines = ["task\tbase\tadapted\tdelta\tnote"]
        for r in self.rows:
            note = "improved" if r.improved else "-"
            lines.append(f"{r.task}\t{r.base:.4f}\t{r.adapted:.4f}"
                         f"\t{r.delta:+.4f}\t{note}")
        lines.append(f"mean\t-\t-\t{self.mean_delta:+.4f}\t-")
        return "\n".join(lines) + "\n"


def forgetting_report(base_scores, adapted_scores) -> ForgettingReport:
    """Per-task deltas (adapted - base) over identical task sets."""
    base = dict(base_scores)
    adapted = dict(adapted_scores)
    if not base:
        raise ValueError("no tasks to compare")
    if set(base) != set(adapted):
        only_base = sorted(set(base) - set(adapted))
        only_adapted = sorted(set(adapted) - set(base))
        raise ValueError(f"task sets differ: only in base {only_base}, "
                         f"only in adapted {only_adapted}")
    rows = [ForgettingRow(task, float(base[task]), float(adapted[task]))
            for task in base]
    return ForgettingReport(rows=rows)


def cmd_forgetting(args, cp) -> int:
    out = out_dir_of(args, cp)
    base = _read_scores(cfg_path(cp, "base_scores", args.base, "base score file"),
                        "base score file")
    adapted = _read_scores(
        cfg_path(cp, "adapted_scores", args.adapted, "adapted score file"),
        "adapted score file")
    report = forgetting_report(base, adapted)
    atomic_write_text(out / "forgetting.tsv", report.render())
    print(report.render(), end="")
    print(f"wrote {out / 'forgetting.tsv'}")
    return 0


# ---------------------------------------------------------------------------
# consolidated report

def _merge_grid(rows: list[str], columns: list[str],
                cells: dict[tuple[str, str], tuple[str, float]],
                row_label: str) -> list[str]:
    """One line per row; a missing cell reads "-", and once a row has two or
    more cells, every cell holding its best mean is starred."""
    lines = [row_label + "\t" + "\t".join(columns)]
    for row in rows:
        got = [cells.get((row, column), ("-", None)) for column in columns]
        means = [mean for _, mean in got if mean is not None]
        best = max(means) if len(means) >= 2 else None
        text = [value + "*" if best is not None and mean == best else value
                for value, mean in got]
        lines.append(row + "\t" + "\t".join(text))
    return lines


def _parse_table(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    return [line.split("\t") for line in lines]


def _collect_cells(entries, what: str):
    """entries: (row, column, display, mean, source). Errors on duplicates."""
    cells: dict[tuple[str, str], tuple[str, float]] = {}
    sources: dict[tuple[str, str], str] = {}
    duplicates = []
    for row, column, display, mean, source in entries:
        key = (row, column)
        if key in cells:
            duplicates.append(f"{what} row {row!r} model {column!r} "
                              f"(files {sources[key]}, {source})")
            continue
        cells[key] = (display, mean)
        sources[key] = source
    if duplicates:
        raise ValueError("conflicting duplicate rows: " + "; ".join(duplicates))
    return cells


def _cluster_rows(path: Path, table):
    for row in table[1:]:
        if len(row) != 3:
            raise ValueError(f"malformed cluster report {path.name}: {row!r}")
        model, k, value = row
        yield k, model, value, float(value), path.name


def _similarity_rows(path: Path, table):
    if len(table) < 2 or len(table[1]) != 2:
        raise ValueError(f"malformed similarity report {path.name}")
    model, value = table[1]
    yield "f1", model, value, float(value), path.name


def _run_rows(path: Path, table):
    if len(table) < 2 or len(table[1]) < 6:
        raise ValueError(f"malformed run report {path.name}")
    task, model, metric, mean, _, formatted = table[1][:6]
    yield f"{task} ({metric})", model, formatted, float(mean), path.name


# One report section per result-file kind: (file glob, title, row label, row
# parser yielding (row, model, display, mean, source), row sort key).
_REPORT_SECTIONS = (
    ("cluster_*.tsv", "clustering (silhouette)", "k", _cluster_rows, int),
    ("similarity_*.tsv", "word similarity (cloze)", "metric", _similarity_rows, str),
    ("classify_*.tsv", "classification (mean (std) over seeds)", "task", _run_rows, str),
    ("tag_*.tsv", "tagging (mean (std) over seeds)", "task", _run_rows, str),
)


def cmd_report(args, cp) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ValueError(f"run directory not found: {run_dir}")
    found = [(section, sorted(run_dir.glob(section[0]))) for section in _REPORT_SECTIONS]
    forgetting_file = run_dir / "forgetting.tsv"
    if not (any(files for _, files in found) or forgetting_file.is_file()):
        raise ValueError(f"no result files found in {run_dir} (expected cluster_*.tsv, "
                         "similarity_*.tsv, classify_*.tsv, tag_*.tsv, forgetting.tsv)")

    sections: list[str] = []
    for (_, title, row_label, parse_rows, row_key), files in found:
        if not files:
            continue
        entries = (entry for path in files for entry in parse_rows(path, _parse_table(path)))
        cells = _collect_cells(entries, f"{title.split(' (')[0]} {row_label}")
        rows = sorted({row for row, _ in cells}, key=row_key)
        models = sorted({model for _, model in cells})
        lines = _merge_grid(rows, models, cells, row_label)
        sections.append(f"# {title}\n" + "\n".join(lines))

    if forgetting_file.is_file():
        sections.append("# forgetting\n" + forgetting_file.read_text(encoding="utf-8").rstrip())

    text = "\n\n".join(sections) + "\n"
    atomic_write_text(run_dir / "report.txt", text)
    print(text, end="")
    print(f"wrote {run_dir / 'report.txt'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1 (not argparse's default 2) with usage text."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Flags that several commands share: name -> add_argument keywords.
_FLAGS = {
    "--corpus": dict(help="curated corpus JSONL"),
    "--vocab": dict(help="vocab file"),
    "--checkpoint": dict(help="model checkpoint"),
    "--task": dict(help="task name (default: data file stem)"),
    "--model-name": dict(help="name in the report (default: checkpoint stem)"),
    "--config": dict(help="INI config file"),
    "--set": dict(action="append", metavar="SECTION.KEY=VALUE",
                  help="override a config value (repeatable)"),
    "--out": dict(help="output directory (default: [paths] out or ./runs)"),
    "--seed": dict(type=int, help="override the command's seed"),
}
_CONFIGURED = ("--config", "--set", "--out")
_SEEDED = (*_CONFIGURED, "--seed")

# One row per command: (name, handler, help, flags). A flag is a name in
# _FLAGS or a (name, add_argument keywords) pair of the command's own.
_COMMANDS = (
    ("corpus-build", cmd_corpus_build, "filter/dedupe raw dumps into a corpus",
     (("dumps", dict(nargs="*", help="raw JSONL dump files")), *_CONFIGURED)),
    ("corpus-stats", cmd_corpus_stats, "per-source token statistics table",
     ("--corpus", "--vocab", *_CONFIGURED)),
    ("tokenizer-train", cmd_tokenizer_train, "train a WordPiece vocab",
     ("--corpus", *_CONFIGURED)),
    ("pretrain", cmd_pretrain, "train a base model from scratch",
     ("--corpus", "--vocab",
      ("--name", dict(default="base", help="checkpoint name (default base)")), *_SEEDED)),
    ("dapt", cmd_dapt, "continue pretraining on a domain corpus",
     (("--corpus", dict(help="domain corpus JSONL")), "--vocab",
      ("--checkpoint", dict(help="base checkpoint")),
      ("--name", dict(default="dapt", help="checkpoint name (default dapt)")), *_SEEDED)),
    ("eval-cluster", cmd_eval_cluster, "k-means silhouette over embeddings",
     (("--corpus", dict(help="evaluation corpus JSONL")), "--vocab", "--checkpoint",
      "--model-name", *_SEEDED)),
    ("eval-similarity", cmd_eval_similarity, "zero-shot cloze word similarity",
     (("--pairs", dict(help="word pair JSONL")), "--vocab", "--checkpoint",
      "--model-name", *_SEEDED)),
    ("finetune-classify", functools.partial(_cmd_finetune, kind="classify"),
     "5-seed classification fine-tune",
     (("--data", dict(help="labeled JSONL (text/label)")), "--vocab", "--checkpoint",
      "--task", "--model-name", *_SEEDED)),
    ("finetune-tag", functools.partial(_cmd_finetune, kind="tag"),
     "5-seed IOB tagging fine-tune",
     (("--data", dict(help="tagged JSONL (tokens/tags)")), "--vocab", "--checkpoint",
      "--task", "--model-name", *_SEEDED)),
    ("forgetting", cmd_forgetting, "base vs adapted score deltas",
     (("--base", dict(help="JSON file of task -> base score")),
      ("--adapted", dict(help="JSON file of task -> adapted score")), *_CONFIGURED)),
    # report reads no config value and always writes into run_dir; it keeps
    # --config because demo 06 and the benchmark's cli_pipeline workload pass it
    ("report", cmd_report, "merge run artifacts into one summary",
     (("run_dir", dict(help="directory with result files")), "--config")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="daptlab",
                     description="Desk-scale domain-adaptive pretraining pipeline.")
    parser.add_argument("--version", action="version", version=f"daptlab {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, func, help_text, flags in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        for flag in flags:
            flag, keywords = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            sub.add_argument(flag, **keywords)
        # main hands args.set to load_config for every command, report included,
        # and reports a flag the command does not take through its own parser
        sub.set_defaults(func=func, set=[], parser=sub)
    return parser


def _single_line(text: str) -> str:
    return " ".join(str(text).split())


def main(argv=None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(unread)}")
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 1
    try:
        cp = load_config(args.config, args.set)
        return args.func(args, cp)
    except (ValueError, OSError) as exc:
        print(f"error: {_single_line(exc)}", file=sys.stderr)
        return 1
    except Exception as exc:  # a diverged run, or any other runtime failure
        # only a stage that loaded pretrain can diverge; the rest never import it
        pretrain = sys.modules.get(f"{__package__}.pretrain")
        if pretrain is not None and isinstance(exc, pretrain.TrainingDiverged):
            print(f"error: {_single_line(exc)}", file=sys.stderr)
        else:
            print(f"error: unexpected failure: {_single_line(repr(exc))}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
