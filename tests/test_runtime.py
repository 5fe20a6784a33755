"""The runtime in fresh interpreters: imports, the CLI stages that load no
numpy, declared dependencies, and trained bytes that do not depend on the
BLAS thread count; what the benchmark's tracer, which patches names from
outside the package, relies on; and the demo-06 chain that the demo and the
benchmark both run."""

import ast
import ctypes
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import daptlab

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(daptlab.__file__).resolve().parents[1]


def run_python(*args, **env):
    """Run ``python *args`` in a fresh interpreter that imports daptlab from this
    checkout; returns its stdout split on whitespace."""
    full_env = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    full_env.update(env)
    done = subprocess.run([sys.executable, *args], env=full_env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = run_python("-c", "import sys, daptlab\n"
                              "print(*sorted(m for m in sys.modules\n"
                              "              if m.split('.')[0] in ('daptlab', 'numpy')))")
    assert loaded == ["daptlab"]


def test_cli_import_loads_no_scipy():
    loaded = run_python("-c", "import sys, daptlab.cli\n"
                              "print(*sorted(m for m in sys.modules\n"
                              "              if m.split('.')[0] == 'scipy'))")
    assert loaded == []


def test_cli_import_loads_no_numpy():
    loaded = run_python("-c", "import sys, daptlab.cli\n"
                              "print(*sorted(m for m in sys.modules\n"
                              "              if m.split('.')[0] == 'numpy'))")
    assert loaded == []


def test_cli_lazy_names_resolve_to_their_homes():
    from daptlab import cli

    for name, home in cli._LAZY.items():
        module = importlib.import_module(home, "daptlab")
        assert getattr(cli, name) is (module if name == "np" else getattr(module, name)), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


# Runs ``cli.main`` on its arguments, then prints its exit code and whether
# any numpy module was loaded, after a marker that follows the stage's output.
STAGE = """
import sys
from daptlab import cli
code = cli.main(sys.argv[1:])
print("--stage-done--", code, any(m.split(".")[0] == "numpy" for m in sys.modules))
"""


def write_light_stage_inputs(root: Path) -> list[list[str]]:
    """A dump and two score files in root; returns the argv of each stage
    that computes nothing with numpy, in chain order, into root / "run"."""
    texts = ["heap overflow in the parser", "the parser reads past the buffer",
             "overflow in the buffer of the reader", "heap reader overflow"]
    (root / "dump.jsonl").write_text("".join(
        json.dumps({"id": f"n{i}", "source": "nvd", "text": text}) + "\n"
        for i, text in enumerate(texts)), encoding="utf-8")
    (root / "base.json").write_text('{"ner": 0.8, "cls": 0.9}', encoding="utf-8")
    (root / "adapted.json").write_text('{"ner": 0.85, "cls": 0.88}', encoding="utf-8")
    run = root / "run"
    out = ["--out", str(run)]
    return [["corpus-build", str(root / "dump.jsonl"), *out],
            ["tokenizer-train", "--corpus", str(run / "corpus.jsonl"), *out],
            ["corpus-stats", "--corpus", str(run / "corpus.jsonl"),
             "--vocab", str(run / "vocab.txt"), *out],
            ["forgetting", "--base", str(root / "base.json"),
             "--adapted", str(root / "adapted.json"), *out],
            ["report", str(run)]]


def test_light_stages_load_no_numpy(tmp_path):
    for argv in write_light_stage_inputs(tmp_path):
        out = run_python("-c", STAGE, *argv)
        assert out[out.index("--stage-done--") + 1:] == ["0", "False"], argv
    # an error exits 1, and matching it against a diverged run imports nothing
    out = run_python("-c", STAGE, "corpus-build", str(tmp_path / "nope.jsonl"))
    assert out[out.index("--stage-done--") + 1:] == ["1", "False"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "corpus.jsonl", "corpus_stats.tsv", "drop_report.tsv", "forgetting.tsv",
        "report.txt", "vocab.txt"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    deps = project["dependencies"]
    assert len(deps) == 1 and deps[0].startswith("numpy")


# Trains a desk-geometry model for 3 epochs (batch 64, so the matmuls are large
# enough for OpenBLAS to split them across threads) and prints the BLAS thread
# count when the library reports it (-1 otherwise) and the parameters' sha256.
PROBE = """
import ctypes, glob, hashlib, os
import numpy as np
from daptlab.model import ModelConfig, init_params
from daptlab.pretrain import TrainConfig, train
from daptlab.synth import PATTERN_WORDS, patterned_corpus
from daptlab.tokenizer import SPECIAL_TOKENS, Vocab

threads = -1
for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            get_threads = getattr(lib, sym)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = get_threads()
            break
vocab = Vocab(SPECIAL_TOKENS + PATTERN_WORDS)
config = ModelConfig.desk(len(vocab), max_seq=32)
params = init_params(config, seed=0)
train(config, params, patterned_corpus(192), vocab,
      TrainConfig(peak_lr=2e-3, epochs=3, batch_size=64, warmup_steps=2))
digest = hashlib.sha256()
for name in sorted(params):
    digest.update(name.encode() + params[name].data.tobytes())
print(threads, digest.hexdigest())
"""


def test_trained_bytes_independent_of_blas_threads():
    one = run_python("-c", PROBE, OPENBLAS_NUM_THREADS="1")
    two = run_python("-c", PROBE, OPENBLAS_NUM_THREADS="2")
    assert one[0] in ("1", "-1") and two[0] in ("2", "-1")
    assert one[1] == two[1]


# A CLI pretrain at a geometry where, without the CLI's pin, two BLAS threads
# give other bytes than one: at batch 64 and 60-125-word documents the pruned
# last layer's and the MLM head's weight gradients run over 500+ masked rows.
CLI_PRETRAIN_SETS = ["model.num_layers=1", "model.hidden=64", "model.num_heads=4",
                     "model.ffn_dim=256", "model.max_seq=128", "model.dropout=0.0",
                     "train.base.batch_size=64", "train.base.epochs=2",
                     "train.base.warmup_steps=1"]


def test_cli_bytes_independent_of_blas_threads(tmp_path):
    import numpy as np
    from daptlab.corpus import Document, write_corpus
    from daptlab.tokenizer import train_vocab

    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lexicon = ["".join(rng.choice(letters, rng.integers(3, 10))) for _ in range(400)]
    texts = [" ".join(rng.choice(lexicon, rng.integers(60, 126))) for _ in range(128)]
    write_corpus([Document(f"d{i}", "nvd", text) for i, text in enumerate(texts)],
                 tmp_path / "corpus.jsonl")
    train_vocab(texts, target_size=300, min_frequency=1).save(tmp_path / "vocab.txt")
    sets = [arg for item in CLI_PRETRAIN_SETS for arg in ("--set", item)]
    start = time.perf_counter()
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_python("-m", "daptlab.cli", "pretrain", "--corpus", str(tmp_path / "corpus.jsonl"),
                   "--vocab", str(tmp_path / "vocab.txt"), "--out", str(out), *sets,
                   OPENBLAS_NUM_THREADS=threads)
        digests.append(hashlib.sha256((out / "base.ckpt").read_bytes()).hexdigest())
    assert time.perf_counter() - start < 10.0
    assert digests[0] == digests[1]


OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads")


def test_suite_runs_blas_on_one_thread():
    # conftest.py pins the thread count before numpy loads, as cli.py does;
    # this reads it back from the OpenBLAS this process loaded
    import numpy  # noqa: F401  (loads the BLAS)

    maps = Path("/proc/self/maps")
    if not maps.is_file():
        pytest.skip("no /proc/self/maps to find the loaded BLAS in")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in OPENBLAS_THREAD_GETTERS:
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                assert getter() == 1
                return
    pytest.skip("numpy's BLAS is not OpenBLAS")


# The op labels the benchmark's tracer gives the backward closures of a
# dropout-free MLM step. Each op must record its closure while its own forward
# runs; one recorded anywhere else is labelled "autodiff.bwd.other".
TRACED_BACKWARD_OPS = ("add", "cross_entropy_masked", "gather_rows", "gelu",
                       "layer_norm", "matmul", "reshape", "softmax", "transpose")


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_labels_each_backward_with_its_op_and_restores_bindings():
    from daptlab.model import ModelConfig, init_params
    from daptlab.pretrain import TrainConfig, train
    from daptlab.synth import PATTERN_WORDS, patterned_corpus
    from daptlab.tokenizer import SPECIAL_TOKENS, Vocab

    spans = load_perfbench("spans")
    bound = [(mod, attr) for mod, attr, _ in spans.BINDINGS]
    bound += [("pretrain", "Tape"), ("finetune", "Tape")]
    modules = {mod: importlib.import_module(f"daptlab.{mod}") for mod, _ in bound}
    originals = [getattr(modules[mod], attr) for mod, attr in bound]

    vocab = Vocab(SPECIAL_TOKENS + PATTERN_WORDS)
    config = ModelConfig(num_layers=1, hidden=8, num_heads=2, ffn_dim=16,
                         vocab_size=len(vocab), max_seq=16, dropout=0.0)
    params = init_params(config, seed=0)
    with spans.installed(spans.Tracer()) as tracer:
        log = train(config, params, patterned_corpus(8), vocab,
                    TrainConfig(peak_lr=1e-3, epochs=1, batch_size=4, warmup_steps=1))
    assert [step for step, _ in log.entries] == [1, 2]
    backward_spans = {name for name in tracer.names if name.startswith("autodiff.bwd.")}
    assert backward_spans == {f"autodiff.bwd.{op}" for op in TRACED_BACKWARD_OPS}
    for (mod, attr), original in zip(bound, originals):
        assert getattr(modules[mod], attr) is original, f"daptlab.{mod}.{attr}"


def test_tracer_wraps_what_cli_commands_call(tmp_path):
    """A command calls what is bound on ``daptlab.cli`` when it runs: a name
    imported at the top, or one of the lazy table resolved on first use. The
    spans checked are of names the tracer binds on ``cli`` only."""
    from daptlab import cli

    spans = load_perfbench("spans")
    bound = [(mod, attr) for mod, attr, _ in spans.BINDINGS]
    modules = {mod: importlib.import_module(f"daptlab.{mod}") for mod, _ in bound}
    # resolves cli's lazy names before the tracer does: one first resolved
    # inside ``installed`` can copy another module's wrapper (ROADMAP item 1a)
    originals = [getattr(modules[mod], attr) for mod, attr in bound]

    stages = write_light_stage_inputs(tmp_path)[:3]
    run = tmp_path / "run"
    tiny = [f"{key}={value}" for key, value in (
        ("model.num_layers", 1), ("model.hidden", 8), ("model.num_heads", 2),
        ("model.ffn_dim", 16), ("model.max_seq", 16), ("train.base.epochs", 1),
        ("train.base.batch_size", 2), ("train.base.warmup_steps", 1))]
    stages.append(["pretrain", "--corpus", str(run / "corpus.jsonl"),
                   "--vocab", str(run / "vocab.txt"), "--out", str(run),
                   *(arg for item in tiny for arg in ("--set", item))])
    with spans.installed(spans.Tracer()) as tracer:
        for argv in stages:
            assert cli.main(argv) == 0, argv
    assert {"corpus.build_corpus", "tokenizer.train_vocab", "corpus.compute_stats",
            "model.save_checkpoint"} <= set(tracer.names)
    for (mod, attr), original in zip(bound, originals):
        assert getattr(modules[mod], attr) is original, f"daptlab.{mod}.{attr}"


def test_src_imports_only_what_it_uses():
    """Each name a ``daptlab`` module imports at top level is read in that
    module, or is a binding the tracer replaces there."""
    allowed = {(mod, attr) for mod, attr, _ in load_perfbench("spans").BINDINGS}
    allowed |= {("pretrain", "Tape"), ("finetune", "Tape")}
    unused = []
    for path in sorted((SRC / "daptlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"daptlab.{path.stem}.{name}" for name in imported
                   if name not in read and (path.stem, name) not in allowed]
    assert unused == []


def test_demo_chain_runs_every_command_with_flags_it_takes(tmp_path):
    """demos/06_cli_pipeline.sh and the cli_pipeline workload run the chain in
    perfbench/workloads.py: it writes the seven inputs, its stages name every
    command, and each stage's argv parses with nothing unread."""
    from daptlab import cli

    workloads = load_perfbench("workloads")
    workloads.write_demo_inputs(tmp_path, 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "adapted_scores.json", "base_scores.json", "classify.jsonl", "domain.jsonl",
        "dump.jsonl", "pairs.jsonl", "tagged.jsonl"]
    stages = workloads.demo_stages(tmp_path, tmp_path / "run")
    assert len(stages) == 13
    assert {argv[0] for argv in stages} == {name for name, *_ in cli._COMMANDS}
    parser = cli.build_parser()
    for argv in stages:
        args, unread = parser.parse_known_args(argv)
        assert (args.command, unread) == (argv[0], []), argv
