"""daptlab benchmark: one closed-loop workload per call, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pretrain_b64 --seed 1 --seconds 20 --trace 0

Workloads: pretrain_b64 and cli_pipeline, the two in BENCHMARK.json, and
eval_probes, run by hand (see perfbench/README.md). The workload's inputs are
made from --seed; set-up runs several times and ``setup_s`` is its median. The
loop then repeats the workload until --seconds have passed, and checks every
repetition's outputs. Times are CPU seconds rescaled by a reference pass
(speed.py) timed between them, so that the host's slow phases cancel out.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions (spans around every call into a daptlab module, recorded
from this directory only) until --seconds have passed, checks that the traced
outputs equal the untraced ones, and prints the per-layer metrics. Spans are
written to .perfbench/trace-<workload>-seed<n>.json.

Lines before the last are for people. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# One BLAS thread, as the package is designed for, here and in every stage
# process; this must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import speed

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUPS = 9          # set-ups per run at least; setup_s is their median
PAUSE_SETUP_S = 0.5  # set-up CPU time to spend in each pause, at most
PAUSE_SETUPS = 5     # set-ups in each pause, at most (and at least one)
MIN_REPS = 2        # repetitions whose outputs (output directories) are compared

clock = time.perf_counter


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the pinned variable."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return os.environ["OPENBLAS_NUM_THREADS"]


def machine(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    if Path("/proc/cpuinfo").is_file():
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    return {"cores": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "python": platform.python_version(),
            "seed": seed}


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def reference(reps) -> str:
    """Outputs of the first repetition that produced any."""
    return next((rep.fingerprint for rep in reps if rep.fingerprint), "")


def check_same(reps, reference: str, what: str) -> None:
    for rep in reps:
        if rep.fingerprint and rep.fingerprint != reference:
            rep.problems.append(f"outputs differ from {what}")


def report_reps(reps, label: str) -> None:
    for i, rep in enumerate(reps, start=1):
        print(f"{label} {i}: wall {rep.wall_s:.3f} s, CPU {rep.cpu_s:.3f} s, {rep.ops} ops, "
              f"outputs {rep.fingerprint[:16]} {json.dumps(rep.facts)}")
        for problem in rep.problems:
            print(f"  FAILED: {problem}")


def end_to_end(name, reps, setup_times, ref_times, peak_mb):
    """The metrics of BENCHMARK.json, then those of the workload alone.

    Set-up and repetition CPU times are rescaled by the run's mean reference
    pass (speed.py), so that they read as at reference speed.
    """
    good = [r for r in reps if not r.problems]
    op_ms = [ms for r in good for ms in r.op_ms]
    walls = [r.wall_s for r in good or reps]
    cpu_s = statistics.median(r.cpu_s for r in good or reps)
    # the mean, as the workload's own CPU time sums its slow and fast moments
    scale = speed.NOMINAL_S / statistics.fmean(ref_times)
    common = {"setup_s": (statistics.median(setup_times) * scale, "s"),
              "norm_cpu_s": (cpu_s * scale, "s"),
              "peak_rss_mb": (peak_mb, "MB"),
              "heldout_ppl": (good[0].facts["heldout_ppl"] if good else float("nan"),
                              "ratio")}
    own = {"wall_s": (statistics.median(walls), "s"), "cpu_s": (cpu_s, "s"),
           "setup_cpu_s": (statistics.median(setup_times), "s"),
           f"reference_pass_ms (n={len(ref_times)})":
               (1000.0 * statistics.fmean(ref_times), "ms")}
    if good and name == "pretrain_b64":
        own["train_tokens_per_s"] = (statistics.median(
            r.facts["tokens"] / r.facts["train_s"] for r in good), "tokens/s")
        own[f"step_ms.p50 (n={len(op_ms)})"] = (percentile(op_ms, 50), "ms")
        own[f"step_ms.p90 (n={len(op_ms)})"] = (percentile(op_ms, 90), "ms")
    elif good and name == "cli_pipeline":
        own["pipeline_s"] = (statistics.median(walls), "s")
        own["stage_ms (median per stage, demo order)"] = (
            [round(statistics.median(col), 1) for col in zip(*(r.op_ms for r in good))],
            "ms")
    elif good:
        own["eval_s"] = (statistics.median(walls), "s")
        own["embed_docs_per_s"] = (statistics.median(
            r.facts["embed_docs_per_s"] for r in good), "docs/s")
        own["cloze_pairs_per_s"] = (statistics.median(
            r.facts["cloze_pairs_per_s"] for r in good), "pairs/s")
        own[f"item_ms.p50 (n={len(op_ms)})"] = (percentile(op_ms, 50), "ms")
        own[f"item_ms.p90 (n={len(op_ms)})"] = (percentile(op_ms, 90), "ms")
    return common, own


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "daptlab" / "__init__.py", ROOT / "configs" / "desk.ini",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} not found; run from a daptlab checkout root")
    sys.path.insert(0, str(SRC))
    import daptlab
    if not Path(daptlab.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported daptlab from {daptlab.__file__}, not from {SRC}")
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup, rep, in_process = workloads.WORKLOADS[args.workload]

    out_root = ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root))
    try:
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("machine " + json.dumps(machine(args.seed)))
        setup_times, ref_times = [], []
        usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        peak = [0.0, "start-up"]  # high-water RSS in MB, and the phase that set it

        def note_peak(phase):
            mb = resource.getrusage(usage).ru_maxrss / 1024.0
            if mb > peak[0]:
                peak[:] = [mb, phase]

        def set_up():
            (work / f"setup{len(setup_times)}").mkdir()
            gc.collect()  # every set-up starts from the same heap
            t0 = workloads.cpu_clock()
            made = setup(args.seed, work / f"setup{len(setup_times)}")
            setup_times.append(workloads.cpu_clock() - t0)
            note_peak("set-up")
            return made

        note_peak("start-up")

        ref_times.append(speed.sample())
        state = set_up()
        print("inputs " + json.dumps(state["inputs"]))

        if not args.trace:
            reps = []
            start = clock()

            def pause():
                """After every repetition, and before every stage of a
                cli_pipeline one: a reference pass, then set-ups back to back
                (the pass's data would otherwise push theirs out of the caches
                before each one), outside every timing, so that speed and
                setup_s sample the whole run, not one moment of it."""
                note_peak("repetitions")
                ref_times.append(speed.sample())
                first = len(setup_times)
                while len(setup_times) == first or (
                        len(setup_times) - first < PAUSE_SETUPS
                        and sum(setup_times[first:]) < PAUSE_SETUP_S):
                    set_up()

            options = {} if in_process else {"pause": pause}
            while len(reps) < MIN_REPS or clock() - start < args.seconds:
                ref_times.append(speed.sample())
                reps.append(workloads.attempt(rep, state, work, **options))
                pause()
            while len(setup_times) < SETUPS:
                set_up()
            print(f"set-up CPU s samples: {[round(s, 4) for s in setup_times]}")
            print(f"reference pass CPU s samples: {[round(s, 4) for s in ref_times]}")
            check_same(reps, reference(reps), "the first repetition")
            report_reps(reps, "rep")
            print(f"peak RSS {peak[0]:.1f} MB, set during {peak[1]}")
            metrics, own = end_to_end(args.workload, reps, setup_times, ref_times,
                                      peak[0])
            wanted = spec["end_to_end"]
        else:
            # untraced and traced repetitions alternate, so that both see the
            # same phases of a machine whose speed drifts
            tracer = spans.Tracer()
            reps, traced = [], []
            start = clock()
            while not reps or clock() - start < args.seconds:
                reps.append(workloads.attempt(rep, state, work))
                if in_process:
                    with spans.installed(tracer):
                        traced.append(workloads.attempt(rep, state, work))
                else:
                    traced.append(workloads.attempt(rep, state, work, tracer=tracer))
            check_same(reps, reference(reps), "the first repetition")
            check_same(traced, reference(reps), "the untraced run")
            report_reps(reps, "untraced rep")
            report_reps(traced, "traced rep")
            metrics = spans.layer_metrics(tracer, len(traced))
            metrics["trace_overhead_share"] = (
                statistics.median(r.wall_s for r in traced)
                / statistics.median(r.wall_s for r in reps) - 1.0, "share")
            metrics["trace_coverage_share"] = (
                spans.coverage(tracer) / sum(r.wall_s for r in traced), "share")
            own = {}
            tracer.write(out_root / f"trace-{args.workload}-seed{args.seed}.json")
            wanted = spec["per_layer"]
            reps += traced

        names = [m["name"] for m in wanted]
        if set(metrics) != set(names):
            fail(f"metrics {sorted(set(metrics) ^ set(names))} disagree with "
                 "BENCHMARK.json", code=3)
        better = {m["name"]: m["better"] for m in wanted}
        for name in names:
            value, unit = metrics[name]
            print(f"metric {name} = {value:.6g} {unit} ({better[name]} is better)")
        for name, (value, unit) in own.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"metric {name} = {shown} {unit}")
        attempted = sum(r.ops for r in reps)
        failed = sum(r.ops for r in reps if r.problems)
        print(f"metric error_rate = {failed / attempted:.6g} share "
              f"({failed} of {attempted} operations failed)")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                        for name in names}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
