"""CPU time, system time and minor page faults of an in-process workload.

Usage, from the root of a checkout:

    python3 tools/inproc.py pretrain_b64 --seed 3 [--reps 3]

Runs the workload's set-up from perfbench/workloads.py and one warm-up
repetition, then prints one JSON line per repetition: its CPU seconds, the
system-time share of them (``sys_s``, the ``ru_stime`` delta, where page-fault
and heap-trim cost lands), its minor page faults (the ``ru_minflt`` delta), its
output fingerprint and its operation count. A last line gives the process's peak RSS (``ru_maxrss``) in
MB. The workloads are pretrain_b64 and eval_probes; cli_pipeline runs its
stages in child processes and is not covered. Standard library only; numpy
comes in with the workload.
"""

import os

# One BLAS thread, as perfbench/run.py sets; this must happen before numpy is
# first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=("pretrain_b64", "eval_probes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    if not (ROOT / "perfbench" / "workloads.py").is_file():
        parser.error("perfbench/workloads.py not found; run from a daptlab checkout root")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    setup, rep, _ = workloads.WORKLOADS[args.workload]
    failed = False
    with tempfile.TemporaryDirectory(prefix=f"inproc-{args.workload}-") as tmp:
        work = Path(tmp)
        state = setup(args.seed, work)
        workloads.attempt(rep, state, work)  # warm-up, not reported
        for i in range(args.reps):
            before = resource.getrusage(resource.RUSAGE_SELF)
            result = workloads.attempt(rep, state, work)
            after = resource.getrusage(resource.RUSAGE_SELF)
            failed = failed or bool(result.problems)
            print(json.dumps({"rep": i, "cpu_s": round(result.cpu_s, 4),
                              "sys_s": round(after.ru_stime - before.ru_stime, 4),
                              "minflt": after.ru_minflt - before.ru_minflt,
                              "fingerprint": result.fingerprint, "ops": result.ops,
                              "step_gaps": len(result.op_ms),
                              "problems": result.problems}), flush=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ru_maxrss_mb": round(peak_mb, 1)}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
