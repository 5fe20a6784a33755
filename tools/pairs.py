"""Alternating base/change benchmark pairs, written to BENCH_<label>.json.

Usage, from anywhere inside a daptlab checkout:

    python3 tools/pairs.py --base REV [--change REV] --workload pretrain_b64 \\
        --seed 3 [--seed 5 ...] --pairs 10 --label NAME

Unpacks the base revision, and the change revision or else the working tree
(its tracked and untracked, not ignored, files), each into a temporary
directory. For every seed it then runs ``perfbench/run.py --seconds 20
--trace 0`` on the two trees in turn, ``--pairs`` times: odd pairs run the
base first, even pairs the change first. Each run's last stdout line (the
result) and its ``machine`` line are read back, and a progress line after
each pair gives both sides' value of every end-to-end metric.

Writes ``BENCH_<label>.json`` at the root of the checkout, again after every
pair: the machine record (from the first run's ``machine`` line, less its
seed), every pair with both sides' end-to-end metrics, correctness and first
output hash, and per seed and metric each side's median and quartiles and the
number of pairs the change won (BENCHMARK.json of the base gives the metrics
and which direction is better). Exits 1 if a run fails or is not correct.
Needs only the standard library, git and the benchmark's own dependencies.
"""

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20
OUTPUTS = re.compile(r"^rep 1: .* outputs ([0-9a-f]+) ", re.MULTILINE)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Unpack ``git archive rev`` into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as archive:
        archive.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files to dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in tree: its result, machine record and output hash."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: perfbench/run.py in {tree} exited {done.returncode}")
    lines = done.stdout.splitlines()
    machine = json.loads(next(line for line in lines if line.startswith("machine "))
                         .split(" ", 1)[1])
    machine.pop("seed", None)
    outputs = OUTPUTS.search(done.stdout)
    result = json.loads(lines[-1])
    return {"machine": machine, "correct": result["correct"],
            "outputs": outputs.group(1) if outputs else None,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name, better in metrics.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        out[name] = {"better": better, "base": spread(base), "change": spread(change),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--change", help="revision to measure (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="workload seed; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    target = ROOT / f"BENCH_{args.label}.json"
    record = {"workload": args.workload, "seconds": SECONDS,
              "command": f"perfbench/run.py --workload {args.workload} --seed <seed> "
                         f"--seconds {SECONDS} --trace 0",
              "base": {"rev": args.base,
                       "commit": git("rev-parse", args.base).decode().strip()},
              "change": {"rev": args.change or "working tree",
                         "commit": (git("rev-parse", args.change).decode().strip()
                                    if args.change else None)},
              "machine": None, "seeds": {}}
    failed = False
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export(args.base, trees["base"])
        if args.change:
            export(args.change, trees["change"])
        else:
            copy_worktree(trees["change"])
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for seed in args.seed:
            pairs = []
            record["seeds"][str(seed)] = {"pairs": pairs}
            for i in range(1, args.pairs + 1):
                order = ("base", "change") if i % 2 else ("change", "base")
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], args.workload, seed)
                    machine = pair[side].pop("machine")
                    record["machine"] = record["machine"] or machine
                    failed = failed or not pair[side]["correct"]
                pairs.append(pair)
                record["seeds"][str(seed)]["summary"] = summary(pairs, metrics)
                target.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                shown = "; ".join(f"{name} base {pair['base']['metrics'][name]:.4g}, "
                                  f"change {pair['change']['metrics'][name]:.4g}"
                                  for name in metrics)
                print(f"seed {seed} pair {i}/{args.pairs}: {shown}", flush=True)
    print(f"wrote {target}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
