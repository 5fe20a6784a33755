#!/usr/bin/env bash
# Drives every daptlab subcommand once, start to finish, in a scratch
# directory: raw dumps -> corpus -> vocab -> base model -> adapted model ->
# intrinsic evals -> fine-tunes -> forgetting table -> merged report.
# The inputs and the 13 commands are the benchmark's cli_pipeline chain at
# seed 0 (write_demo_inputs and demo_stages in perfbench/workloads.py), run
# on this checkout's package.
#
# Usage: bash demos/06_cli_pipeline.sh [workdir]
# Finishes in well under a minute; every artifact lands in <workdir>/run.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${1:-$(mktemp -d)}"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

python3 - "$ROOT" "$WORK" <<'PY'
import shlex, subprocess, sys
from pathlib import Path

root, work = Path(sys.argv[1]), Path(sys.argv[2]).resolve()
sys.path.insert(0, str(root / "perfbench"))
import workloads
print("== workspace:", work)
work.mkdir(parents=True, exist_ok=True)
workloads.write_demo_inputs(work, 0)
# demo_stages names configs/desk.ini relative to the checkout root
for argv in workloads.demo_stages(work, work / "run"):
    print("== daptlab", shlex.join(argv), flush=True)
    if subprocess.run([sys.executable, "-m", "daptlab.cli", *argv], cwd=root).returncode:
        sys.exit(f"error: daptlab {argv[0]} failed")
PY

echo "== artifacts in $WORK/run (sha256)"
(cd "$WORK/run" && sha256sum -- *)

echo "== report.txt"
cat "$WORK/run/report.txt"
