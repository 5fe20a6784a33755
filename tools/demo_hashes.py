"""sha256 of every demo-06 artifact, checked for repeatability.

Usage, from anywhere inside a daptlab checkout:

    python3 tools/demo_hashes.py [--rev REV] [--expect FILE]

Runs demos/06_cli_pipeline.sh twice, each time in a fresh temporary
directory, with the BLAS thread variables set to 1. With ``--rev REV`` the
script and the package come from a ``git archive REV`` copy in a temporary
directory instead of this checkout. Exits 1 if any artifact differs between
the two runs; otherwise prints one ``sha256  name`` line per artifact, sorted
by name. With ``--expect FILE`` (a listing saved from an earlier run) it also
exits 1, naming each file whose hash differs, is missing or is new. Needs only
the standard library, git and bash.
"""

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = Path("demos") / "06_cli_pipeline.sh"


def export(rev: str, dest: Path) -> None:
    """Unpack ``git archive rev`` into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_demo(tree: Path, work: Path) -> dict[str, str]:
    """Run the tree's demo into work; return {artifact name: sha256}."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the tree's own package, ahead of any installed daptlab
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(["bash", str(tree / DEMO), str(work)], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {DEMO} exited {done.returncode}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((work / "run").iterdir())}


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def read_listing(path) -> dict[str, str]:
    listing = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            listing[name] = digest
    return listing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", help="hash a git archive of this revision instead")
    parser.add_argument("--expect", help="listing to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="demo-hashes-") as tmp:
        tmp = Path(tmp)
        tree = ROOT
        if args.rev:
            tree = tmp / "tree"
            export(args.rev, tree)
        first = run_demo(tree, tmp / "one")
        second = run_demo(tree, tmp / "two")
    unstable = differing(first, second)
    if unstable:
        print("differs between two runs: " + ", ".join(unstable), file=sys.stderr)
        return 1
    for name, digest in first.items():
        print(f"{digest}  {name}")
    if args.expect:
        changed = differing(read_listing(args.expect), first)
        if changed:
            print("differs from " + args.expect + ": " + ", ".join(changed),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
