"""sha256 of every demo-06 artifact, checked for repeatability.

Usage, from anywhere inside a daptlab checkout:

    python3 tools/demo_hashes.py [--rev REV] [--expect FILE]

Runs demos/06_cli_pipeline.sh twice, each time in a fresh temporary
directory, with the BLAS thread variables set to 1 (the CLI sets them itself,
but a ``--rev`` tree may predate that pin). With ``--rev REV`` the
script and the package come from a ``git archive REV`` copy in a temporary
directory instead of this checkout. Exits 1 if any artifact differs between
the two runs; otherwise prints a ``# kernel NAME`` line, then one
``sha256  name`` line per artifact, sorted by name. The kernel is the
OpenBLAS core the demo's processes run on (``OPENBLAS_CORETYPE`` can force
one); the bytes depend on it. With ``--expect FILE`` (a listing saved from an
earlier run) it also exits 1, first saying so when the listing names another
kernel, then naming each file whose hash differs, is missing or is new. Needs
only the standard library, git, bash and the numpy the demo runs on.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import export  # this script's directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
DEMO = Path("demos") / "06_cli_pipeline.sh"


# Prints the core name of the OpenBLAS that numpy loaded.
KERNEL_SCRIPT = """
import ctypes, numpy
with open("/proc/self/maps", encoding="utf-8") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):
        if hasattr(handle, symbol):
            getter = getattr(handle, symbol)
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            print(getter().decode())
            raise SystemExit
print("unknown")
"""


def demo_env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the tree's own package, ahead of any installed daptlab
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def blas_kernel(tree: Path) -> str:
    """The OpenBLAS core name a python3 child with the demo's environment gets."""
    return subprocess.run(["python3", "-c", KERNEL_SCRIPT], env=demo_env(tree),
                          check=True, capture_output=True, text=True).stdout.strip()


def run_demo(tree: Path, work: Path) -> dict[str, str]:
    """Run the tree's demo into work; return {artifact name: sha256}."""
    done = subprocess.run(["bash", str(tree / DEMO), str(work)], env=demo_env(tree),
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {DEMO} exited {done.returncode}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((work / "run").iterdir())}


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def read_listing(path) -> tuple[str | None, dict[str, str]]:
    """(kernel, {name: sha256}) of a listing; kernel is None if it names none."""
    kernel, listing = None, {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# kernel "):
            kernel = line.split(maxsplit=2)[2]
        elif line.strip():
            digest, name = line.split(maxsplit=1)
            listing[name] = digest
    return kernel, listing


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
        kernel = blas_kernel(tree)
        first = run_demo(tree, tmp / "one")
        second = run_demo(tree, tmp / "two")
    unstable = differing(first, second)
    if unstable:
        print("differs between two runs: " + ", ".join(unstable), file=sys.stderr)
        return 1
    print(f"# kernel {kernel}")
    for name, digest in first.items():
        print(f"{digest}  {name}")
    if args.expect:
        expected_kernel, expected = read_listing(args.expect)
        other_kernel = expected_kernel not in (None, kernel)
        if other_kernel:
            print(f"kernel differs (listing {expected_kernel}, this box {kernel})",
                  file=sys.stderr)
        changed = differing(expected, first)
        if changed:
            print("differs from " + args.expect + ": " + ", ".join(changed),
                  file=sys.stderr)
        return 1 if other_kernel or changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
