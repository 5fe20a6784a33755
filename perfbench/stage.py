"""Run one daptlab CLI stage with spans around its calls into each module.

Usage: python perfbench/stage.py SPANS_OUT -- <daptlab subcommand and args>

The stage runs as its own process, exactly as ``python -m daptlab.cli``
would run it, with the tracing wrappers installed first. Its spans, with
``cli.main`` as the root, are pickled to SPANS_OUT for the parent to adopt.
The exit code is the CLI's.
"""

import pickle
import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: stage.py SPANS_OUT -- ARGS...", file=sys.stderr)
        return 1
    import daptlab.cli

    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.span("cli.main"):
        code = daptlab.cli.main(argv[2:])
    with open(argv[0], "wb") as handle:  # pickle: far quicker than JSON here
        pickle.dump(tracer.export(), handle, protocol=pickle.HIGHEST_PROTOCOL)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
