"""A fixed reference pass that measures how fast this machine is right now.

On a shared host the same code runs up to about 1.3x slower in phases that
last from seconds to minutes, and CPU time slows with it (the neighbours share
caches and cores, not only the scheduler). The benchmark times this pass
between its repetitions and set-ups and rescales its CPU times by the median
pass of the run, so that a slow phase slows the pass and the workload alike
and cancels out.

The pass uses none of daptlab, so a change to the program cannot move it. It
mixes what the workloads do: small matmuls, GELU and layer norm on numpy
arrays in a Python loop, and pure-Python counting and sorting of strings.
"""

import time

import numpy as np

# CPU seconds of one pass at reference speed, about its mean on one core of
# an Intel Xeon VM (numpy 2.4, one OpenBLAS thread, Python 3.11); normalised
# times are CPU seconds as they would read at that speed
NOMINAL_S = 0.24
ROUNDS = 3  # of each kind of work in a pass, interleaved

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 64))
_W = 0.1 * _rng.standard_normal((64, 256))
_WORDS = [f"w{(i * 7919) % 503}" for i in range(40000)]


def _work():
    x = _X
    for _ in range(30):
        h = x @ _W
        g = 0.5 * h * (1.0 + np.tanh(0.7978845608 * (h + 0.044715 * h ** 3)))
        y = g @ _W.T
        mu = y.mean(axis=1, keepdims=True)
        x = (y - mu) / np.sqrt(y.var(axis=1, keepdims=True) + 1e-5)
    counts = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
        counts[word[:2]] = counts.get(word[:2], 0) + 1
    return x, sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def sample() -> float:
    """CPU seconds of one reference pass."""
    t0 = time.process_time()
    for _ in range(ROUNDS):
        _work()
    return time.process_time() - t0
