"""Shared numerical oracles: float64 central finite differences."""

from __future__ import annotations

import numpy as np

from daptlab.autodiff import Tape, Tensor, backward

TINY = 1e-8


def fd_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar f() with respect to x, in place.

    f must read the current contents of x; x is restored on return.
    """
    assert x.dtype == np.float64, "finite differences need float64 parameters"
    flat = x.reshape(-1)
    grad = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(x.shape)


def max_rel_error(ad: np.ndarray, fd: np.ndarray) -> float:
    """max |ad-fd| scaled by the largest magnitude either side produced."""
    ad = np.asarray(ad, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    scale = max(float(np.abs(ad).max(initial=0.0)),
                float(np.abs(fd).max(initial=0.0)), TINY)
    return float(np.abs(ad - fd).max(initial=0.0)) / scale


def grad_check(inputs: list[Tensor], run, h: float = 1e-4, tol: float = 1e-6):
    """Check taped gradients of scalar run(tape) against finite differences.

    run is called once with a tape to collect gradients, then repeatedly
    without a tape while fd_gradient perturbs each input in place.
    """
    for t in inputs:
        t.grad = None
    tape = Tape()
    out = run(tape)
    backward(tape, out)
    worst = 0.0
    for t in inputs:
        assert t.grad is not None, "input missing a gradient"
        fd = fd_gradient(lambda: float(run(None).data), t.data, h)
        worst = max(worst, max_rel_error(t.grad, fd))
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e}"
    return worst


def oracle_binary_f1(pred, gold, positive) -> float:
    """F1 from an explicitly tabulated 2x2 confusion matrix."""
    matrix = {(True, True): 0, (True, False): 0, (False, True): 0,
              (False, False): 0}
    for p, g in zip(pred, gold):
        matrix[(p == positive, g == positive)] += 1
    tp = matrix[(True, True)]
    denom = 2 * tp + matrix[(True, False)] + matrix[(False, True)]
    return 2.0 * tp / denom if denom else 0.0


def oracle_spans(tags, repair: bool = False) -> set[tuple[int, int, str]]:
    """Span extraction by maximal-run scanning, independent of the library."""
    spans = set()
    i = 0
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        kind = tag[2:]
        if tag.startswith("I-") and not repair:
            raise ValueError(f"orphan continuation at {i}")
        j = i + 1
        while j < len(tags) and tags[j] == "I-" + kind:
            j += 1
        spans.add((i, j - 1, kind))
        i = j
    return spans


def oracle_span_f1(pred_seqs, gold_seqs) -> float:
    """Micro F1 over span sets, pred repaired, gold strict."""
    tp = fp = fn = 0
    for pred, gold in zip(pred_seqs, gold_seqs):
        p = oracle_spans(pred, repair=True)
        g = oracle_spans(gold)
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def oracle_silhouette(points, labels) -> float:
    """O(n^2) per-point silhouette with direct distance evaluation.

    Distances come from norm-of-difference per pair rather than the library's
    Gram-matrix expansion, so agreement is a real cross-check.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    dist = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            dist[i, j] = np.linalg.norm(points[i] - points[j])
    uniq = sorted(set(labels.tolist()))
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = sum(dist[i, j] for j in same) / len(same)
        b = min(sum(dist[i, j] for j in range(n) if labels[j] == other)
                / sum(1 for j in range(n) if labels[j] == other)
                for other in uniq if other != labels[i])
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return sum(scores) / n


def random_iob_case(rng, tags=("X", "Y")):
    """A (pred, gold) pair: gold strictly valid IOB, pred unconstrained."""
    n = int(rng.integers(1, 12))
    gold = []
    open_kind = None
    for _ in range(n):
        choice = rng.random()
        if open_kind is not None and choice < 0.35:
            gold.append("I-" + open_kind)
            continue
        if choice < 0.55:
            open_kind = tags[int(rng.integers(len(tags)))]
            gold.append("B-" + open_kind)
        else:
            open_kind = None
            gold.append("O")
    all_tags = ["O"] + [p + t for t in tags for p in ("B-", "I-")]
    pred = [all_tags[int(rng.integers(len(all_tags)))] for _ in range(n)]
    return pred, gold
