"""Dense float tensors plus taped reverse-mode differentiation.

All primitives take an optional ``tape``. When one is passed, the primitive
records one backward closure on it while its own forward runs (``_record``;
a tape that labels closures by the running op relies on this), and
``backward(tape, loss)`` replays the closures in reverse order. A closure runs
only if its op's output got a gradient, so an op whose output never reaches
the loss leaves its inputs' gradients untouched. A closure takes its output's
gradient off the tensor before it runs, so each adjoint is freed as soon as it
is used: after ``backward`` only leaves (tensors no recorded op produced, such
as parameters) hold a ``.grad``. A tensor with no gradient yet adopts the
array its consumer's closure hands over as its ``.grad``, without a copy
(``_accumulate``): every closure hands over an array nothing else holds, and
the three that would hand one array to two tensors copy it themselves (``add``
of two full-shape operands, ``layer_norm``'s ``residual`` and ``tsum``'s
broadcast). A tensor that already holds a ``.grad`` has the array added into
it in place. During ``pretrain.fit`` every parameter holds one, a view into
the flat training state (``optim.AdamState``), so parameters accumulate there
and adoption applies to intermediates. A closure owns the adjoint it is
handed, so ``gelu``, ``dropout``, ``softmax`` and ``layer_norm`` form their
input's gradient in it. Forward values are float32 by default, but float64
arrays are kept as-is so the same graph can be re-run at higher precision by
oracles.

The arrays a taped op returns or keeps for its backward come from
``tape.empty``. ``pretrain.fit`` builds each step's tape as ``Tape(tape)``,
so during ``fit`` they are the previous step's buffers, filled again: they
stay valid only until the next step's ``Tape(tape)`` is built, and no caller
keeps one past its step. A training step thus hands no activation storage
back to the allocator, which would trim the heap and fault it back in on the
next step. Untaped calls allocate fresh arrays.

``gelu``, ``layer_norm``, ``softmax`` and ``dropout`` take ``out=``, a
C-contiguous writable array of the result's shape and dtype to write the
result into, in place of a new one; anything else raises ValueError. It may be the input's own
buffer, as each reads its input before it writes. Pass that only when nothing
reads the input's values afterwards: no closure reads its op's output, only
the op's inputs and what it keeps. ``model`` passes it at each such call. So
a training step keeps what its closures read (each matmul's inputs, softmax's
probabilities, layer norm's normalised values and row statistics, gelu's
slope, dropout's factor) but no attention score, no w1 output before gelu and
no sublayer output before its dropout or its norm: each result lives in its
input's buffer.

Every axis sum an op takes is one BLAS GEMV with a ones vector, a prefix of
one kept per dtype (``_ones``): ``_row_sum`` over the last axis, ``_lead_sum``
over the leading ones (so every bias gradient). Their bits, like a matmul's,
depend on the BLAS kernel.
``softmax`` takes its row max as the column max of a transposed copy, with
numpy's bits.

Non-finite values are treated as an error state. NaN/Inf propagates to the
loss, so enforcement lives at the loss/optimizer boundary (see pretrain and
optim) instead of an isfinite scan after every primitive.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Added to the variance inside layer_norm's square root.
LAYER_NORM_EPS = 1e-12

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense row-major float array with a lazily allocated gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Ordered record of primitive operations, replayed in reverse by backward().

    ``Tape(spare)`` takes over the buffers ``spare`` handed out through
    ``empty`` and hands them out again, overwriting whatever ``spare``'s ops
    returned or kept: build it only once nothing will read those again.
    """

    def __init__(self, spare: "Tape | None" = None):
        self._ops: list[Callable[[], None]] = []
        self._buffers: list[np.ndarray] = []
        self._spare: list[np.ndarray | None] = []
        if spare is not None:
            self._spare, spare._buffers = spare._buffers, []

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._ops.append(backward_fn)

    def empty(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape`` and ``dtype``.

        Request i is a view of the spare's buffer i when that buffer has
        ``dtype`` and room enough; otherwise that buffer is dropped first and
        a fresh one allocated, so no buffer is held twice or fills two slots.
        """
        i, n = len(self._buffers), math.prod(shape)
        buf = None
        if i < len(self._spare):
            buf, self._spare[i] = self._spare[i], None
            if buf.dtype != dtype or buf.size < n:
                buf = None
        if buf is None:
            buf = np.empty(n, dtype)
        self._buffers.append(buf)
        return buf[:n].reshape(shape)

    def __len__(self) -> int:
        return len(self._ops)


def _empty(tape: Tape | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Room for an op's output or kept value: from ``tape`` when there is one."""
    return np.empty(shape, dtype) if tape is None else tape.empty(shape, dtype)


def _out(tape: Tape | None, out: np.ndarray | None, shape: tuple[int, ...],
         dtype) -> np.ndarray:
    """Room for an op's result: the caller's ``out``, checked, else ``_empty``'s."""
    if out is None:
        return _empty(tape, shape, dtype)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a C-contiguous writable {np.dtype(dtype)} array "
                         f"of shape {shape}")
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; a tensor with no gradient yet adopts ``g`` itself.

    Adoption is not a copy, so ``g`` must be an array of ``t``'s shape that
    no other tensor or closure holds: the invariant is that no array is the
    ``.grad`` of two tensors and every ``.grad`` is writable, so later
    accumulations and in-place backward steps may write into it. Only a
    numpy scalar (from a full reduction) or another dtype is converted. A
    held ``.grad``, such as a parameter's view into the training state's
    gradient buffer, is added into and never replaced.
    """
    if t.grad is None:
        if not isinstance(g, np.ndarray) or g.dtype != t.data.dtype:
            g = np.array(g, dtype=t.data.dtype)
        t.grad = g
    else:
        t.grad += g


def _record(tape: Tape, out: Tensor, bwd: Callable[[np.ndarray], None]) -> None:
    """Record ``bwd(out.grad)`` on ``tape``, skipped when ``out`` got no gradient.

    The closure releases ``out.grad`` before it runs: every op that consumes
    ``out`` was recorded later, so its backward has already added to it.
    """
    def run():
        g = out.grad
        if g is not None:
            out.grad = None
            bwd(g)
    tape.record(run)


_ONES: dict[np.dtype, np.ndarray] = {}


def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    """``n`` ones of ``dtype``: a prefix of one read-only vector per dtype,
    replaced by a longer one when a longer sum needs it."""
    ones = _ONES.get(dtype)
    if ones is None or ones.size < n:
        ones = np.ones(n, dtype)
        ones.flags.writeable = False
        _ONES[dtype] = ones
    return ones[:n]


def _row_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over the last axis, keepdims, as ``x2 @ ones[h]``: one BLAS GEMV in
    place of numpy's loop over short rows. Written into ``out`` when given, a
    C-contiguous array of ``x``'s dtype with one element per row."""
    n, h = math.prod(x.shape[:-1]), x.shape[-1]
    s = np.matmul(x.reshape(n, h), _ones(h, x.dtype),
                  out=None if out is None else out.reshape(n))
    return s.reshape(x.shape[:-1] + (1,))


def _lead_sum(g: np.ndarray, lead: int) -> np.ndarray:
    """Sums over the ``lead`` leading axes as ``ones[n] @ g2``, one BLAS GEMV;
    a fresh array, as an adjoint handed to ``_accumulate`` must be."""
    n, rest = math.prod(g.shape[:lead]), g.shape[lead:]
    return (_ones(n, g.dtype) @ g.reshape(n, math.prod(rest))).reshape(rest)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = _lead_sum(g, extra)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise a + b with numpy broadcasting."""
    out = Tensor(np.add(a.data, b.data, out=_empty(
        tape, np.broadcast_shapes(a.data.shape, b.data.shape),
        np.result_type(a.data, b.data))))
    if tape is not None:
        def bwd(g):
            ga = _unbroadcast(g, a.data.shape)
            _accumulate(a, ga)
            gb = _unbroadcast(g, b.data.shape)
            # both operands of g's shape get g itself: copy it if a adopted it
            _accumulate(b, gb.copy() if a.grad is gb else gb)
        _record(tape, out, bwd)
    return out


def add_const(a: Tensor, c, tape: Tape | None = None) -> Tensor:
    """a + c for a constant array/scalar; no gradient flows into c."""
    out = Tensor(a.data + c)
    if tape is not None:
        def bwd(g):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        _record(tape, out, bwd)
    return out


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise a * b with numpy broadcasting."""
    out = Tensor(a.data * b.data)
    if tape is not None:
        def bwd(g):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
        _record(tape, out, bwd)
    return out


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    """a * c for a python scalar constant."""
    out = Tensor(a.data * a.data.dtype.type(c))
    if tape is not None:
        def bwd(g):
            _accumulate(a, g * a.data.dtype.type(c))
        _record(tape, out, bwd)
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[B, S, heads·d] as [B, heads, S, d]: a strided view when ``x`` is C-contiguous."""
    batch, seq, width = x.shape
    return x.reshape(batch, seq, heads, width // heads).transpose(0, 2, 1, 3)


def _check_heads(a: tuple[int, ...], b: tuple[int, ...], heads: int) -> None:
    """Raise unless one of shapes ``a`` x ``b`` is a [B, S, heads·d] activation
    and the other [B, heads, d, n] after it or [B, heads, m, S] before it."""
    if heads < 1 or sorted((len(a), len(b))) != [3, 4]:
        raise ValueError(f"matmul heads={heads} needs one rank-3 and one rank-4 "
                         f"operand, got {a} x {b}")
    x, other = (a, b) if len(a) == 3 else (b, a)
    if x[2] % heads:
        raise ValueError(f"matmul width {x[2]} is not divisible by heads={heads}")
    inner = (x[2] // heads, other[2]) if len(a) == 3 else (other[3], x[1])
    if other[:2] != (x[0], heads) or inner[0] != inner[1]:
        raise ValueError(f"matmul heads={heads} extents differ: {a} x {b}")


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None, *,
           bias: Tensor | None = None, heads: int | None = None) -> Tensor:
    """Matrix product over the last two axes, plus an optional [n] ``bias``.

    Supported shapes: [.., m, k] x [k, n] (shared weight) and
    [d0.., m, k] x [d0.., k, n] (batched, identical leading dims). ``bias``
    needs the 2-D weight; the result has the bits of ``add(matmul(a, b), bias)``.

    With ``heads``, one operand is a [B, S, heads·d] activation, read as the
    [B, heads, S, d] per-head matrices through a strided view, and the other
    is [B, heads, ·, ·]: [B, S, heads·d] x [B, heads, d, n] gives
    [B, heads, S, n], and [B, heads, m, S] x [B, S, heads·d] gives
    [B, m, heads·d], written through the same view. The activation's gradient
    is written through it into one fresh array. No head is copied, yet every
    GEMM keeps its transposition flags, so forward and gradients have the
    bits of splitting the heads with ``reshape`` and ``transpose`` (and merging
    them back) around a batched ``matmul``. ``bias`` does not go with ``heads``.
    """
    if heads is not None:
        if bias is not None:
            raise ValueError("matmul takes no bias with heads")
        _check_heads(a.data.shape, b.data.shape, heads)
    else:
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError(f"matmul needs rank >= 2 operands, got {a.shape} x {b.shape}")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ValueError(f"matmul inner extents differ: {a.shape} x {b.shape}")
        if b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
            raise ValueError(f"matmul leading extents differ: {a.shape} x {b.shape}")
    if bias is not None and (b.data.ndim != 2 or bias.data.shape != b.data.shape[1:]):
        raise ValueError(f"matmul bias needs a 2-D weight and shape ({b.shape[-1]},), "
                         f"got {b.shape} and {bias.shape}")
    split_a = heads is not None and a.data.ndim == 3
    split_b = heads is not None and b.data.ndim == 3

    def view(x: np.ndarray, split: bool) -> np.ndarray:
        return _split_heads(x, heads) if split else x

    av, bv = view(a.data, split_a), view(b.data, split_b)
    # with split_b the [B, heads, m, d] product is written merged, as [B, m, heads·d]
    shape = ((a.data.shape[0], a.data.shape[2], b.data.shape[2]) if split_b
             else av.shape[:-1] + bv.shape[-1:])
    buf = _empty(tape, shape, np.result_type(a.data, b.data))
    np.matmul(av, bv, out=view(buf, split_b))
    out = Tensor(buf)
    if bias is not None:
        out.data += bias.data
    if tape is not None:
        def bwd(g):
            if bias is not None:
                _accumulate(bias, _unbroadcast(g, bias.data.shape))
            if b.data.ndim == 2:
                # One 2-D GEMM per gradient: numpy runs a stacked g @ b.T far slower.
                g2 = g.reshape(-1, b.data.shape[1])
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
                _accumulate(b, a.data.reshape(-1, b.data.shape[0]).T @ g2)
            else:
                gv = view(g, split_b)
                ga = np.empty(a.data.shape, np.result_type(g, b.data))
                np.matmul(gv, np.swapaxes(bv, -1, -2), out=view(ga, split_a))
                _accumulate(a, ga)
                gb = np.empty(b.data.shape, np.result_type(a.data, g))
                np.matmul(np.swapaxes(av, -1, -2), gv, out=view(gb, split_b))
                _accumulate(b, gb)
        _record(tape, out, bwd)
    return out


def transpose(a: Tensor, axes: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    moved = np.transpose(a.data, axes)
    buf = _empty(tape, moved.shape, moved.dtype)
    np.copyto(buf, moved)
    out = Tensor(buf)
    if tape is not None:
        inverse = tuple(np.argsort(axes))
        def bwd(g):
            _accumulate(a, np.transpose(g, inverse))
        _record(tape, out, bwd)
    return out


def reshape(a: Tensor, shape: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if tape is not None:
        def bwd(g):
            _accumulate(a, g.reshape(a.data.shape))
        _record(tape, out, bwd)
    return out


def gather_rows(table: Tensor, ids: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Row lookup: the rows of a [.., H] ``table`` with its leading axes
    flattened, so row ``b * S + p`` of a [B, S, H] activation is position p
    of sequence b; ``ids`` is an integer array of any shape."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("gather_rows ids must be integers")
    if table.data.ndim < 2:
        raise ValueError(f"gather_rows needs a table of rank >= 2, got {table.shape}")
    flat = table.data.reshape(-1, table.data.shape[-1])  # a view: data is C-contiguous
    if ids.size and (ids.min() < 0 or ids.max() >= flat.shape[0]):
        raise ValueError(f"gather_rows id out of range for table of {flat.shape[0]} rows")
    # ids are in range: "clip" spares the copy "raise" makes of an out= buffer
    out = Tensor(np.take(flat, ids, axis=0, mode="clip", out=_empty(
        tape, ids.shape + flat.shape[1:], table.data.dtype)))
    if tape is not None:
        def bwd(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            grad, index = table.grad, ids
            if grad.flags.c_contiguous:  # a [rows, H] view; others are indexed per axis
                grad = grad.reshape(flat.shape)
            else:
                index = np.unravel_index(ids, table.shape[:-1])
            if ids.ndim == 1 and bool(np.all(ids[1:] > ids[:-1])):
                grad[index] += g  # unique ids: the sums add.at would make
            else:
                np.add.at(grad, index, g)
        _record(tape, out, bwd)
    return out


def select_position(a: Tensor, pos: int, tape: Tape | None = None) -> Tensor:
    """Slice position ``pos`` from axis -2: [.., S, H] -> [.., H]."""
    if not -a.data.shape[-2] <= pos < a.data.shape[-2]:
        raise ValueError(f"position {pos} out of range for shape {a.shape}")
    out = Tensor(a.data[..., pos, :])
    if tape is not None:
        def bwd(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[..., pos, :] += g
        _record(tape, out, bwd)
    return out


def softmax(a: Tensor, tape: Tape | None = None, *, scale: float | None = None,
            bias: np.ndarray | None = None, out: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax of ``a * scale + bias`` over the last axis.

    ``scale`` is a python scalar and ``bias`` a constant array broadcast onto
    ``a`` (an additive attention mask); no gradient flows into either. The
    result has the bits of the unfused ``scale``, ``add_const``, ``softmax``.
    """
    if a.data.ndim == 0:
        raise ValueError("softmax needs an array of rank >= 1")
    # Every step runs in p's own buffer: the same ufuncs on the same values,
    # so the bits of the step-by-step formula, with no array-sized temporary.
    x = a.data
    p = _out(tape, out, x.shape, x.dtype if bias is None else np.result_type(x, bias))
    if scale is not None:
        x = np.multiply(x, x.dtype.type(scale), out=p)
    if bias is not None:
        x = np.add(x, bias, out=p)
    # The row max as the column max of a transposed copy, in place of numpy's
    # loop over short rows; max is exact in any order, so x.max(-1)'s bits.
    n, h = math.prod(x.shape[:-1]), x.shape[-1]
    cols = _empty(tape, (h, n), x.dtype)
    np.copyto(cols, x.reshape(n, h).T)
    peak = np.max(cols, axis=0, out=_empty(tape, (n,), x.dtype))
    np.subtract(x, peak.reshape(x.shape[:-1] + (1,)), out=p)
    np.exp(p, out=p)
    p /= _row_sum(p, _empty(tape, (n,), p.dtype))
    out = Tensor(p)
    if tape is not None:
        def bwd(g):  # p * (g - inner) [* scale], formed in g
            # g * p and its row sums in the buffers of the transposed copy and its max
            inner = _row_sum(np.multiply(g, p, out=cols.reshape(g.shape)), peak)
            g -= inner
            g *= p
            if scale is not None:
                g *= a.data.dtype.type(scale)
            _accumulate(a, g)
        _record(tape, out, bwd)
    return out


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, tape: Tape | None = None, *,
               residual: Tensor | None = None, out: np.ndarray | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    With ``residual`` (either may broadcast), normalizes ``a + residual``, a
    post-LN residual connection; each gets its input gradient in its own shape.
    """
    shape = a.data.shape if residual is None else np.broadcast_shapes(a.data.shape,
                                                                     residual.data.shape)
    h = shape[-1]
    if h == 0:
        raise ValueError("layer_norm over a zero-length axis")
    if gamma.data.shape != (h,) or beta.data.shape != (h,):
        raise ValueError(f"layer_norm scale/shift must have shape ({h},), "
                         f"got {gamma.shape} and {beta.shape}")
    # The sum, the centred values and their squares are formed in the buffers
    # of xhat and of the output: the same ufuncs on the same values, so the
    # bits of the step-by-step formula, with no array-sized temporary. a is
    # last read before the output's buffer is first written, so out may be a's.
    dtype = a.data.dtype if residual is None else np.result_type(a.data, residual.data)
    xhat = _empty(tape, shape, dtype)
    y = _out(tape, out, shape, np.result_type(xhat, gamma.data, beta.data))
    x = a.data if residual is None else np.add(a.data, residual.data, out=xhat)
    mu = _row_sum(x, _empty(tape, shape[:-1], dtype))
    mu /= h
    np.subtract(x, mu, out=xhat)
    var = _row_sum(np.multiply(xhat, xhat, out=y if y.dtype == dtype else None),
                   _empty(tape, shape[:-1], dtype))
    var /= h
    inv = 1.0 / np.sqrt(var + dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)
    if tape is not None:
        def bwd(g):
            # inv * (gx - rowsum(gx) / h - xhat * (rowsum(gx * xhat) / h)) with
            # gx = g * gamma, formed in g and one scratch array
            scratch = np.multiply(g, xhat)
            _accumulate(gamma, _lead_sum(scratch, g.ndim - 1))
            _accumulate(beta, _lead_sum(g, g.ndim - 1))
            g *= gamma.data
            mean_gx = _row_sum(g) / h
            mean_gx_xhat = _row_sum(np.multiply(g, xhat, out=scratch)) / h
            np.multiply(xhat, mean_gx_xhat, out=scratch)
            g -= mean_gx
            g -= scratch
            g *= inv
            _accumulate(a, _unbroadcast(g, a.data.shape))
            if residual is not None:
                gr = _unbroadcast(g, residual.data.shape)
                _accumulate(residual, gr.copy() if a.grad is gr else gr)
        _record(tape, out, bwd)
    return out


# ---------------------------------------------------------------------------
# erf in numpy

# float32: x P(x^2) / Q(x^2) with x clamped to [-4, 4], beyond which erf is
# +-1 in single precision; the rational form XLA and Eigen use for float32
# erf. Coefficients highest power first, as ``_horner`` takes them.
_ERF32_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))

# float64: erf(x) = x P(x^2) / Q(x^2) for |x| <= 0.46875, by W. J. Cody's
# rational Chebyshev approximation (Math. Comp. 23:631, 1969; the small-range
# coefficients of his CALERF), highest power first. Wider values go to libm.
_ERF64_P = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03)
_ERF64_Q = (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
            1.28261652607737228e03, 2.84423683343917062e03)
_ERF64_SMALL_MAX = 0.46875


def _horner(t: np.ndarray, coeffs) -> np.ndarray:
    """coeffs[0] t^n + ... + coeffs[n] by Horner's rule, into a new array."""
    out = t * coeffs[0]
    for c in coeffs[1:-1]:
        out += c
        out *= t
    out += coeffs[-1]
    return out


def _erf32(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = _horner(x2, _ERF32_P)
    p *= x
    p /= _horner(x2, _ERF32_Q)
    return p


def _erf64_small(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    out = _horner(x2, _ERF64_P)
    out /= _horner(x2, _ERF64_Q)
    out *= x
    return out


def _erf64(x: np.ndarray) -> np.ndarray:
    y = np.abs(x)
    if y.max(initial=0.0) <= _ERF64_SMALL_MAX:  # the common case, no libm call
        return _erf64_small(x)
    small = y <= _ERF64_SMALL_MAX
    wide = ~small  # NaN too
    out = np.empty_like(x)
    out[small] = _erf64_small(x[small])
    out[wide] = np.fromiter(map(math.erf, x[wide].tolist()), np.float64)
    return out


def erf(x) -> np.ndarray:
    """Elementwise error function, in numpy alone.

    float32 input gives float32 within 5e-7 of math.erf (at most 4 ulp for
    |x| < 1), exactly odd and exactly +-1 for |x| >= 4. Any other input is
    computed in float64: by Cody's rational form for |x| <= 0.46875, within
    1e-13 of math.erf, and by math.erf (libm) itself beyond.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        return _erf32(x)
    return _erf64(x.astype(np.float64, copy=False))


# Elements per block of gelu's pass; 128 KiB of float32. Measured on the desk
# FFN shape [64, 18, 256]: 4k-element blocks lose to no blocking (loop
# overhead), 8k and 16k fall between, 32k and 64k are best.
_GELU_BLOCK = 32768


def gelu(a: Tensor, tape: Tape | None = None, *, out: np.ndarray | None = None) -> Tensor:
    """GELU with erf: 0.5 * x * (1 + erf(x / sqrt(2))), erf as in ``erf``.

    Evaluated on flat blocks of ``_GELU_BLOCK`` elements, so that erf's
    two dozen passes and their temporaries stay in cache instead of
    streaming (and freshly faulting) array-sized buffers. With a tape the
    same pass also forms the backward slope ``cdf + x * pdf``, which the
    closure keeps, before each block's value, so ``out`` may be ``a``'s
    buffer; every value has the bits of the unblocked formula.
    """
    x = a.data.reshape(-1)
    y = _out(tape, out, a.data.shape, a.data.dtype)
    slope = None if tape is None else tape.empty(a.data.shape, a.data.dtype)
    for lo in range(0, x.size, _GELU_BLOCK):
        hi = lo + _GELU_BLOCK
        xb = x[lo:hi]
        cdf = erf(xb / math.sqrt(2.0))
        cdf += 1.0
        cdf *= 0.5
        if slope is not None:  # before the value, which may overwrite xb
            pdf = -0.5 * xb
            pdf *= xb
            np.exp(pdf, out=pdf)
            pdf /= xb.dtype.type(math.sqrt(2.0 * math.pi))
            pdf *= xb
            np.add(cdf, pdf, out=slope.reshape(-1)[lo:hi])
        np.multiply(xb, cdf, out=y.reshape(-1)[lo:hi])
    out = Tensor(y)
    if tape is not None:
        def bwd(g):
            g *= slope
            _accumulate(a, g)
        _record(tape, out, bwd)
    return out


def dropout(a: Tensor, p: float, rng: np.random.Generator,
            tape: Tape | None = None, *, out: np.ndarray | None = None) -> Tensor:
    """Inverted dropout; call only on the training path. At rate 0 it returns
    ``a`` itself and leaves ``out`` untouched."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    shape, dtype = a.data.shape, a.data.dtype
    keep = (rng.random(shape) >= p).astype(dtype)
    factor = np.divide(keep, dtype.type(1.0 - p), out=_empty(tape, shape, dtype))
    out = Tensor(np.multiply(a.data, factor, out=_out(tape, out, shape, dtype)))
    if tape is not None:
        def bwd(g):
            g *= factor
            _accumulate(a, g)
        _record(tape, out, bwd)
    return out


def tsum(a: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(a.data.sum())
    if tape is not None:
        def bwd(g):
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())  # a writable buffer
        _record(tape, out, bwd)
    return out


def cross_entropy_masked(logits: Tensor, labels: np.ndarray,
                         tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy over every row, each against its label.

    logits: [rows, classes], one row per masked position (or listed head
    position); labels: [rows] ints in [0, classes). Raises on zero rows or a
    label out of range.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy_masked expects 2-d logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.data.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match logits rows "
                         f"{logits.data.shape[0]}")
    if labels.size == 0:
        raise ValueError("cross_entropy_masked: no rows")
    if labels.min() < 0 or labels.max() >= logits.data.shape[1]:
        raise ValueError("cross_entropy_masked: label out of range")

    x = logits.data
    logp = np.subtract(x, x.max(axis=1, keepdims=True), out=_empty(tape, x.shape, x.dtype))
    lse = _row_sum(np.exp(logp), _empty(tape, x.shape[:1], x.dtype))
    logp -= np.log(lse, out=lse)  # shifted minus its lse
    n = labels.size
    rows = np.arange(n)
    loss = -logp[rows, labels].sum() / x.dtype.type(n)
    out = Tensor(np.asarray(loss, dtype=x.dtype))
    if tape is not None:
        def bwd(g):
            gl = np.exp(logp)
            gl *= g / n
            gl[rows, labels] -= g / x.dtype.type(n)
            _accumulate(logits, gl)
        _record(tape, out, bwd)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed d(loss)/d(loss)=1 and replay the tape in reverse.

    Adjoints accumulate into each participating tensor's ``.grad``; a tensor
    used several times (e.g. a tied embedding table) ends up with the sum of
    all its path contributions. Each op's closure releases its output's
    adjoint once it has run, so afterwards only leaves keep a ``.grad``; the
    loss and every intermediate hold None.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for fn in reversed(tape._ops):
        fn()
