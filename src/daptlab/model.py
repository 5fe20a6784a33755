"""A small post-layer-norm bidirectional encoder with a tied MLM head.

Learned absolute position embeddings, segment embeddings (always segment 0),
erf GELU (``autodiff.erf``: within 5e-7 of the exact erf in float32), and an
output projection that shares storage with the token embedding table.
forward() takes a padded [B, S] batch with its [B, S] attention mask and
applies dropout exactly when it is given an rng.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .autodiff import (Tape, Tensor, add, dropout, gather_rows, gelu, layer_norm, matmul,
                       reshape, softmax, transpose)
from .autodiff import add_const, scale  # noqa: F401  (the benchmark's tracer rebinds them here)
from .tokenizer import Vocab, encode

# Additive score for masked-out key columns; exp() of it underflows to exactly 0.
ATTENTION_MASK_BIAS = -1e9

_CKPT_MAGIC = b"DLABCKP1"
_CKPT_VERSION = 1
# The ModelConfig fields stored as uint32, in file order; dropout follows as float64.
_CKPT_INTS = ("num_layers", "hidden", "num_heads", "ffn_dim", "vocab_size", "max_seq",
              "type_vocab")


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    hidden: int
    num_heads: int
    ffn_dim: int
    vocab_size: int
    max_seq: int
    type_vocab: int = 2
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("num_layers", "hidden", "num_heads", "ffn_dim", "vocab_size",
                     "max_seq", "type_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.num_heads != 0:
            raise ValueError(f"hidden ({self.hidden}) must be divisible by "
                             f"num_heads ({self.num_heads})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def desk(cls, vocab_size: int, max_seq: int = 128, dropout: float = 0.1) -> "ModelConfig":
        """Default desk-scale geometry: 4 layers, width 64, 4 heads, FFN 256."""
        return cls(num_layers=4, hidden=64, num_heads=4, ffn_dim=256,
                   vocab_size=vocab_size, max_seq=max_seq, dropout=dropout)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter name -> shape map; also fixes checkpoint order."""
    h, f, v = config.hidden, config.ffn_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "emb.word": (v, h),
        "emb.pos": (config.max_seq, h),
        "emb.segment": (config.type_vocab, h),
        "emb.ln.gamma": (h,),
        "emb.ln.beta": (h,),
    }
    for i in range(config.num_layers):
        p = f"layer{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{proj}"] = (h, h)
        for bias in ("bq", "bk", "bv", "bo"):
            shapes[f"{p}.attn.{bias}"] = (h,)
        shapes[f"{p}.attn.ln.gamma"] = (h,)
        shapes[f"{p}.attn.ln.beta"] = (h,)
        shapes[f"{p}.ffn.w1"] = (h, f)
        shapes[f"{p}.ffn.b1"] = (f,)
        shapes[f"{p}.ffn.w2"] = (f, h)
        shapes[f"{p}.ffn.b2"] = (h,)
        shapes[f"{p}.ffn.ln.gamma"] = (h,)
        shapes[f"{p}.ffn.ln.beta"] = (h,)
    shapes["mlm.dense.w"] = (h, h)
    shapes["mlm.dense.b"] = (h,)
    shapes["mlm.ln.gamma"] = (h,)
    shapes["mlm.ln.beta"] = (h,)
    shapes["mlm.bias"] = (v,)
    return shapes


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with values beyond 2*std resampled, not clipped."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out.astype(np.float32)


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Layer-norm gains (``.gamma``) at one, every other 1-D tensor (biases,
    layer-norm shifts) at zero, and every matrix truncated-normal(std 0.02).

    The MLM output projection is the token embedding table itself (tied), so
    it does not appear as a separate entry.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gamma"):
            data = np.ones(shape, dtype=np.float32)
        elif len(shape) == 1:
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = truncated_normal(rng, shape, 0.02)
        params[name] = Tensor(data)
    return params


def pad_batch(seqs, positions, pad_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch layout every caller of forward() reads: [B, S] int64 ids,
    right-padded with ``pad_id`` to the longest sequence; their int64 attention
    mask, 1 on each sequence's own positions; and the flat row ``b * S + p`` of
    each ``p`` in ``positions[b]``, in sequence order (``forward(rows=)``)."""
    lengths = np.array([len(seq) for seq in seqs])
    width = lengths.max()
    ids = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for b, seq in enumerate(seqs):
        ids[b, :len(seq)] = seq
    mask = (np.arange(width) < lengths[:, None]).astype(np.int64)
    rows = np.repeat(np.arange(len(seqs)) * width, [len(pos) for pos in positions])
    return ids, mask, rows + np.concatenate(positions).astype(np.int64)


def _check_inputs(ids: np.ndarray, mask: np.ndarray, config: ModelConfig) -> None:
    if ids.ndim != 2:
        raise ValueError(f"ids must be [B, S], got shape {ids.shape}")
    if ids.shape[1] < 1 or ids.shape[1] > config.max_seq:
        raise ValueError(f"sequence length {ids.shape[1]} outside [1, {config.max_seq}]")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("ids must be integers")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError(f"token id out of range for vocab of {config.vocab_size}")
    if mask.shape != ids.shape:
        raise ValueError(f"attention mask shape {mask.shape} != ids shape {ids.shape}")
    if not ((mask == 0) | (mask == 1)).all():  # np.isin costs ~5x more per call
        raise ValueError("attention mask entries must be 0 or 1")
    if (mask.sum(axis=1) == 0).any():
        raise ValueError("every sequence needs at least one unmasked position")


def forward(ids, attention_mask, config: ModelConfig, params: dict[str, Tensor],
            tape: Tape | None = None, rng: np.random.Generator | None = None,
            rows=None) -> list[Tensor]:
    """Run the encoder on [B, S] ids; returns L+1 [B, S, H] hidden states
    (embedding output first). Dropout draws from ``rng`` when one is given.
    With ``rows`` (1-D integer indices into the B*S flat positions) the last layer
    runs all it does after attention on those rows only, and returns them as [n, H]."""
    ids = np.asarray(ids)
    mask = np.asarray(attention_mask)
    _check_inputs(ids, mask, config)
    batch, seq = ids.shape
    rows = None if rows is None else np.asarray(rows)
    if rows is not None and (rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer)
                             or rows.size and not 0 <= rows.min() <= rows.max() < ids.size):
        raise ValueError(f"rows must be 1-D integer indices below {ids.size}, got {rows!r}")
    h, heads = config.hidden, config.num_heads
    dh = h // heads
    dtype = params["emb.word"].data.dtype

    def drop(t: Tensor) -> Tensor:
        return t if rng is None else dropout(t, config.dropout, rng, tape)

    x = gather_rows(params["emb.word"], ids, tape)
    x = add(x, gather_rows(params["emb.pos"], np.arange(seq), tape), tape)
    # every position is segment 0: that one row is the layer norm's broadcast residual
    segment = gather_rows(params["emb.segment"], np.zeros(1, dtype=np.int64), tape)
    x = layer_norm(x, params["emb.ln.gamma"], params["emb.ln.beta"], tape=tape,
                   residual=segment)
    x = drop(x)
    hidden = [x]

    # [B, 1, 1, S] additive bias: 0 on real keys, -1e9 on padding keys.
    key_bias = ((1.0 - mask) * ATTENTION_MASK_BIAS).astype(dtype)[:, None, None, :]

    for i in range(config.num_layers):
        p = f"layer{i}"
        q = matmul(x, params[f"{p}.attn.wq"], tape, bias=params[f"{p}.attn.bq"])
        k = matmul(x, params[f"{p}.attn.wk"], tape, bias=params[f"{p}.attn.bk"])
        v = matmul(x, params[f"{p}.attn.wv"], tape, bias=params[f"{p}.attn.bv"])
        qh = transpose(reshape(q, (batch, seq, heads, dh), tape), (0, 2, 1, 3), tape)
        kt = transpose(reshape(k, (batch, seq, heads, dh), tape), (0, 2, 3, 1), tape)
        vh = transpose(reshape(v, (batch, seq, heads, dh), tape), (0, 2, 1, 3), tape)
        probs = drop(softmax(matmul(qh, kt, tape), -1, tape,
                             scale=1.0 / np.sqrt(dh), bias=key_bias))
        ctx = reshape(transpose(matmul(probs, vh, tape), (0, 2, 1, 3), tape),
                      (batch, seq, h), tape)
        if rows is not None and i == config.num_layers - 1:
            ctx, x = gather_rows(ctx, rows, tape), gather_rows(x, rows, tape)
        attn = drop(matmul(ctx, params[f"{p}.attn.wo"], tape, bias=params[f"{p}.attn.bo"]))
        x = layer_norm(attn, params[f"{p}.attn.ln.gamma"], params[f"{p}.attn.ln.beta"],
                       tape=tape, residual=x)
        inner = gelu(matmul(x, params[f"{p}.ffn.w1"], tape, bias=params[f"{p}.ffn.b1"]),
                     tape)
        out = drop(matmul(inner, params[f"{p}.ffn.w2"], tape, bias=params[f"{p}.ffn.b2"]))
        x = layer_norm(out, params[f"{p}.ffn.ln.gamma"], params[f"{p}.ffn.ln.beta"],
                       tape=tape, residual=x)
        hidden.append(x)
    return hidden


def mlm_logits(last_hidden: Tensor, params: dict[str, Tensor],
               tape: Tape | None = None) -> Tensor:
    """Transform + layer norm, then decode against the tied embedding table."""
    t = gelu(matmul(last_hidden, params["mlm.dense.w"], tape, bias=params["mlm.dense.b"]),
             tape)
    t = layer_norm(t, params["mlm.ln.gamma"], params["mlm.ln.beta"], tape=tape)
    decoder = transpose(params["emb.word"], (1, 0), tape)
    return matmul(t, decoder, tape, bias=params["mlm.bias"])


def embed_document(text: str, vocab: Vocab, config: ModelConfig,
                   params: dict[str, Tensor]) -> np.ndarray:
    """Mean over content positions of the last four hidden layers, concatenated.

    Output is a [4 * hidden] float32 vector. Raises when the text has no
    content pieces or the model is too shallow to supply four layers.
    """
    if config.num_layers < 3:
        raise ValueError("embed_document needs at least 4 hidden states "
                         f"(num_layers >= 3), got num_layers={config.num_layers}")
    enc = encode(text, vocab, config.max_seq)
    positions = [i for start, stop in enc.word_spans for i in range(start, stop)]
    if not positions:
        raise ValueError("cannot embed a text with no content pieces")
    ids, mask, rows = pad_batch([enc.ids], [positions], vocab.pad_id)
    hidden = forward(ids, mask, config, params)
    stacked = np.concatenate([layer.data.reshape(-1, config.hidden)[rows]
                              for layer in hidden[-4:]], axis=-1)
    return stacked.mean(axis=0).astype(np.float32)


def save_checkpoint(params: dict[str, Tensor], config: ModelConfig, path) -> None:
    """Little-endian binary: magic, version, config block, named tensor records."""
    buf = bytearray()
    buf += _CKPT_MAGIC
    buf += struct.pack("<I", _CKPT_VERSION)
    buf += struct.pack(f"<{len(_CKPT_INTS)}I", *(getattr(config, f) for f in _CKPT_INTS))
    buf += struct.pack("<d", config.dropout)
    buf += struct.pack("<I", len(params))
    for name, tensor in params.items():
        if tensor.data.dtype != np.float32:
            raise ValueError(f"checkpoint tensors must be float32, {name!r} is "
                             f"{tensor.data.dtype}")
        raw = name.encode("utf-8")
        buf += struct.pack("<I", len(raw))
        buf += raw
        buf += struct.pack("<I", tensor.data.ndim)
        buf += struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape)
        buf += tensor.data.astype("<f4", copy=False).tobytes(order="C")
    fileio.atomic_write_bytes(path, bytes(buf))


def load_checkpoint(path) -> tuple[dict[str, Tensor], ModelConfig]:
    """Read and validate a checkpoint; the MLM decoder stays tied on load."""
    data, off = Path(path).read_bytes(), 0

    def take(fmt: str) -> tuple:
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data):
            raise ValueError(f"truncated checkpoint {path}")
        off += size
        return struct.unpack_from(fmt, data, off - size)

    if take(f"{len(_CKPT_MAGIC)}s")[0] != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file (bad magic)")
    (version,) = take("<I")
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    ints = take(f"<{len(_CKPT_INTS)}I")
    (drop_rate,) = take("<d")
    config = ModelConfig(**dict(zip(_CKPT_INTS, ints)), dropout=drop_rate)
    expected = param_shapes(config)
    (n_tensors,) = take("<I")
    params: dict[str, Tensor] = {}
    for _ in range(n_tensors):
        (name_len,) = take("<I")
        name = take(f"{name_len}s")[0].decode("utf-8")
        (rank,) = take("<I")
        if rank > 8:
            raise ValueError(f"implausible rank {rank} for tensor {name!r}")
        shape = take(f"<{rank}I")
        if name not in expected:
            raise ValueError(f"unexpected tensor {name!r} in checkpoint")
        if name in params:
            raise ValueError(f"duplicate tensor {name!r} in checkpoint")
        if shape != expected[name]:
            raise ValueError(f"tensor {name!r} has shape {shape}, expected "
                             f"{expected[name]}")
        (raw,) = take(f"{4 * math.prod(shape)}s")
        params[name] = Tensor(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
    missing = sorted(set(expected) - set(params))
    if missing:
        raise ValueError(f"checkpoint is missing tensors: {missing}")
    if off != len(data):
        raise ValueError(f"trailing bytes in checkpoint {path}")
    # Restore canonical ordering so re-saving is byte-identical.
    return {name: params[name] for name in expected}, config
