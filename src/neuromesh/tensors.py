"""Dense float32 tensor kernels for the three block families the tasks need.

Features and weights are stored as float32 (the wire and weight-file unit);
matrix arithmetic accumulates in float64 and rounds the result back to
float32, so outputs are deterministic and reproducible bit-for-bit on a
given platform.

:func:`mlp_forward` is the one MLP kernel. It takes one input vector or an
(M, in) stack of rows and returns the same rank; every layer runs
``h = h @ w.T; h += b`` in float64. The float64 copies of a spec's weights
are built once, on its first forward call, and from then on its float32
arrays are read-only: an in-place edit raises instead of being silently
ignored by the cache. :class:`AttentionSpec` caches its projections the
same way. A stacked call is a matrix-matrix product whose float64 rows may
differ from the matrix-vector product in the last bit; that its float32
output equals stacking per-row calls is an empirical property of the
rounding, pinned by tests (``tests/test_tensors.py``), not a guarantee.

Also defines the flat binary weight-file format (magic ``MWTS``) used to
ship trained parameters between processes:

    magic "MWTS" (4 B) | version u8 | layer_count u8
    per layer: rows u32 | cols u32 | f32 weights (row-major, rows*cols) | f32 biases (rows)

All multi-byte fields are little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ShapeError, WeightFormatError

DTYPE = np.float32

WEIGHTS_MAGIC = b"MWTS"
WEIGHTS_VERSION = 1

_ACTIVATIONS = ("relu", "none")


def as_tensor(values, dtype=DTYPE) -> np.ndarray:
    """Coerce to a contiguous float32 array and verify every entry is finite."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ShapeError("tensor contains non-finite values")
    return arr


def _freeze_float64(arrays) -> list[np.ndarray]:
    """Mark ``arrays`` read-only and return their float64 copies."""
    for a in arrays:
        a.flags.writeable = False
    return [a.astype(np.float64) for a in arrays]


def _as_vector(values, dim: int | None, what: str) -> np.ndarray:
    arr = as_tensor(values)
    if arr.ndim != 1:
        raise ShapeError(f"{what} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ShapeError(f"{what} has length {arr.shape[0]}, expected {dim}")
    return arr


@dataclass
class MlpSpec:
    """Weights of a fully connected network.

    ``weights[l]`` has shape (layer_dims[l+1], layer_dims[l]); ``biases[l]``
    has length layer_dims[l+1]. ``activation`` applies to hidden layers only;
    the final layer is always affine.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if len(self.weights) < 1:
            raise ShapeError("an MLP needs at least one layer")
        if len(self.weights) != len(self.biases):
            raise ShapeError(
                f"{len(self.weights)} weight matrices but {len(self.biases)} bias vectors"
            )
        self.weights = [as_tensor(w) for w in self.weights]
        self.biases = [as_tensor(b) for b in self.biases]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ShapeError(f"layer {l}: weight must be 2-D, got shape {w.shape}")
            if b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ShapeError(
                    f"layer {l}: bias length {b.shape} does not match {w.shape[0]} rows"
                )
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ShapeError(
                    f"layer {l}: expects {w.shape[1]} inputs but layer {l - 1} "
                    f"produces {self.weights[l - 1].shape[0]}"
                )

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @cached_property
    def layers64(self) -> list:
        """(transposed weight, bias) float64 pairs, built on first access.

        That access also makes the float32 weights and biases read-only.
        """
        weights = _freeze_float64(self.weights)
        return [(w.T, b) for w, b in zip(weights, _freeze_float64(self.biases))]


def mlp_forward(spec: MlpSpec, x) -> np.ndarray:
    """Run one input vector, or an (M, in) stack of rows, through the network.

    Returns float32 of the input's rank: a vector, or one output row per
    input row.
    """
    h = as_tensor(x)
    if h.ndim not in (1, 2):
        raise ShapeError(f"mlp input must be 1-D or 2-D, got shape {h.shape}")
    if h.shape[-1] != spec.input_dim:
        raise ShapeError(f"mlp input has length {h.shape[-1]}, expected {spec.input_dim}")
    h = h.astype(np.float64)
    layers = spec.layers64
    relu = spec.activation == "relu"
    last = len(layers) - 1
    for l, (wt, b) in enumerate(layers):
        h = h @ wt
        h += b
        if relu and l < last:
            np.maximum(h, 0.0, out=h)
    return h.astype(DTYPE)


def softplus_shift(raw) -> np.ndarray:
    """Elementwise log(exp(y) + 1) + 1, computed stably in float64.

    Maps any finite input into (1, inf); saturates to exactly 1.0 once
    exp(y) underflows (y below roughly -745). Returned as float64 because
    the +1 offset would otherwise lose most of its precision.
    """
    y = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(y).all():
        raise ShapeError("softplus_shift input contains non-finite values")
    return np.logaddexp(0.0, y) + 1.0


@dataclass
class AttentionSpec:
    """Multi-head scaled dot-product attention weights.

    Per layer, four (model_dim x model_dim) projections: query, key, value,
    output. Queries come from the self feature, keys/values from each
    context vector; the layer-l output becomes the query of layer l+1,
    while keys/values are always projected from the original context.
    """

    heads: int
    model_dim: int
    wq: list[np.ndarray] = field(default_factory=list)
    wk: list[np.ndarray] = field(default_factory=list)
    wv: list[np.ndarray] = field(default_factory=list)
    wo: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.heads < 1:
            raise ShapeError("attention needs at least one head")
        if self.model_dim % self.heads != 0:
            raise ShapeError(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads"
            )
        if not (len(self.wq) == len(self.wk) == len(self.wv) == len(self.wo) >= 1):
            raise ShapeError("attention needs matching q/k/v/o projections per layer")
        for name, mats in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            for l, m in enumerate(mats):
                m = as_tensor(m)
                if m.shape != (self.model_dim, self.model_dim):
                    raise ShapeError(
                        f"{name}[{l}] has shape {m.shape}, expected "
                        f"({self.model_dim}, {self.model_dim})"
                    )
                mats[l] = m

    @property
    def layers(self) -> int:
        return len(self.wq)

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    @cached_property
    def layers64(self) -> list:
        """Per layer, the float64 (wq, wk.T, wv.T, wo), built on first access.

        That access also makes the float32 projections read-only.
        """
        wq, wk, wv, wo = (_freeze_float64(m) for m in (self.wq, self.wk, self.wv, self.wo))
        return [(q, k.T, v.T, o) for q, k, v, o in zip(wq, wk, wv, wo)]


def attention_forward(spec: AttentionSpec, query, context: list) -> np.ndarray:
    """Attend the query over a non-empty list of context vectors.

    Softmax weights are computed per head over the context axis, so each
    head's output is a convex combination of its value projections.
    """
    if len(context) == 0:
        raise ShapeError("attention requires a non-empty context; apply fallback first")
    d = spec.model_dim
    q = _as_vector(query, d, "attention query").astype(np.float64)
    ctx = np.stack(
        [_as_vector(c, d, f"context[{i}]") for i, c in enumerate(context)]
    ).astype(np.float64)

    h = spec.heads
    hd = spec.head_dim
    scale = 1.0 / np.sqrt(hd)
    out = q
    for wq, wkt, wvt, wo in spec.layers64:
        qp = wq @ out
        kp = ctx @ wkt  # (M, d)
        vp = ctx @ wvt
        merged = np.empty(d)
        for head in range(h):
            sl = slice(head * hd, (head + 1) * hd)
            scores = kp[:, sl] @ qp[sl] * scale
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            merged[sl] = w @ vp[:, sl]
        out = wo @ merged
    return out.astype(DTYPE)


def random_mlp(layer_dims: list[int], seed: int, activation: str = "relu") -> MlpSpec:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(
            (rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)).astype(DTYPE)
        )
        biases.append((rng.standard_normal(fan_out) * 0.01).astype(DTYPE))
    return MlpSpec(weights, biases, activation)


def random_attention(model_dim: int, heads: int, layers: int, seed: int) -> AttentionSpec:
    rng = np.random.default_rng(seed)

    def mats():
        return [
            (rng.standard_normal((model_dim, model_dim)) / np.sqrt(model_dim)).astype(DTYPE)
            for _ in range(layers)
        ]

    return AttentionSpec(heads=heads, model_dim=model_dim, wq=mats(), wk=mats(), wv=mats(), wo=mats())


def identity_mlp(dim: int, layers: int = 1) -> MlpSpec:
    """Identity network, handy for tests and identity-mapping stages."""
    eye = np.eye(dim, dtype=DTYPE)
    zero = np.zeros(dim, dtype=DTYPE)
    return MlpSpec([eye.copy() for _ in range(layers)], [zero.copy() for _ in range(layers)], "none")


def save_matrices(path, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
    """Write a matrix stack in the MWTS layout."""
    if len(weights) != len(biases):
        raise WeightFormatError("weights and biases count differ")
    if not 1 <= len(weights) <= 255:
        raise WeightFormatError(f"layer count {len(weights)} outside [1, 255]")
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<BB", WEIGHTS_VERSION, len(weights)))
        for w, b in zip(weights, biases):
            w = as_tensor(w)
            b = as_tensor(b)
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise WeightFormatError(
                    f"layer shapes {w.shape}/{b.shape} are not a matrix plus row bias"
                )
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())


def load_matrices(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Read back an MWTS matrix stack; inverse of :func:`save_matrices`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise WeightFormatError(f"bad weight-file magic {blob[:4]!r}")
    if len(blob) < 6:
        raise WeightFormatError("weight file shorter than its header")
    version, n_layers = struct.unpack_from("<BB", blob, 4)
    if version != WEIGHTS_VERSION:
        raise WeightFormatError(f"unsupported weight-file version {version}")
    weights, biases = [], []
    off = 6
    for l in range(n_layers):
        if off + 8 > len(blob):
            raise WeightFormatError(f"layer {l}: truncated shape header")
        rows, cols = struct.unpack_from("<II", blob, off)
        off += 8
        need = 4 * rows * cols + 4 * rows
        if off + need > len(blob):
            raise WeightFormatError(f"layer {l}: truncated data")
        w = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=off)
        off += 4 * rows * cols
        b = np.frombuffer(blob, dtype="<f4", count=rows, offset=off)
        off += 4 * rows
        weights.append(w.reshape(rows, cols).astype(DTYPE))
        biases.append(b.astype(DTYPE))
    if off != len(blob):
        raise WeightFormatError(f"{len(blob) - off} trailing bytes after last layer")
    return weights, biases


def save_mlp(path, spec: MlpSpec) -> None:
    save_matrices(path, spec.weights, spec.biases)


def load_mlp(path, activation: str = "relu") -> MlpSpec:
    weights, biases = load_matrices(path)
    return MlpSpec(weights, biases, activation)


def save_attention(path, spec: AttentionSpec) -> None:
    """Pack attention projections as sequential MWTS layers (q, k, v, o per layer)."""
    mats, biases = [], []
    zero = np.zeros(spec.model_dim, dtype=DTYPE)
    for l in range(spec.layers):
        for m in (spec.wq[l], spec.wk[l], spec.wv[l], spec.wo[l]):
            mats.append(m)
            biases.append(zero)
    save_matrices(path, mats, biases)


def load_attention(path, heads: int, layers: int) -> AttentionSpec:
    mats, _ = load_matrices(path)
    if len(mats) != 4 * layers:
        raise WeightFormatError(
            f"expected {4 * layers} projection matrices for {layers} layers, got {len(mats)}"
        )
    model_dim = mats[0].shape[0]
    wq, wk, wv, wo = [], [], [], []
    for l in range(layers):
        wq.append(mats[4 * l + 0])
        wk.append(mats[4 * l + 1])
        wv.append(mats[4 * l + 2])
        wo.append(mats[4 * l + 3])
    return AttentionSpec(heads=heads, model_dim=model_dim, wq=wq, wk=wk, wv=wv, wo=wo)
