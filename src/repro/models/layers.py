"""Minimal numpy neural-network layers (forward pass only).

These are deliberately small — the substrate's job is to provide *real*
deterministic computation whose outputs are identical whether modules run
monolithically or split across (emulated) devices, not to be fast or
trainable.  All layers take/return ``float64`` arrays.

Every layer accepts inputs with arbitrary *leading* batch axes in addition
to its per-sample shape: the token-level layers take ``(..., tokens, dim)``
and :class:`Conv2d` takes ``(..., C, H, W)``.  Batching is implemented as a
pure stacking axis — every matmul keeps its per-sample 2-D GEMM shape and
numpy loops the slices in C — so a batched forward is **bit-identical**
(float64-exact) to running the samples one at a time.  Folding the batch
into the GEMM row dimension would be faster still but is *not* bit-stable
across BLAS kernel choices, which would break the split == centralized
accuracy guarantee the reproduction rests on.

One residual assumption is BLAS-implementation-specific: the sequential
paths compute some products as matrix-vector ops (``x @ W`` with 1-D
``x``), which the batched paths replay as ``(1, F)`` GEMM slices.  Their
bit-equality holds on the supported numpy/OpenBLAS builds and is pinned by
the exact-equality equivalence suite (``tests/test_models_batched.py``) —
on a platform where a BLAS accumulates gemv and n=1 gemm differently,
those tests fail loudly rather than letting accuracies drift silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation)."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layer normalization over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


@dataclass
class Linear:
    """Affine map ``x @ W + b`` with ``W`` of shape (in, out)."""

    weight: np.ndarray
    bias: np.ndarray

    @staticmethod
    def init(rng: np.random.Generator, d_in: int, d_out: int, scale: Optional[float] = None) -> "Linear":
        std = scale if scale is not None else (1.0 / np.sqrt(d_in))
        return Linear(
            weight=rng.normal(0.0, std, size=(d_in, d_out)),
            bias=np.zeros(d_out),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight + self.bias

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Row-wise forward for a ``(batch, d_in)`` matrix, bit-exact per row.

        ``x @ W`` on a 2-D input is a single GEMM whose result can differ in
        the last bits from the per-row vector products the sequential path
        performs.  Keeping each row its own ``(1, d_in) @ (d_in, d_out)``
        slice of a stacked 3-D matmul reproduces the sequential bits.
        """
        return np.matmul(x[:, None, :], self.weight)[:, 0, :] + self.bias

    @property
    def param_count(self) -> int:
        return self.weight.size + self.bias.size


@dataclass
class LayerNorm:
    """Learnable layer norm parameters."""

    gamma: np.ndarray
    beta: np.ndarray

    @staticmethod
    def init(dim: int) -> "LayerNorm":
        return LayerNorm(gamma=np.ones(dim), beta=np.zeros(dim))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return layer_norm(x, self.gamma, self.beta)

    @property
    def param_count(self) -> int:
        return self.gamma.size + self.beta.size


@dataclass
class MultiHeadAttention:
    """Multi-head self-attention over ``(..., tokens, dim)`` inputs."""

    qkv: Linear
    out: Linear
    heads: int

    @staticmethod
    def init(rng: np.random.Generator, dim: int, heads: int) -> "MultiHeadAttention":
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        return MultiHeadAttention(
            qkv=Linear.init(rng, dim, 3 * dim),
            out=Linear.init(rng, dim, dim),
            heads=heads,
        )

    def __call__(self, x: np.ndarray, causal: bool = False) -> np.ndarray:
        *lead, tokens, dim = x.shape
        head_dim = dim // self.heads
        qkv = self.qkv(x).reshape(*lead, tokens, 3, self.heads, head_dim)
        # (..., tokens, heads, head_dim) per projection
        q, k, v = qkv[..., 0, :, :], qkv[..., 1, :, :], qkv[..., 2, :, :]
        # -> (..., heads, tokens, head_dim)
        q, k, v = (np.swapaxes(t, -3, -2) for t in (q, k, v))
        scores = q @ np.swapaxes(k, -2, -1) / np.sqrt(head_dim)  # (..., heads, T, T)
        if causal:
            mask = np.triu(np.full((tokens, tokens), -1e9), k=1)
            scores = scores + mask
        attn = softmax(scores, axis=-1)
        mixed = attn @ v  # (..., heads, T, head_dim)
        merged = np.swapaxes(mixed, -3, -2).reshape(*lead, tokens, dim)
        return self.out(merged)

    @property
    def param_count(self) -> int:
        return self.qkv.param_count + self.out.param_count


@dataclass
class TransformerBlock:
    """Pre-norm transformer block: attention + MLP, residual connections."""

    norm1: LayerNorm
    attn: MultiHeadAttention
    norm2: LayerNorm
    mlp_in: Linear
    mlp_out: Linear

    @staticmethod
    def init(rng: np.random.Generator, dim: int, heads: int, mlp_ratio: int = 2) -> "TransformerBlock":
        return TransformerBlock(
            norm1=LayerNorm.init(dim),
            attn=MultiHeadAttention.init(rng, dim, heads),
            norm2=LayerNorm.init(dim),
            mlp_in=Linear.init(rng, dim, mlp_ratio * dim),
            mlp_out=Linear.init(rng, mlp_ratio * dim, dim),
        )

    def __call__(self, x: np.ndarray, causal: bool = False) -> np.ndarray:
        x = x + self.attn(self.norm1(x), causal=causal)
        x = x + self.mlp_out(gelu(self.mlp_in(self.norm2(x))))
        return x

    @property
    def param_count(self) -> int:
        return (
            self.norm1.param_count
            + self.attn.param_count
            + self.norm2.param_count
            + self.mlp_in.param_count
            + self.mlp_out.param_count
        )


@dataclass
class Conv2d:
    """2-D convolution (stride only, no padding) over ``(..., C, H, W)``."""

    weight: np.ndarray  # (out_c, in_c, k, k)
    bias: np.ndarray
    stride: int

    @staticmethod
    def init(rng: np.random.Generator, in_c: int, out_c: int, kernel: int, stride: int) -> "Conv2d":
        std = 1.0 / np.sqrt(in_c * kernel * kernel)
        return Conv2d(
            weight=rng.normal(0.0, std, size=(out_c, in_c, kernel, kernel)),
            bias=np.zeros(out_c),
            stride=stride,
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        *lead, in_c, height, width = x.shape
        out_c, _, k, _ = self.weight.shape
        out_h = (height - k) // self.stride + 1
        out_w = (width - k) // self.stride + 1
        # im2col across the whole batch at once
        cols = np.empty((*lead, out_h * out_w, in_c * k * k))
        idx = 0
        for i in range(out_h):
            for j in range(out_w):
                patch = x[..., i * self.stride: i * self.stride + k, j * self.stride: j * self.stride + k]
                cols[..., idx, :] = patch.reshape(*lead, -1)
                idx += 1
        flat_w = self.weight.reshape(out_c, -1)
        out = cols @ flat_w.T + self.bias  # (..., out_h*out_w, out_c)
        return np.swapaxes(out, -2, -1).reshape(*lead, out_c, out_h, out_w)

    @property
    def param_count(self) -> int:
        return self.weight.size + self.bias.size


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(..., C, H, W) -> (..., C) mean pooling."""
    return x.mean(axis=(-2, -1))


def sinusoidal_positions(tokens: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position encodings (tokens, dim)."""
    position = np.arange(tokens)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    encoding = np.zeros((tokens, dim))
    encoding[:, 0::2] = np.sin(position * div)
    encoding[:, 1::2] = np.cos(position * div[: encoding[:, 1::2].shape[1]])
    return encoding
