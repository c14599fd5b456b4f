"""Temporal conditioning: timestamps, sinusoidal encoding, the temporal
embedding MLP, and adaptive layer normalization.

These pieces are shared by the progressive ViT layers (condition width C)
and the compression head (condition width k^2 * C).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import (NEW_WEIGHT_STD, Array, Rng, _sub_cache, layer_norm, linear, silu,
                     silu_mlp)

SINUSOID_DIM = 256
TS_SCALE = 1000.0  # stretches t in [0,1] so sub-second spacings reach fast channels


@dataclass
class TemporalEmbeddingParams:
    """Two-layer MLP mapping a 256-d sinusoidal code to a conditioning vector."""
    w1: Array  # [256, H]
    w2: Array  # [H, D_out]


@dataclass
class AdaLnParams:
    """Weights producing the conditioned scale/bias of adaptive layer norm."""
    w3: Array  # [D, H] -> scale branch
    w4: Array  # [H, D]
    w5: Array  # [D, H] -> bias branch
    w6: Array  # [H, D]

    @property
    def dim(self) -> int:
        return self.w3.shape[0]


def init_temporal_embedding(rng: Rng, d_out: int,
                            hidden: int | None = None) -> TemporalEmbeddingParams:
    h = d_out if hidden is None else hidden
    return TemporalEmbeddingParams(
        w1=rng.normal((SINUSOID_DIM, h), NEW_WEIGHT_STD),
        w2=rng.normal((h, d_out), NEW_WEIGHT_STD),
    )


def init_adaln(rng: Rng, dim: int, hidden: int | None = None) -> AdaLnParams:
    h = dim if hidden is None else hidden
    w = lambda *shape: rng.normal(shape, NEW_WEIGHT_STD)
    return AdaLnParams(w3=w(dim, h), w4=w(h, dim), w5=w(dim, h), w6=w(h, dim))


def relative_timestamps(t: int) -> Array:
    """Uniform timestamps [0, 1/(T-1), ..., 1]; a single frame gets [0]."""
    if t < 1:
        raise ValueError(f"frame count must be >= 1, got {t}")
    return np.linspace(0.0, 1.0, t)


def sinusoidal_embed(t: Array) -> Array:
    """Encode timestamps in [0,1] as 256-d sinusoids of TS_SCALE * t.

    Frequencies are geometric, f_j = 10000^(-j/127) for j in 0..127, the
    sin block first then the cos block.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError(f"timestamps must be 1-D, got shape {t.shape}")
    half = SINUSOID_DIM // 2
    freqs = 10000.0 ** (-np.arange(half) / (half - 1)) * TS_SCALE
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def temporal_embedding(t_tilde: Array, p: TemporalEmbeddingParams,
                       cache: dict | None = None) -> Array:
    """TE = SiLU(t_tilde @ W1) @ W2, applied row-wise.

    With a `cache` dict, the MLP's intermediates are recorded in it.
    """
    t_tilde = np.asarray(t_tilde, dtype=np.float64)
    if t_tilde.shape[-1] != p.w1.shape[0]:
        raise ValueError(
            f"sinusoid width {t_tilde.shape[-1]} != W1 rows {p.w1.shape[0]}")
    return silu_mlp(t_tilde, p.w1, p.w2, cache=cache)


@dataclass
class AdaLnCondition:
    """AdaLN's timestamp side for T frames: te [T, D], and its rows through
    the first weight of each condition MLP, te @ W3 and te @ W5 [T, H]."""
    te: Array
    scale: Array
    shift: Array

    def __getitem__(self, frames) -> AdaLnCondition:
        """The condition of a slice of the T frames."""
        return AdaLnCondition(self.te[frames], self.scale[frames], self.shift[frames])


def adaln_condition(te: Array, p: AdaLnParams) -> AdaLnCondition:
    """te [T, D] through W3 and W5 once per forward, so that each ada_ln
    tile or chunk reads those weights only for its own x rows."""
    te = np.asarray(te, dtype=np.float64)
    if te.ndim != 2 or te.shape[1] != p.dim:
        raise ValueError(f"condition width {p.dim}: got te {te.shape}")
    return AdaLnCondition(te, linear(te, p.w3), linear(te, p.w5))


def _condition_hidden(x: Array, te_w: Array, w: Array, cache: dict | None) -> Array:
    """SiLU(z @ w) for z = x + te[t], as SiLU(x @ w + (te @ w)[t]) from
    te_w = te @ w; x may hold one frame of the T that te_w has."""
    pre = linear(x, w)
    pre = np.add(pre, te_w[:, None, :], out=pre if pre.shape[1] == len(te_w) else None)
    act = silu(pre)
    if cache is not None:
        cache.update(pre=pre, act=act)
    return act


def ada_ln(x: Array, cond: AdaLnCondition, p: AdaLnParams, cache: dict | None = None,
           out: Array | None = None) -> Array:
    """AdaLN of tokens x [B, T or 1, N, D] conditioned on z = x + te[t], for
    the per-frame te [T, D] of `cond` (see adaln_condition): gamma(z) *
    LayerNorm(x) + beta(z) over the last axis, where gamma(z) =
    SiLU(z @ W3) @ W4 and beta(z) = SiLU(z @ W5) @ W6. The result is
    [B, T, N, D].

    z is never formed: each first GEMM is split by linearity into x @ W3 +
    (te @ W3)[t], the te side taken from `cond`, so x of one frame (a
    static video held once) runs the x-side GEMMs and its LayerNorm on that
    frame alone. The inner LayerNorm carries no learned affine; it is
    written into `out` when given (x's shape; it may be x itself), which
    holds the result when x has every frame. W4 and W6 then run in column
    tiles from `tensor.tiles`, each tile scaling and shifting its columns
    of the LN output in place. With a `cache` dict (one tile), a copy of x,
    te, the hidden layers' `pre` and `act` (under `scale` and `shift`),
    layer_norm's `xhat` and `std`, and gamma are recorded.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[3] != p.dim:
        raise ValueError(f"condition width {p.dim}: got x {x.shape}")
    b, t, n, d = x.shape
    frames = len(cond.te)
    if t not in (1, frames):
        raise ValueError(f"x frame count {t} must be 1 or te's {frames}")
    gamma_in = _condition_hidden(x, cond.scale, p.w3, _sub_cache(cache, "scale"))
    beta_in = _condition_hidden(x, cond.shift, p.w5, _sub_cache(cache, "shift"))
    if cache is not None:
        cache.update(x=x.copy(), te=cond.te)
    res = layer_norm(x, cache=cache, out=out)
    if t != frames:
        res = np.repeat(res, frames, axis=1)
    for cs, in tensor.tiles((d,), b * frames * n, whole=cache is not None):
        gamma, cols = linear(gamma_in, p.w4[:, cs]), res[..., cs]
        cols *= gamma
        if cache is not None:
            cache["gamma"] = gamma
        del gamma  # freed before the shift tile is made
        cols += linear(beta_in, p.w6[:, cs])
    return res
