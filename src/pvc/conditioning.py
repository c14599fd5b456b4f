"""Temporal conditioning: timestamps, sinusoidal encoding, the temporal
embedding MLP, and adaptive layer normalization.

These pieces are shared by the progressive ViT layers (condition width C)
and the compression head (condition width k^2 * C).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import NEW_WEIGHT_STD, Array, Rng, _sub_cache, layer_norm, silu_mlp

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


def ada_ln(x: Array, z: Array, p: AdaLnParams,
           cache: dict | None = None) -> Array:
    """gamma(z) * LayerNorm(x) + beta(z) over the last axis, with the
    per-position scale gamma(z) = SiLU(z @ W3) @ W4 and bias
    beta(z) = SiLU(z @ W5) @ W6.

    The inner LayerNorm carries no learned affine of its own; the scale
    and bias come entirely from the condition. x may have extent 1 where z
    has more (a static video held once), and is then normalised once. The
    scale is multiplied by the LN output in place, which is freed before
    the bias is computed. With a `cache` dict, the intermediates of the two
    MLPs (under `scale` and `shift`) and of layer_norm, and gamma, are
    recorded.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != p.dim:
        raise ValueError(f"condition width {z.shape[-1]} != {p.dim}")
    if x.ndim != z.ndim or np.broadcast_shapes(x.shape, z.shape) != z.shape:
        raise ValueError(f"x shape {x.shape} does not broadcast to z shape {z.shape}")
    out = silu_mlp(z, p.w3, p.w4, cache=_sub_cache(cache, "scale"))
    if cache is not None:
        cache["gamma"], out = out, out.copy()
    out *= layer_norm(x, cache=cache)
    out += silu_mlp(z, p.w5, p.w6, cache=_sub_cache(cache, "shift"))
    return out
