"""Adaptive token compression: pixel shuffle + conditioned norm + shared MLP.

Per frame, the n x n token grid is cut into non-overlapping k x k blocks;
each block becomes one token whose channels are the k^2 source tokens'
channels concatenated in row-major block order. The widened tokens then
pass through AdaLN conditioned on (token + temporal embedding) and a
two-layer MLP shared across frames. Frame t of T is embedded at the
timestamp `relative_timestamps(T)[t]`.

The widths follow from D = k^2 * C alone: AdaLN's and TE's hidden widths,
the MLP's hidden width and the output width are all ceil(D / WIDTH_RATIO).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import (
    AdaLnParams,
    TemporalEmbeddingParams,
    ada_ln,
    adaln_condition,
    init_adaln,
    init_temporal_embedding,
    relative_timestamps,
    sinusoidal_embed,
    temporal_embedding,
)
from . import tensor
from .tensor import NEW_WEIGHT_STD, Array, Rng, _sub_cache, silu_mlp
from .vit import PvcConfig

# every compressor width is D/4, as the `table4-pvc` budget preset counts
# them: 4096 for D = 16 x 1024 at ViT-L and k = 4
WIDTH_RATIO = 4


@dataclass
class CompressionParams:
    adaln: AdaLnParams                 # over D = k^2 * C, hidden W
    te: TemporalEmbeddingParams        # hidden W, D_out = k^2 * C
    w_in: Array                        # [k^2*C, W]
    b_in: Array
    w_out: Array                       # [W, W]
    b_out: Array

    @property
    def wide_dim(self) -> int:
        return self.w_in.shape[0]


def init_compression(rng: Rng, cfg: PvcConfig) -> CompressionParams:
    """The compressor for cfg, every width W = ceil(k²C / WIDTH_RATIO)."""
    wide = cfg.shuffle_kernel ** 2 * cfg.channels
    w = -(-wide // WIDTH_RATIO)
    return CompressionParams(
        adaln=init_adaln(rng, wide, hidden=w),
        te=init_temporal_embedding(rng, wide, hidden=w),
        w_in=rng.normal((wide, w), NEW_WEIGHT_STD),
        b_in=rng.zeros(w),
        w_out=rng.normal((w, w), NEW_WEIGHT_STD),
        b_out=rng.zeros(w),
    )


def _grid_side(n: int, k: int) -> int:
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ValueError(f"token count {n} is not a perfect square")
    if side % k != 0:
        raise ValueError(f"grid side {side} not divisible by kernel {k}")
    return side


def pixel_shuffle(x: Array, k: int) -> Array:
    """[B,T,N,C] -> a new [B,T,N/k^2, k^2*C] by k x k block concatenation."""
    x = np.asarray(x, dtype=np.float64)
    b, t, n, c = x.shape
    side = _grid_side(n, k)
    m = side // k
    g = x.reshape(b, t, m, k, m, k, c)
    g = g.transpose(0, 1, 2, 4, 3, 5, 6)  # [B,T,mr,mc,kr,kc,C]
    # always a copy: at k = 1 or m = 1 the reshape alone would be a view of x
    return np.array(g, order="C").reshape(b, t, m * m, k * k * c)


def pixel_unshuffle(y: Array, k: int) -> Array:
    """Exact inverse of pixel_shuffle; reconstructs [B,T,N,C] bitwise."""
    y = np.asarray(y, dtype=np.float64)
    b, t, m_tokens, wide = y.shape
    if wide % (k * k) != 0:
        raise ValueError(f"channel width {wide} not divisible by k^2={k * k}")
    c = wide // (k * k)
    m = _grid_side(m_tokens, 1)
    g = y.reshape(b, t, m, m, k, k, c)
    g = g.transpose(0, 1, 2, 4, 3, 5, 6)
    return np.ascontiguousarray(g.reshape(b, t, (m * k) ** 2, c))


def check_shuffled_width(wide: int, wide_dim: int) -> None:
    """Tokens shuffled to `wide` = k²C channels must be as wide as the
    compressor's k²C, `wide_dim`."""
    if wide != wide_dim:
        raise ValueError(f"shuffled width {wide} != params {wide_dim}")


def compress(x: Array, p: CompressionParams, cfg: PvcConfig,
             cache: dict | None = None) -> Array:
    """Compress tokens [B,T,N,C] per frame, N -> M = N/k^2; output [B,T,M,C_out].

    The (B, T) frames go through in `tensor.tiles`, M·k²C values each and at
    least MLP_ROW_BLOCK rows per tile where there are. Each tile's
    `pixel_shuffle` copy is private, so AdaLN normalises it in place: a tile
    holds that copy, AdaLN's two condition hiddens and one of its column
    tiles, and no z = x + TE. TE goes through AdaLN's W3 and W5 once, before
    the first tile. A `cache` dict (one tile) records the TE, AdaLN and MLP
    intermediates under `te`, `adaln`, `mlp`.
    """
    b, t, n, c = x.shape
    k = cfg.shuffle_kernel
    m = (_grid_side(n, k) // k) ** 2
    check_shuffled_width(k * k * c, p.wide_dim)
    te = temporal_embedding(sinusoidal_embed(relative_timestamps(t)), p.te,
                            _sub_cache(cache, "te"))
    cond = adaln_condition(te, p.adaln)
    shape, out = (b, t, m, p.w_out.shape[1]), None
    floor = -(-tensor.MLP_ROW_BLOCK // max(m, 1))  # ceil; N = 0 gives M = 0
    for bs, ts in tensor.tiles((b, t), m * p.wide_dim, floor, whole=cache is not None):
        xt = pixel_shuffle(x[bs, ts], k)  # a private copy, so AdaLN writes into it
        a = ada_ln(xt, cond[ts], p.adaln, _sub_cache(cache, "adaln"), out=xt)
        y = silu_mlp(a, p.w_in, p.w_out, p.b_in, p.b_out, _sub_cache(cache, "mlp"))
        if out is None:  # allocated after a tile, it reuses what the tile freed
            out = np.empty(shape)
        out[bs, ts] = y
    return np.empty(shape) if out is None else out
