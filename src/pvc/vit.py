"""Progressive-encoding vision transformer.

The stack is a standard pre-norm ViT whose last `temporal_layers` layers
additionally carry a gated, causally masked attention across frames:

    x += S-MHA(LN(x))                          spatial, per frame
    x += alpha * T-MHA(AdaLN(x; x + TE))       temporal, causal, gated
    x += FFN(LN(x))

The gate alpha starts at exactly zero, so a freshly constructed stack is
bitwise a plain per-frame ViT.

Tokens travel as plain [B, T, N, C] arrays. Frame t of T is conditioned on
the timestamp `relative_timestamps(T)[t]`, computed from the frame count
where the temporal embedding reads it.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

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
from .input_pipeline import PIXEL_MEAN, PIXEL_STD, PixelLevels
from .tensor import (NEW_WEIGHT_STD, Array, Rng, _check_finite, _sub_cache, layer_norm,
                     linear, silu_mlp)

# Finite stand-in for -inf in masked attention scores; exp underflows to
# exactly 0, which keeps causality bitwise rather than approximately.
MASK_VALUE = -1e30


@dataclass
class PvcConfig:
    """Architectural constants; defaults follow the ViT-L/14 geometry."""
    image_size: int = 448
    patch_size: int = 14
    channels: int = 1024
    heads: int = 16
    ffn_dim: int = 4096
    layers: int = 24
    temporal_layers: int = 8
    shuffle_kernel: int = 4
    t_img: int = 4
    # constants, not fields: the benchmark workloads read cfg.pixel_mean/pixel_std
    pixel_mean: ClassVar[tuple] = PIXEL_MEAN
    pixel_std: ClassVar[tuple] = PIXEL_STD

    def __post_init__(self):
        for name in ("image_size", "patch_size", "channels", "heads", "ffn_dim",
                     "layers", "shuffle_kernel", "t_img"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.temporal_layers <= self.layers:
            raise ValueError("temporal_layers must be in [0, layers]")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.channels % self.heads != 0:
            raise ValueError("channels must be divisible by heads")
        if self.tokens_per_frame % (self.shuffle_kernel ** 2) != 0:
            raise ValueError("shuffle kernel^2 must divide tokens per frame")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens_per_frame(self) -> int:
        return self.grid ** 2

    @property
    def compressed_tokens(self) -> int:
        return self.tokens_per_frame // self.shuffle_kernel ** 2


@dataclass
class AttentionParams:
    heads: int
    wq: Array
    wk: Array
    wv: Array
    wo: Array
    bq: Array
    bk: Array
    bv: Array
    bo: Array


@dataclass
class LayerParams:
    """One ViT layer; temporal fields are None for plain layers."""
    ln1_gamma: Array
    ln1_beta: Array
    ln2_gamma: Array
    ln2_beta: Array
    ffn_w_in: Array
    ffn_b_in: Array
    ffn_w_out: Array
    ffn_b_out: Array
    smha: AttentionParams
    tmha: AttentionParams | None = None
    adaln: AdaLnParams | None = None
    te: TemporalEmbeddingParams | None = None
    gate_alpha: Array | None = None

    @property
    def is_temporal(self) -> bool:
        return self.tmha is not None


@dataclass
class PatchEmbedParams:
    weight: Array  # [patch*patch*3, C]
    bias: Array    # [C]
    pos: Array     # [N, C], shared across frames and tiles


@dataclass
class ModelParams:
    cfg: PvcConfig
    patch: PatchEmbedParams
    layers: list[LayerParams] = field(default_factory=list)


def named_params(params, prefix: str = ""):
    """Yield (dotted name, array) for every array in a parameter dataclass.

    Fields are walked in declaration order; a nested dataclass extends the
    name (`smha.wq`), the layers of a ModelParams are `layer00.`,
    `layer01.`, ..., and fields that are None or have no `shape` are skipped.
    The names are the weight entries of a saved model's manifest.
    """
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if hasattr(value, "shape"):
            yield prefix + f.name, value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from named_params(item, f"{prefix}layer{i:02d}.")
        elif dataclasses.is_dataclass(value):
            yield from named_params(value, f"{prefix}{f.name}.")


def init_attention(rng: Rng, c: int, heads: int) -> AttentionParams:
    w = lambda: rng.normal((c, c), NEW_WEIGHT_STD)
    return AttentionParams(
        heads=heads, wq=w(), wk=w(), wv=w(), wo=w(),
        bq=rng.zeros(c), bk=rng.zeros(c), bv=rng.zeros(c), bo=rng.zeros(c),
    )


def init_layer(rng: Rng, cfg: PvcConfig, temporal: bool) -> LayerParams:
    c = cfg.channels
    p = LayerParams(
        ln1_gamma=rng.ones(c), ln1_beta=rng.zeros(c),
        smha=init_attention(rng, c, cfg.heads),
        ln2_gamma=rng.ones(c), ln2_beta=rng.zeros(c),
        ffn_w_in=rng.normal((c, cfg.ffn_dim), NEW_WEIGHT_STD),
        ffn_b_in=rng.zeros(cfg.ffn_dim),
        ffn_w_out=rng.normal((cfg.ffn_dim, c), NEW_WEIGHT_STD),
        ffn_b_out=rng.zeros(c),
    )
    if temporal:
        p.tmha = init_attention(rng, c, cfg.heads)
        p.adaln = init_adaln(rng, c)
        p.te = init_temporal_embedding(rng, c)
        p.gate_alpha = rng.zeros(c)  # exact zero: init-identity guarantee
    return p


def init_model(seed: int, cfg: PvcConfig) -> ModelParams:
    return build_model(Rng(seed), cfg)


def build_model(rng: Rng, cfg: PvcConfig) -> ModelParams:
    """A model for cfg, every array from `rng`: `normal`, `zeros` or `ones`."""
    n = cfg.tokens_per_frame
    patch = PatchEmbedParams(
        weight=rng.normal((cfg.patch_size * cfg.patch_size * 3, cfg.channels),
                          NEW_WEIGHT_STD),
        bias=rng.zeros(cfg.channels),
        pos=rng.normal((n, cfg.channels), NEW_WEIGHT_STD),
    )
    plain = cfg.layers - cfg.temporal_layers
    layers = [init_layer(rng, cfg, temporal=(i >= plain))
              for i in range(cfg.layers)]
    return ModelParams(cfg=cfg, patch=patch, layers=layers)


def patchify(pixels: PixelLevels, cfg: PvcConfig, patch: PatchEmbedParams) -> Array:
    """Project [B,T,H,W,3] pixels to patch tokens [B,T,N,C].

    Each patch_size^2 pixel block is flattened row-major (row, col,
    channel) and linearly projected; a learned per-position embedding is
    added, shared across frames. The frames go through in `tensor.tiles`,
    and the patch rows of a frame too big for one tile: each tile's 8-bit
    levels are looked up straight into patch order, at most CHUNK_ELEMENTS
    values, and projected straight into the tokens, so the float64 pixels
    are never built.

    A frame axis with stride 0 (a static video held once, as
    `input_pipeline.video_to_pixel_tensor` returns it) is projected for its
    one frame, and the tokens come back broadcast to [B,T,N,C] with the
    same stride 0.
    """
    levels = pixels.levels
    b, t, h, w, _ = levels.shape
    if h != cfg.image_size or w != cfg.image_size:
        raise ValueError(f"frame size {h}x{w} != configured {cfg.image_size}")
    held_once = t > 1 and levels.strides[1] == 0
    if held_once:
        levels = levels[:, :1]
    g, ps, c = cfg.grid, cfg.patch_size, cfg.channels
    n = b * levels.shape[1]
    px = levels.reshape(n, g, ps, g, ps, 3)
    pos = patch.pos.reshape(g, g, c)
    tokens = np.empty((n, g, g, c))
    # a tile spans a frame's patch rows whole before it takes two frames,
    # so its block of tokens is contiguous
    for f, r in tensor.tiles((n, g), g * ps * ps * 3):
        # [frames, patch rows, g, ps, ps, 3], contiguous, in patch order
        x = pixels.values(px[f, r].transpose(0, 1, 3, 2, 4, 5))
        y = linear(x.reshape(*x.shape[:3], -1), patch.weight, patch.bias, out=tokens[f, r])
        y += pos[r]
    tokens = tokens.reshape(b, -1, g * g, c)
    return np.broadcast_to(tokens, (b, t, g * g, c)) if held_once else tokens


def _heads(a: Array, heads: int) -> Array:
    """The [S, H, L, d] head view of a [S, L, C] array; no copy."""
    s, l, c = a.shape
    return a.reshape(s, l, heads, c // heads).transpose(0, 2, 1, 3)


def _attention(x: Array, p: AttentionParams, causal: bool,
               cache: dict | None = None) -> Array:
    """Multi-head attention over axis 1 of x: [S, L, C] -> [S, L, C].

    The (sequences, heads, queries) grid goes through in `tensor.tiles`,
    so a score block never exceeds CHUNK_ELEMENTS elements. 1/sqrt(d) is
    folded into q, each block's exponentials multiply v unnormalised, and
    the [bq, d] context is divided by the row sums afterwards
    (FlashAttention's deferred normalisation). Masked scores are
    MASK_VALUE, whose exponential is exactly 0. A block's queries are dead
    once its scores exist, so its context is written over them: q becomes
    the context, and k and v are dropped before the output projection.
    With a `cache` dict, the grid runs as one block, and x, a copy of the
    scaled projection q taken before the loop, k, v, the context `ctx` and the
    probabilities `attn` [S, H, L, L] (that block's scores over their row
    sums) are recorded in it for the backward; `attn` is the whole score
    tensor the blocks avoid, so a cached forward is for toy-scale checks.
    """
    s, l, c = x.shape
    if c % p.heads != 0:
        raise ValueError(f"channels {c} not divisible by heads {p.heads}")
    q = linear(x, p.wq, p.bq)
    q *= 1.0 / np.sqrt(c // p.heads)
    k = linear(x, p.wk, p.bk)
    v = linear(x, p.wv, p.bv)
    if cache is not None:
        cache.update(x=x, q=q.copy(), k=k, v=v, ctx=q)
    qh, kh, vh = (_heads(a, p.heads) for a in (q, k, v))
    # [L, L]: True where the key comes after the query; each block takes its rows
    later = np.arange(l) > np.arange(l)[:, None] if causal else None
    with np.errstate(invalid="ignore"):  # inf - inf from inf inputs; reported below
        for block in tensor.tiles((s, p.heads, l), l, whole=cache is not None):
            ss, hs, qs = block
            scores = qh[block] @ kh[ss, hs].swapaxes(-1, -2)
            if causal:
                np.copyto(scores, MASK_VALUE, where=later[qs])
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            total = scores.sum(axis=-1, keepdims=True)
            # the terms are >= 0, so a NaN or Inf anywhere shows in its sum
            _check_finite(total, "attention")
            ctx = qh[block]  # this block's queries are dead now
            np.matmul(scores, vh[ss, hs], out=ctx)
            ctx /= total
            if cache is not None:
                scores /= total
                cache["attn"] = scores
    del k, v, kh, vh
    return linear(q, p.wo, p.bo)


def spatial_mha(x: Array, p: AttentionParams, cache: dict | None = None) -> Array:
    """Self-attention among the N patch tokens of each frame: [B*T, N, C]."""
    return _attention(x, p, causal=False, cache=cache)


def temporal_mha_causal(x: Array, p: AttentionParams,
                        cache: dict | None = None) -> Array:
    """Causal self-attention along frames at fixed spatial position: [B*N, T, C]."""
    return _attention(x, p, causal=True, cache=cache)


def layer_te(t: int, p: LayerParams, cache: dict | None = None) -> Array:
    """Per-frame conditioning vector [T, C] for one progressive layer of a
    T-frame video."""
    return temporal_embedding(sinusoidal_embed(relative_timestamps(t)), p.te, cache)


def progressive_layer_forward(x: Array, frames: int, p: LayerParams,
                              cache: dict | None = None, out: Array | None = None) -> Array:
    """One ViT layer on tokens [B, T, N, C] of a `frames`-frame video.

    T is `frames`, or 1 for a static video held once: that runs LN1,
    S-MHA, and AdaLN's LN and x-side GEMMs on its one frame, and AdaLN's
    timestamp condition gives it `frames` distinct frames. Applies the
    gated temporal block only when present; its TE goes through AdaLN's W3
    and W5 once, before the first chunk.

    The layer writes one output array, and never its input unless handed
    `out=x`. `out` (a writeable, C-contiguous float64 array of x's shape;
    it may be x itself) holds the result when x has every frame; a held-once
    x gets only its LN1 + S-MHA there, since the temporal block repeats it
    to `frames` frames in a new array. Each sublayer is added into the
    output a chunk at a time, reading each chunk before writing it, so its
    temporaries hold about CHUNK_ELEMENTS values each: LN1 + S-MHA over
    whole frames, the temporal block over spatial positions (T-MHA mixes
    only the frames of one position), LN2 + FFN over rows (by the FFN
    width, >= MLP_ROW_BLOCK).

    With a `cache` dict, every sublayer runs as one chunk and records its
    intermediates in a dict under its own key (`ln1`, `smha`, ...), and
    the ungated T-MHA output is kept as `tm`; the backward pass reads them.
    """
    b, t, n, c = x.shape
    if t not in (1, frames):
        raise ValueError(f"frame count {t} must be 1 or {frames}")
    if cache is not None and t != frames:
        raise ValueError("a static video held once cannot be cached; "
                         "the backward passes expect every frame")
    if out is None:
        out = np.empty(x.shape)
    elif (out.shape != x.shape or out.dtype != np.float64
          or not out.flags.c_contiguous or not out.flags.writeable):
        # a reshape of any other array could copy it, losing the writes
        raise ValueError(f"out must be a writeable C-contiguous float64 array of "
                         f"shape {x.shape}")
    whole = cache is not None

    x, out = x.reshape(b * t, n, c), out.reshape(b * t, n, c)
    for f, in tensor.tiles((b * t,), n * c, whole=whole):
        h = layer_norm(x[f], gamma=p.ln1_gamma, beta=p.ln1_beta,
                       cache=_sub_cache(cache, "ln1"))
        np.add(x[f], spatial_mha(h, p.smha, _sub_cache(cache, "smha")), out=out[f])
        del h
    out = out.reshape(b, t, n, c)

    if p.is_temporal:
        if t != frames:
            out = np.repeat(out, frames, axis=1)
        cond = adaln_condition(layer_te(frames, p, _sub_cache(cache, "te")), p.adaln)
        for s, in tensor.tiles((n,), b * frames * c, whole=whole):
            y = out[:, :, s]  # [B, T, n_c, C], written only after T-MHA
            # held once, AdaLN's x-side GEMMs and LN run on the one frame
            a = ada_ln(y[:, :t], cond, p.adaln, cache=_sub_cache(cache, "adaln"))
            a = a.transpose(0, 2, 1, 3).reshape(-1, frames, c)
            tm = temporal_mha_causal(a, p.tmha, _sub_cache(cache, "tmha"))
            del a
            tm = tm.reshape(b, y.shape[2], frames, c).transpose(0, 2, 1, 3)
            if cache is not None:
                cache["tm"] = tm.copy()  # ungated: the backward reads it
            tm *= p.gate_alpha
            y += tm
            del tm

    rows = out.reshape(-1, c)  # a view: out is contiguous
    ffn = len(p.ffn_b_in)
    for r, in tensor.tiles((len(rows),), ffn, tensor.MLP_ROW_BLOCK, whole=whole):
        h = layer_norm(rows[r], gamma=p.ln2_gamma, beta=p.ln2_beta,
                       cache=_sub_cache(cache, "ln2"))
        rows[r] += silu_mlp(h, p.ffn_w_in, p.ffn_w_out, p.ffn_b_in, p.ffn_b_out,
                            cache=_sub_cache(cache, "ffn"))
    return out


def vit_forward(x: Array, cfg: PvcConfig, model: ModelParams) -> Array:
    """Run the full stack: plain layers first, progressive layers last.

    Until the first temporal layer adds the timestamp embedding, every
    layer works on each frame alone. So a static video held once, its frame
    axis of stride 0 (as `patchify` returns it), goes through the stack as
    frame 0 alone until the first temporal layer gives it its T frames; a
    stack without temporal layers repeats its output at the end. The result
    equals running every layer on every frame. No token value is read:
    identical frames held one by one run every frame.

    Layer 0 writes a new array, so the caller's tokens are never written.
    That array is the residual stream, and every later layer updates it in
    place (`out=x`), so the stack holds one layer output plus one layer's
    tile-sized temporaries.
    """
    if x.ndim != 4:
        raise ValueError(f"tokens must be [B,T,N,C], got {x.shape}")
    if len(model.layers) != cfg.layers:
        raise ValueError(f"expected {cfg.layers} layers, got {len(model.layers)}")
    plain = cfg.layers - cfg.temporal_layers
    t = x.shape[1]
    if t > 1 and x.strides[1] == 0:
        x = x[:, :1]
    for i, p in enumerate(model.layers):
        if p.is_temporal != (i >= plain):
            raise ValueError(f"layer {i}: temporal={p.is_temporal}, expected "
                             f"{'temporal' if i >= plain else 'plain'}")
        x = progressive_layer_forward(x, t, p, out=x if i else None)
    if x.shape[1] != t:
        x = np.repeat(x, t, axis=1)
    return x


def plain_vit_forward(x: Array, model: ModelParams) -> Array:
    """Reference path: every frame through the stack with each layer's
    temporal block removed, so every layer works on each frame alone."""
    for p in model.layers:
        plain = dataclasses.replace(p, tmha=None, adaln=None, te=None, gate_alpha=None)
        x = progressive_layer_forward(x, x.shape[1], plain)
    return x
