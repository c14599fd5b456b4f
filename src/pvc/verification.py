"""Analytic backward passes and gradient/causality/identity checks.

Backwards are hand-derived per module rather than taped: the module set
is small and the derivation itself is what gets verified, against a
central-finite-difference oracle. Each backward reads the intermediates
that the module's one public forward recorded in a `cache` dict its
caller passed, so the checked forward is the forward the model runs.
Each returns its input grads, then the parameter grads in a dataclass of
the module's own parameter type, so `named_params` names both alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import CompressionParams, compress, init_compression, pixel_unshuffle
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
from .tensor import Array, Rng, silu_grad
from .vit import (
    AttentionParams,
    LayerParams,
    ModelParams,
    PvcConfig,
    _heads,
    init_attention,
    init_layer,
    init_model,
    named_params,
    plain_vit_forward,
    progressive_layer_forward,
    temporal_mha_causal,
    vit_forward,
)

GRAD_TOL = 1e-6
FD_STEP = 1e-5
REL_ERR_FLOOR = 1e-8

CHECKED_MODULES = ("adaln", "temporal_embedding", "tmha_causal",
                   "progressive_layer", "compression")


# ---------------------------------------------------------------------------
# finite-difference oracle

def finite_diff_grad(f, x: Array) -> Array:
    """Central difference (f(x+h e_i) - f(x-h e_i)) / 2h per coordinate, h = FD_STEP.

    f must be a pure scalar-valued function; x is not modified on exit.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = float(f(x))
        flat[i] = orig - FD_STEP
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError("finite_diff_grad: non-finite objective")
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


# ---------------------------------------------------------------------------
# backward building blocks; each reads the cache its forward filled

def _ln_bwd(dy: Array, cache: dict) -> Array:
    """Input grad of layer_norm over the last axis (standard three terms)."""
    xhat = cache["xhat"]
    return (dy - dy.mean(axis=-1, keepdims=True)
            - xhat * (dy * xhat).mean(axis=-1, keepdims=True)) / cache["std"]


def _ln_affine_bwd(dy: Array, gamma: Array, cache: dict):
    """Grads (dx, dgamma, dbeta) of layer_norm(x) * gamma + beta."""
    c = dy.shape[-1]
    dgamma = (dy * cache["xhat"]).reshape(-1, c).sum(axis=0)
    return _ln_bwd(dy * gamma, cache), dgamma, dy.reshape(-1, c).sum(axis=0)


def _linear_grads(x: Array, dy: Array, w: Array):
    """Grads for y = x @ w + b with arbitrary leading axes."""
    x2 = x.reshape(-1, x.shape[-1])
    d2 = dy.reshape(-1, dy.shape[-1])
    dx = (d2 @ w.T).reshape(*dy.shape[:-1], w.shape[0])
    return dx, x2.T @ d2, d2.sum(axis=0)


def _mlp_bwd(dy: Array, w_in: Array, w_out: Array, cache: dict):
    """Grads (dx, dw_in, db_in, dw_out, db_out) of tensor.silu_mlp."""
    dact, dw_out, db_out = _linear_grads(cache["act"], dy, w_out)
    dx, dw_in, db_in = _linear_grads(cache["x"], dact * silu_grad(cache["pre"]), w_in)
    return dx, dw_in, db_in, dw_out, db_out


def _attn_bwd(dy: Array, p: AttentionParams, cache: dict):
    """Grads of vit._attention from the probabilities its forward cached.

    The textbook softmax backward over the whole [S, H, L, L] `attn`.
    Masked probabilities are exactly 0, and so are their score grads.
    """
    x, q, k, v, attn = cache["x"], cache["q"], cache["k"], cache["v"], cache["attn"]
    s, l, c = x.shape
    h = p.heads
    dctx, dwo, dbo = _linear_grads(cache["ctx"], dy, p.wo)
    qh, kh, vh, dch = (_heads(a, h) for a in (q, k, v, dctx))
    merge = lambda a: a.transpose(0, 2, 1, 3).reshape(s, l, c)  # inverse of _heads
    dattn = dch @ vh.swapaxes(-1, -2)
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    # the scores are q kᵀ for the cached q, which is x wq + bq scaled by 1/sqrt(d)
    dq = merge(dscores @ kh) / np.sqrt(c // h)
    dk = merge(dscores.swapaxes(-1, -2) @ qh)
    dv = merge(attn.swapaxes(-1, -2) @ dch)
    dxq, dwq, dbq = _linear_grads(x, dq, p.wq)
    dxk, dwk, dbk = _linear_grads(x, dk, p.wk)
    dxv, dwv, dbv = _linear_grads(x, dv, p.wv)
    return dxq + dxk + dxv, AttentionParams(h, dwq, dwk, dwv, dwo, dbq, dbk, dbv, dbo)


def _adaln_bwd(dy: Array, p: AdaLnParams, cache: dict):
    """Grads (dx, dte, AdaLnParams) of conditioning.ada_ln through z = x + te[t],
    which its forward never forms: x gets the normalized branch and both
    condition branches, te the condition grad pooled over batch and tokens."""
    z = cache["x"] + cache["te"][None, :, None, :]
    dz_g, dw3, _, dw4, _ = _mlp_bwd(dy * cache["xhat"], p.w3, p.w4, {**cache["scale"], "x": z})
    dz_b, dw5, _, dw6, _ = _mlp_bwd(dy, p.w5, p.w6, {**cache["shift"], "x": z})
    dz = dz_g + dz_b
    return (_ln_bwd(dy * cache["gamma"], cache) + dz, dz.sum(axis=(0, 2)),
            AdaLnParams(dw3, dw4, dw5, dw6))


def _te_bwd(d_te: Array, p: TemporalEmbeddingParams, cache: dict):
    d_t_tilde, dw1, _, dw2, _ = _mlp_bwd(d_te, p.w1, p.w2, cache)
    return d_t_tilde, TemporalEmbeddingParams(dw1, dw2)


def _conditioned_adaln_bwd(dy: Array, p, cache: dict):
    """Grads (dx, adaln grads, te grads) of the AdaLN of a layer or the
    compressor, whose te comes from its own TE MLP."""
    dx, d_te, adaln = _adaln_bwd(dy, p.adaln, cache["adaln"])
    return dx, adaln, _te_bwd(d_te, p.te, cache["te"])[1]


def _layer_bwd(dy: Array, p: LayerParams, cache: dict):
    """Reverse pass of one layer from its forward's cache: (dx, LayerParams of grads)."""
    b, t, n, c = dy.shape

    # FFN branch, which ran on the [B*T*N, C] rows
    dn2, *ffn = _mlp_bwd(dy.reshape(-1, c), p.ffn_w_in, p.ffn_w_out, cache["ffn"])
    dx2, *ln2 = _ln_affine_bwd(dn2, p.ln2_gamma, cache["ln2"])
    dx2 = dy + dx2.reshape(b, t, n, c)

    # temporal branch
    dx1, temporal = dx2, {}
    if p.is_temporal:
        dtm = (dx2 * p.gate_alpha).transpose(0, 2, 1, 3).reshape(b * n, t, c)
        dtmha, tmha = _attn_bwd(dtm, p.tmha, cache["tmha"])
        da, adaln, te = _conditioned_adaln_bwd(
            dtmha.reshape(b, n, t, c).transpose(0, 2, 1, 3), p, cache)
        dx1 = dx2 + da
        temporal = dict(tmha=tmha, adaln=adaln, te=te,
                        gate_alpha=(dx2 * cache["tm"]).sum(axis=(0, 1, 2)))

    # spatial branch
    dsmha, smha = _attn_bwd(dx1.reshape(b * t, n, c), p.smha, cache["smha"])
    dx0, *ln1 = _ln_affine_bwd(dsmha, p.ln1_gamma, cache["ln1"])
    return dx1 + dx0.reshape(b, t, n, c), LayerParams(*ln1, *ln2, *ffn, smha, **temporal)


def _compression_bwd(dy: Array, p: CompressionParams, k: int, cache: dict):
    """Reverse pass of the compressor to the ViT tokens: (dx, CompressionParams of grads)."""
    da, *mlp = _mlp_bwd(dy, p.w_in, p.w_out, cache["mlp"])
    dz, adaln, te = _conditioned_adaln_bwd(da, p, cache)
    return pixel_unshuffle(dz, k), CompressionParams(adaln, te, *mlp)


def stack_input_gradient(x: Array, model: ModelParams, upstream: Array) -> Array:
    """d(loss)/d(input tokens) through the whole layer stack.

    One forward per layer, each keeping its cache for the reverse sweep.
    """
    caches = []
    for p in model.layers:
        caches.append({})
        x = progressive_layer_forward(x, x.shape[1], p, caches[-1])
    g = upstream
    for p, cache in zip(reversed(model.layers), reversed(caches)):
        g = _layer_bwd(g, p, cache)[0]
    return g


# ---------------------------------------------------------------------------
# gradient-check runner

@dataclass
class GradEntry:
    name: str
    shape: tuple
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    module: str
    seed: int
    tol: float
    entries: list[GradEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format_text(self) -> str:
        lines = [f"module = {self.module}", f"seed = {self.seed}",
                 f"tol = {self.tol:g}", f"h = {FD_STEP:g}"]
        for e in self.entries:
            lines.append(f"param {e.name} shape={'x'.join(map(str, e.shape))} "
                         f"max_rel_err = {e.max_rel_err:.3e} "
                         f"{'pass' if e.passed else 'FAIL'}")
        lines.append(f"overall = {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _rel_err(g_analytic: Array, g_fd: Array) -> float:
    denom = np.maximum(np.abs(g_fd), REL_ERR_FLOOR)
    return float(np.max(np.abs(g_analytic - g_fd) / denom)) if g_fd.size else 0.0


def _probe(module_id: str, seed: int):
    """Build (inputs, params, forward, backward) for one module.

    `forward(cache)` runs the module's forward, filling `cache` when it is
    a dict, and `backward(g, cache)` returns from that cache the grads of
    the inputs, in their order, then a params-typed tree of the rest. The
    input arrays and the arrays of `params` are the ones `forward` reads, so
    the FD loop can poke them in place. Probe weights are drawn wide (std
    0.2) so no gradient entry sits in the finite-difference noise floor.
    """
    rng = Rng(seed)
    std = 0.2

    if module_id == "adaln":
        x = rng.normal((2, 3, 2, 6))
        te = rng.normal((3, 6))
        p = _randomized(init_adaln(Rng(0), 6, hidden=5), rng, std)
        return ({"x": x, "te": te}, p,
                lambda cache: ada_ln(x, adaln_condition(te, p), p, cache),
                lambda g, cache: _adaln_bwd(g, p, cache))

    if module_id == "temporal_embedding":
        t_tilde = sinusoidal_embed(relative_timestamps(3))  # the codes the MLP receives
        p = _randomized(init_temporal_embedding(Rng(0), 5, hidden=4), rng, std)
        return ({"t_tilde": t_tilde}, p, lambda cache: temporal_embedding(t_tilde, p, cache),
                lambda g, cache: _te_bwd(g, p, cache))

    if module_id == "tmha_causal":
        x = rng.normal((2, 4, 6))
        p = _randomized(init_attention(Rng(0), 6, heads=2), rng, std)
        return ({"x": x}, p, lambda cache: temporal_mha_causal(x, p, cache),
                lambda g, cache: _attn_bwd(g, p, cache))

    if module_id == "progressive_layer":
        cfg = toy_config(image_size=28, channels=8, heads=2, ffn_dim=16,
                         layers=1, temporal_layers=1)
        p = _randomized(init_layer(rng, cfg, temporal=True), rng, std)
        x = rng.normal((1, 3, cfg.tokens_per_frame, cfg.channels))
        return ({"x": x}, p, lambda cache: progressive_layer_forward(x, 3, p, cache),
                lambda g, cache: _layer_bwd(g, p, cache))

    if module_id == "compression":
        # C = 3, k²C = 27 and the derived width 7 all differ
        cfg = toy_config(image_size=42, channels=3, heads=1, ffn_dim=6, layers=1,
                         temporal_layers=0, shuffle_kernel=3)
        p = _randomized(init_compression(Rng(0), cfg), rng, std)
        x = rng.normal((1, 2, cfg.tokens_per_frame, cfg.channels))
        return ({"x": x}, p, lambda cache: compress(x, p, cfg, cache),
                lambda g, cache: _compression_bwd(g, p, cfg.shuffle_kernel, cache))

    raise ValueError(f"unknown module id {module_id!r}; "
                     f"expected one of {CHECKED_MODULES}")


def _randomized(params, rng: Rng, std: float):
    """Redraw every array of `params` from rng in named_params order; only
    the shapes of what `params` held matter."""
    for _, arr in named_params(params):
        arr[...] = rng.normal(arr.shape, std)
    return params


def run_grad_check(module_id: str, seed: int, tol: float = GRAD_TOL) -> GradCheckReport:
    """Compare every input's and parameter's analytic gradient with finite
    differences; the forward runs once with a cache for the backward."""
    inputs, params, forward, backward = _probe(module_id, seed)
    cache: dict = {}
    out0 = forward(cache)
    g_up = Rng(seed + 1).normal(out0.shape)
    # keep the objective tiny so float64 rounding of the loss stays below
    # the 1e-8 denominator floor; structurally-zero gradients (e.g. the
    # key bias, a softmax shift invariance) would otherwise drown in FD noise
    g_up *= 1e-4 / float(np.sum(np.abs(out0 * g_up)))
    *input_grads, param_grads = backward(g_up, cache)
    loss = lambda: float(np.sum(forward(None) * g_up))

    report = GradCheckReport(module=module_id, seed=seed, tol=tol)
    tensors = [*inputs.items(), *named_params(params)]
    grads = [*input_grads, *(g for _, g in named_params(param_grads))]
    for (name, arr), grad in zip(tensors, grads, strict=True):
        err = _rel_err(grad, finite_diff_grad(lambda _: loss(), arr))
        report.entries.append(GradEntry(name=name, shape=arr.shape,
                                        max_rel_err=err, passed=err < tol))
    return report


# ---------------------------------------------------------------------------
# mechanism checks (used by the CLI and the acceptance suite)

def toy_config(**overrides) -> PvcConfig:
    """Small stack for fast checks: 8 layers, last 4 temporal, C=32."""
    base = dict(image_size=56, patch_size=14, channels=32, heads=4,
                ffn_dim=64, layers=8, temporal_layers=4, shuffle_kernel=2)
    base.update(overrides)
    return PvcConfig(**base)


def randomize_gates(model: ModelParams, rng: Rng, std: float = 0.5) -> None:
    for p in model.layers:
        if p.gate_alpha is not None:
            p.gate_alpha[...] = rng.normal(p.gate_alpha.shape, std)


def check_init_identity(seed: int):
    """Freshly initialized toy stack (gates zero) vs the plain per-frame
    stack on 4 frames; passes only when they are bitwise equal."""
    cfg, t = toy_config(), 4
    model = init_model(seed, cfg)
    rng = Rng(seed + 1000)
    x = rng.normal((1, t, cfg.tokens_per_frame, cfg.channels))
    out = vit_forward(x, cfg, model)
    ref = plain_vit_forward(x, model)
    diff = float(np.max(np.abs(out - ref)))
    return diff == 0.0, diff


def check_causality(seed: int):
    """Perturbation causality plus exact gradient causality on a 6-frame toy stack.

    Returns (passed, details) where details carries the worst forward
    leak at frames before the perturbation and the largest gradient that
    reached a later frame; both must be exactly 0.
    """
    cfg, t = toy_config(), 6
    model = init_model(seed, cfg)
    rng = Rng(seed + 2000)
    randomize_gates(model, rng)
    n, c = cfg.tokens_per_frame, cfg.channels
    x = rng.normal((1, t, n, c))
    base = vit_forward(x, cfg, model)

    worst_leak = 0.0
    for j in range(t):
        xp = x.copy()
        xp[:, j] += rng.normal((n, c))
        out = vit_forward(xp, cfg, model)
        if j > 0:
            worst_leak = max(worst_leak,
                             float(np.max(np.abs(out[:, :j] - base[:, :j]))))

    worst_grad_leak = 0.0
    for j in range(t - 1):
        up = np.zeros_like(base)
        up[:, j] = rng.normal((n, c))
        g = stack_input_gradient(x, model, up)
        worst_grad_leak = max(worst_grad_leak,
                              float(np.max(np.abs(g[:, j + 1:]))))

    passed = worst_leak == 0.0 and worst_grad_leak == 0.0
    return passed, {"forward_leak": worst_leak, "grad_leak": worst_grad_leak}
