"""Analytic backward passes and gradient/causality/identity checks.

Backwards are hand-derived per module rather than taped: the module set
is small and the derivation itself is what gets verified, against a
central-finite-difference oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import CompressionParams, init_compression, pixel_shuffle, pixel_unshuffle
from .conditioning import (
    AdaLnParams,
    TemporalEmbeddingParams,
    relative_timestamps,
    sinusoidal_embed,
)
from .tensor import Array, Rng, sigmoid, silu_grad
from .vit import (
    MASK_VALUE,
    AttentionParams,
    LayerParams,
    ModelParams,
    PvcConfig,
    VideoBatch,
    init_model,
    plain_vit_forward,
    progressive_layer_forward,
    vit_forward,
)

GRAD_TOL = 1e-6
FD_STEP = 1e-5
REL_ERR_FLOOR = 1e-8

CHECKED_MODULES = ("adaln", "temporal_embedding", "tmha_causal",
                   "progressive_layer", "compression")


# ---------------------------------------------------------------------------
# finite-difference oracle

def finite_diff_grad(f, x: Array, h: float = FD_STEP) -> Array:
    """Central difference (f(x+h e_i) - f(x-h e_i)) / 2h per coordinate.

    f must be a pure scalar-valued function; x is not modified on exit.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError("finite_diff_grad: non-finite objective")
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# shared backward building blocks

def _ln_fwd(x: Array, eps: float):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (x - mu) * inv, inv


def _ln_bwd(dy: Array, xhat: Array, inv: Array) -> Array:
    # standard three-term layer-norm backward
    return inv * (dy - dy.mean(axis=-1, keepdims=True)
                  - xhat * (dy * xhat).mean(axis=-1, keepdims=True))


def _linear_grads(x: Array, dy: Array, w: Array):
    """Grads for y = x @ w + b with arbitrary leading axes."""
    x2 = x.reshape(-1, x.shape[-1])
    d2 = dy.reshape(-1, dy.shape[-1])
    dx = (d2 @ w.T).reshape(*dy.shape[:-1], w.shape[0])
    return dx, x2.T @ d2, d2.sum(axis=0)


def _attn_fwd(x: Array, p: AttentionParams, causal: bool):
    s, l, c = x.shape
    h = p.heads
    d = c // h
    q = (x @ p.wq + p.bq).reshape(s, l, h, d).transpose(0, 2, 1, 3)
    k = (x @ p.wk + p.bk).reshape(s, l, h, d).transpose(0, 2, 1, 3)
    v = (x @ p.wv + p.bv).reshape(s, l, h, d).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d)
    if causal:
        mask = np.tril(np.ones((l, l), dtype=bool))
        scores = np.where(mask, scores, MASK_VALUE)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(s, l, c)
    y = ctx @ p.wo + p.bo
    cache = {"x": x, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx, "d": d}
    return y, cache


def _attn_bwd(dy: Array, p: AttentionParams, cache: dict):
    x, q, k, v = cache["x"], cache["q"], cache["k"], cache["v"]
    attn, ctx, d = cache["attn"], cache["ctx"], cache["d"]
    s, l, c = x.shape
    h = p.heads

    dctx_m, dwo, dbo = _linear_grads(ctx, dy, p.wo)
    dctx = dctx_m.reshape(s, l, h, d).transpose(0, 2, 1, 3)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    # softmax jacobian; masked positions have attn == 0 so their grad is 0
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores = dscores / np.sqrt(d)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q

    dq_m = dq.transpose(0, 2, 1, 3).reshape(s, l, c)
    dk_m = dk.transpose(0, 2, 1, 3).reshape(s, l, c)
    dv_m = dv.transpose(0, 2, 1, 3).reshape(s, l, c)
    dxq, dwq, dbq = _linear_grads(x, dq_m, p.wq)
    dxk, dwk, dbk = _linear_grads(x, dk_m, p.wk)
    dxv, dwv, dbv = _linear_grads(x, dv_m, p.wv)
    grads = {"wq": dwq, "wk": dwk, "wv": dwv, "wo": dwo,
             "bq": dbq, "bk": dbk, "bv": dbv, "bo": dbo}
    return dxq + dxk + dxv, grads


def _adaln_fwd(x: Array, z: Array, p: AdaLnParams, eps: float):
    xhat, inv = _ln_fwd(x, eps)
    h_g = z @ p.w3
    a_g = h_g * sigmoid(h_g)
    gamma = a_g @ p.w4
    h_b = z @ p.w5
    a_b = h_b * sigmoid(h_b)
    beta = a_b @ p.w6
    y = gamma * xhat + beta
    cache = {"z": z, "xhat": xhat, "inv": inv, "h_g": h_g, "a_g": a_g,
             "gamma": gamma, "h_b": h_b, "a_b": a_b}
    return y, cache


def _adaln_bwd(dy: Array, p: AdaLnParams, cache: dict):
    z, xhat, inv = cache["z"], cache["xhat"], cache["inv"]
    dgamma = dy * xhat
    dxhat = dy * cache["gamma"]
    dx = _ln_bwd(dxhat, xhat, inv)

    da_g, dw4, _ = _linear_grads(cache["a_g"], dgamma, p.w4)
    dh_g = da_g * silu_grad(cache["h_g"])
    dz, dw3, _ = _linear_grads(z, dh_g, p.w3)

    da_b, dw6, _ = _linear_grads(cache["a_b"], dy, p.w6)
    dh_b = da_b * silu_grad(cache["h_b"])
    dz_b, dw5, _ = _linear_grads(z, dh_b, p.w5)
    dz = dz + dz_b
    return dx, dz, {"w3": dw3, "w4": dw4, "w5": dw5, "w6": dw6}


def _te_fwd(t_tilde: Array, p: TemporalEmbeddingParams):
    h1 = t_tilde @ p.w1
    a1 = h1 * sigmoid(h1)
    te = a1 @ p.w2
    return te, {"t_tilde": t_tilde, "h1": h1, "a1": a1}


def _te_bwd(d_te: Array, p: TemporalEmbeddingParams, cache: dict):
    da1, dw2, _ = _linear_grads(cache["a1"], d_te, p.w2)
    dh1 = da1 * silu_grad(cache["h1"])
    d_t_tilde, dw1, _ = _linear_grads(cache["t_tilde"], dh1, p.w1)
    return d_t_tilde, {"w1": dw1, "w2": dw2}


# ---------------------------------------------------------------------------
# module-level backwards (the public surfaces)

def backward_adaln(x: Array, z: Array, p: AdaLnParams, upstream: Array,
                   eps: float = 1e-6) -> dict:
    """Grads of gamma(z)*LN(x)+beta(z) for x, z, and W3..W6."""
    if x.shape != z.shape or upstream.shape != x.shape:
        raise ValueError("adaln backward: shape mismatch")
    _, cache = _adaln_fwd(x, z, p, eps)
    dx, dz, pg = _adaln_bwd(upstream, p, cache)
    return {"x": dx, "z": dz, **pg}


def backward_temporal_embedding(t_tilde: Array, p: TemporalEmbeddingParams,
                                upstream: Array) -> dict:
    _, cache = _te_fwd(t_tilde, p)
    d_in, pg = _te_bwd(upstream, p, cache)
    return {"t_tilde": d_in, **pg}


def backward_tmha_causal(x: Array, p: AttentionParams, upstream: Array) -> dict:
    _, cache = _attn_fwd(x, p, causal=True)
    dx, pg = _attn_bwd(upstream, p, cache)
    return {"x": dx, **pg}


def _layer_fwd_cached(v: VideoBatch, p: LayerParams, ts_scale: float, eps: float):
    """Forward of one (plain or progressive) layer keeping every intermediate."""
    x0 = v.features
    b, t, n, c = x0.shape
    cache: dict = {"shape": (b, t, n, c)}

    xhat1, inv1 = _ln_fwd(x0, eps)
    n1 = xhat1 * p.ln1_gamma + p.ln1_beta
    s_out, smha_cache = _attn_fwd(n1.reshape(b * t, n, c), p.smha, causal=False)
    x1 = x0 + s_out.reshape(b, t, n, c)
    cache.update(xhat1=xhat1, inv1=inv1, smha=smha_cache)

    if p.is_temporal:
        t_tilde = sinusoidal_embed(v.timestamps, ts_scale)
        te, te_cache = _te_fwd(t_tilde, p.te)
        z = x1 + te[None, :, None, :]
        a, adaln_cache = _adaln_fwd(x1, z, p.adaln, eps)
        a_r = np.ascontiguousarray(a.transpose(0, 2, 1, 3).reshape(b * n, t, c))
        tm_r, tmha_cache = _attn_fwd(a_r, p.tmha, causal=True)
        tm = tm_r.reshape(b, n, t, c).transpose(0, 2, 1, 3)
        x2 = x1 + p.gate_alpha * tm
        cache.update(te=te_cache, adaln=adaln_cache, tmha=tmha_cache, tm=tm)
    else:
        x2 = x1

    xhat2, inv2 = _ln_fwd(x2, eps)
    n2 = xhat2 * p.ln2_gamma + p.ln2_beta
    h2 = n2 @ p.ffn_w_in + p.ffn_b_in
    a2 = h2 * sigmoid(h2)
    out = x2 + a2 @ p.ffn_w_out + p.ffn_b_out
    cache.update(xhat2=xhat2, inv2=inv2, n2=n2, h2=h2, a2=a2)
    return out, cache


def backward_progressive_layer(v: VideoBatch, p: LayerParams, upstream: Array,
                               ts_scale: float = 1000.0,
                               eps: float = 1e-6) -> dict:
    """Full reverse pass of one layer: input grad plus every parameter grad.

    The condition z = x + TE feeds gradient into x through both the
    normalized branch and the condition branch of AdaLN, and into the
    temporal-embedding MLP through the summed condition grad.
    """
    if upstream.shape != v.features.shape:
        raise ValueError("upstream shape mismatch")
    _, cache = _layer_fwd_cached(v, p, ts_scale, eps)
    b, t, n, c = cache["shape"]
    grads: dict = {}

    # FFN branch
    dx2 = upstream.copy()
    da2, dwout, dbout = _linear_grads(cache["a2"], upstream, p.ffn_w_out)
    dh2 = da2 * silu_grad(cache["h2"])
    dn2, dwin, dbin = _linear_grads(cache["n2"], dh2, p.ffn_w_in)
    grads.update({"ffn_w_out": dwout, "ffn_b_out": dbout,
                  "ffn_w_in": dwin, "ffn_b_in": dbin})
    grads["ln2_gamma"] = (dn2 * cache["xhat2"]).sum(axis=(0, 1, 2))
    grads["ln2_beta"] = dn2.sum(axis=(0, 1, 2))
    dx2 += _ln_bwd(dn2 * p.ln2_gamma, cache["xhat2"], cache["inv2"])

    # temporal branch
    if p.is_temporal:
        tm = cache["tm"]
        grads["gate_alpha"] = (dx2 * tm).sum(axis=(0, 1, 2))
        dtm = dx2 * p.gate_alpha
        dtm_r = np.ascontiguousarray(dtm.transpose(0, 2, 1, 3).reshape(b * n, t, c))
        da_r, tg = _attn_bwd(dtm_r, p.tmha, cache["tmha"])
        grads.update({f"tmha.{k}": g for k, g in tg.items()})
        da = da_r.reshape(b, n, t, c).transpose(0, 2, 1, 3)
        dx1_ln, dz, ag = _adaln_bwd(da, p.adaln, cache["adaln"])
        grads.update({f"adaln.{k}": g for k, g in ag.items()})
        d_te = dz.sum(axis=(0, 2))  # condition grad, pooled over batch and tokens
        _, teg = _te_bwd(d_te, p.te, cache["te"])
        grads.update({f"te.{k}": g for k, g in teg.items()})
        dx1 = dx2 + dx1_ln + dz
    else:
        dx1 = dx2

    # spatial branch
    dn1_r, sg = _attn_bwd(dx1.reshape(b * t, n, c), p.smha, cache["smha"])
    grads.update({f"smha.{k}": g for k, g in sg.items()})
    dn1 = dn1_r.reshape(b, t, n, c)
    grads["ln1_gamma"] = (dn1 * cache["xhat1"]).sum(axis=(0, 1, 2))
    grads["ln1_beta"] = dn1.sum(axis=(0, 1, 2))
    dx0 = dx1 + _ln_bwd(dn1 * p.ln1_gamma, cache["xhat1"], cache["inv1"])
    grads["x"] = dx0
    return grads


def backward_compression(v: VideoBatch, p: CompressionParams, cfg: PvcConfig,
                         upstream: Array) -> dict:
    """Reverse pass of the compression head back to the ViT tokens."""
    k = cfg.shuffle_kernel
    xt = pixel_shuffle(v.features, k)
    t_tilde = sinusoidal_embed(v.timestamps, cfg.ts_scale)
    te, te_cache = _te_fwd(t_tilde, p.te)
    z = xt + te[None, :, None, :]
    a, adaln_cache = _adaln_fwd(xt, z, p.adaln, cfg.eps)
    h = a @ p.w_in + p.b_in
    act = h * sigmoid(h)

    grads: dict = {}
    dact, dwout, dbout = _linear_grads(act, upstream, p.w_out)
    dh = dact * silu_grad(h)
    da, dwin, dbin = _linear_grads(a, dh, p.w_in)
    grads.update({"w_out": dwout, "b_out": dbout, "w_in": dwin, "b_in": dbin})

    dxt, dz, ag = _adaln_bwd(da, p.adaln, adaln_cache)
    grads.update({f"adaln.{k_}": g for k_, g in ag.items()})
    d_te = dz.sum(axis=(0, 2))
    _, teg = _te_bwd(d_te, p.te, te_cache)
    grads.update({f"te.{k_}": g for k_, g in teg.items()})
    grads["x"] = pixel_unshuffle(dxt + dz, k)
    return grads


def stack_input_gradient(v: VideoBatch, cfg: PvcConfig, model: ModelParams,
                         upstream: Array) -> Array:
    """d(loss)/d(input tokens) through the whole layer stack."""
    inputs = [v]
    for p in model.layers:
        inputs.append(progressive_layer_forward(inputs[-1], p,
                                                ts_scale=cfg.ts_scale,
                                                eps=cfg.eps))
    g = upstream
    for p, vin in zip(reversed(model.layers), reversed(inputs[:-1])):
        g = backward_progressive_layer(vin, p, g, ts_scale=cfg.ts_scale,
                                       eps=cfg.eps)["x"]
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
    h: float
    entries: list[GradEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format_text(self) -> str:
        lines = [f"module = {self.module}", f"seed = {self.seed}",
                 f"tol = {self.tol:g}", f"h = {self.h:g}"]
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
    """Build (tensors-to-check, forward, analytic) for one module.

    `tensors` maps name -> array; the arrays are aliased into the
    structures `forward` reads, so the FD loop can poke them in place.
    Probe weights are drawn wide (std 0.2) so no gradient entry sits in
    the finite-difference noise floor.
    """
    rng = Rng(seed)
    std = 0.2

    if module_id == "adaln":
        d, h = 6, 5
        x = rng.normal((2, 3, d))
        z = rng.normal((2, 3, d))
        p = AdaLnParams(w3=rng.normal((d, h), std), w4=rng.normal((h, d), std),
                        w5=rng.normal((d, h), std), w6=rng.normal((h, d), std))
        tensors = {"x": x, "z": z, "w3": p.w3, "w4": p.w4, "w5": p.w5, "w6": p.w6}
        from .conditioning import ada_ln
        forward = lambda: ada_ln(x, z, p)
        analytic = lambda g: backward_adaln(x, z, p, g)
        return tensors, forward, analytic

    if module_id == "temporal_embedding":
        t, h, d_out = 3, 4, 5
        t_tilde = rng.uniform((t, 256), -1.0, 1.0)
        p = TemporalEmbeddingParams(w1=rng.normal((256, h), std),
                                    w2=rng.normal((h, d_out), std))
        from .conditioning import temporal_embedding
        tensors = {"t_tilde": t_tilde, "w1": p.w1, "w2": p.w2}
        forward = lambda: temporal_embedding(t_tilde, p)
        analytic = lambda g: backward_temporal_embedding(t_tilde, p, g)
        return tensors, forward, analytic

    if module_id == "tmha_causal":
        s, t, c, heads = 2, 4, 6, 2
        x = rng.normal((s, t, c))
        p = AttentionParams(
            heads=heads,
            wq=rng.normal((c, c), std), wk=rng.normal((c, c), std),
            wv=rng.normal((c, c), std), wo=rng.normal((c, c), std),
            bq=rng.normal((c,), std), bk=rng.normal((c,), std),
            bv=rng.normal((c,), std), bo=rng.normal((c,), std))
        from .vit import temporal_mha_causal
        tensors = {"x": x, "wq": p.wq, "wk": p.wk, "wv": p.wv, "wo": p.wo,
                   "bq": p.bq, "bk": p.bk, "bv": p.bv, "bo": p.bo}
        forward = lambda: temporal_mha_causal(x, p)
        analytic = lambda g: backward_tmha_causal(x, p, g)
        return tensors, forward, analytic

    if module_id == "progressive_layer":
        cfg = PvcConfig(image_size=28, patch_size=14, channels=8, heads=2,
                        ffn_dim=16, layers=1, temporal_layers=1,
                        shuffle_kernel=2)
        p = _random_temporal_layer(rng, cfg, std)
        x = rng.normal((1, 3, cfg.tokens_per_frame, cfg.channels))
        v = VideoBatch(features=x, timestamps=relative_timestamps(3))
        tensors = {"x": x}
        tensors.update(_layer_tensor_map(p))
        forward = lambda: progressive_layer_forward(v, p, cfg.ts_scale, cfg.eps).features
        analytic = lambda g: backward_progressive_layer(v, p, g, cfg.ts_scale, cfg.eps)
        return tensors, forward, analytic

    if module_id == "compression":
        cfg = PvcConfig(image_size=56, patch_size=14, channels=3, heads=1,
                        ffn_dim=6, layers=1, temporal_layers=0,
                        shuffle_kernel=2)
        p = init_compression(rng, cfg, mlp_hidden=7, out_dim=5)
        for w in (p.adaln.w3, p.adaln.w4, p.adaln.w5, p.adaln.w6,
                  p.te.w1, p.te.w2, p.w_in, p.w_out):
            w *= std / 0.02
        x = rng.normal((1, 2, cfg.tokens_per_frame, cfg.channels))
        v = VideoBatch(features=x, timestamps=relative_timestamps(2))
        from .compression import compress
        tensors = {"x": x,
                   "adaln.w3": p.adaln.w3, "adaln.w4": p.adaln.w4,
                   "adaln.w5": p.adaln.w5, "adaln.w6": p.adaln.w6,
                   "te.w1": p.te.w1, "te.w2": p.te.w2,
                   "w_in": p.w_in, "b_in": p.b_in,
                   "w_out": p.w_out, "b_out": p.b_out}
        forward = lambda: compress(v, p, cfg)
        analytic = lambda g: backward_compression(v, p, cfg, g)
        return tensors, forward, analytic

    raise ValueError(f"unknown module id {module_id!r}; "
                     f"expected one of {CHECKED_MODULES}")


def _random_temporal_layer(rng: Rng, cfg: PvcConfig, std: float) -> LayerParams:
    from .vit import init_layer
    p = init_layer(rng, cfg, temporal=True)
    for name, arr in _layer_tensor_map(p).items():
        arr[...] = rng.normal(arr.shape, std)
    return p


def _layer_tensor_map(p: LayerParams) -> dict:
    m = {"ln1_gamma": p.ln1_gamma, "ln1_beta": p.ln1_beta,
         "ln2_gamma": p.ln2_gamma, "ln2_beta": p.ln2_beta,
         "ffn_w_in": p.ffn_w_in, "ffn_b_in": p.ffn_b_in,
         "ffn_w_out": p.ffn_w_out, "ffn_b_out": p.ffn_b_out}
    for pref, attn in (("smha", p.smha), ("tmha", p.tmha)):
        if attn is None:
            continue
        for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo"):
            m[f"{pref}.{k}"] = getattr(attn, k)
    if p.adaln is not None:
        m.update({"adaln.w3": p.adaln.w3, "adaln.w4": p.adaln.w4,
                  "adaln.w5": p.adaln.w5, "adaln.w6": p.adaln.w6})
    if p.te is not None:
        m.update({"te.w1": p.te.w1, "te.w2": p.te.w2})
    if p.gate_alpha is not None:
        m["gate_alpha"] = p.gate_alpha
    return m


def run_grad_check(module_id: str, seed: int, tol: float = GRAD_TOL,
                   h: float = FD_STEP) -> GradCheckReport:
    """Compare every parameter's analytic gradient with finite differences."""
    tensors, forward, analytic = _probe(module_id, seed)
    out0 = forward()
    g_up = Rng(seed + 1).normal(out0.shape)
    # keep the objective tiny so float64 rounding of the loss stays below
    # the 1e-8 denominator floor; structurally-zero gradients (e.g. the
    # key bias, a softmax shift invariance) would otherwise drown in FD noise
    g_up *= 1e-4 / float(np.sum(np.abs(out0 * g_up)))
    loss = lambda: float(np.sum(forward() * g_up))
    grads = analytic(g_up)

    report = GradCheckReport(module=module_id, seed=seed, tol=tol, h=h)
    for name, arr in tensors.items():
        fd = np.zeros_like(arr)
        flat, fdflat = arr.ravel(), fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fdflat[i] = (fp - fm) / (2.0 * h)
        err = _rel_err(grads[name], fd)
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


def check_init_identity(seed: int, cfg: PvcConfig | None = None,
                        t: int = 4, tol: float = 1e-15):
    """Freshly initialized stack (gates zero) vs the plain per-frame stack."""
    cfg = cfg or toy_config()
    model = init_model(seed, cfg)
    rng = Rng(seed + 1000)
    x = rng.normal((1, t, cfg.tokens_per_frame, cfg.channels))
    v = VideoBatch(features=x, timestamps=relative_timestamps(t))
    out = vit_forward(v, cfg, model).features
    ref = plain_vit_forward(v, cfg, model).features
    diff = float(np.max(np.abs(out - ref)))
    return diff <= tol, diff


def check_causality(seed: int, cfg: PvcConfig | None = None, t: int = 6,
                    tol: float = 1e-12):
    """Perturbation causality plus exact gradient causality on a toy stack.

    Returns (passed, details) where details carries the worst forward
    leak at frames before the perturbation and the largest gradient that
    reached a later frame (must be exactly 0).
    """
    cfg = cfg or toy_config()
    model = init_model(seed, cfg)
    rng = Rng(seed + 2000)
    randomize_gates(model, rng)
    n, c = cfg.tokens_per_frame, cfg.channels
    x = rng.normal((1, t, n, c))
    v = VideoBatch(features=x, timestamps=relative_timestamps(t))
    base = vit_forward(v, cfg, model).features

    worst_leak = 0.0
    for j in range(t):
        xp = x.copy()
        xp[:, j] += rng.normal((n, c))
        out = vit_forward(VideoBatch(features=xp, timestamps=v.timestamps),
                          cfg, model).features
        if j > 0:
            worst_leak = max(worst_leak,
                             float(np.max(np.abs(out[:, :j] - base[:, :j]))))

    worst_grad_leak = 0.0
    for j in range(t - 1):
        up = np.zeros_like(base)
        up[:, j] = rng.normal((n, c))
        g = stack_input_gradient(v, cfg, model, up)
        worst_grad_leak = max(worst_grad_leak,
                              float(np.max(np.abs(g[:, j + 1:]))))

    passed = worst_leak <= tol and worst_grad_leak == 0.0
    return passed, {"forward_leak": worst_leak, "grad_leak": worst_grad_leak}
