import tracemalloc

import numpy as np
import pytest

from pvc import conditioning, tensor, vit
from pvc.compression import compress, init_compression
from pvc.input_pipeline import (PIXEL_MEAN, PIXEL_STD, PixelLevels, RawImage, RawVideo,
                                 image_to_static_video, level_table, video_to_pixel_tensor)
from pvc.tensor import NEW_WEIGHT_STD, NonFiniteError, Rng, layer_norm, silu
from pvc.verification import randomize_gates, run_grad_check, toy_config
from pvc.vit import (
    AttentionParams,
    PatchEmbedParams,
    PvcConfig,
    init_attention,
    init_layer,
    init_model,
    layer_te,
    patchify,
    plain_vit_forward,
    progressive_layer_forward,
    spatial_mha,
    temporal_mha_causal,
    vit_forward,
)
from test_input_pipeline import reference_normalize


def wide(p: AttentionParams, std: float) -> AttentionParams:
    """p with its drawn weights rescaled to std."""
    for w in (p.wq, p.wk, p.wv, p.wo):
        w *= std / NEW_WEIGHT_STD
    return p


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_attention(x, p, causal, probs=None):
    """Multi-head attention one sequence and one head at a time; the
    softmax probabilities go into `probs` [S, H, L, L] when given."""
    s, l, c = x.shape
    d = c // p.heads
    out = np.zeros_like(x)
    for i in range(s):
        q, k, v = x[i] @ p.wq + p.bq, x[i] @ p.wk + p.bk, x[i] @ p.wv + p.bv
        ctx = np.zeros((l, c))
        for h in range(p.heads):
            cols = slice(h * d, (h + 1) * d)
            scores = q[:, cols] @ k[:, cols].T / np.sqrt(d)
            if causal:
                scores[np.triu_indices(l, 1)] = -np.inf
            attn = softmax(scores)
            if probs is not None:
                probs[i, h] = attn
            ctx[:, cols] = attn @ v[:, cols]
        out[i] = ctx @ p.wo + p.bo
    return out


def peak_bytes(fn):
    """Tracemalloc peak of a second call of fn above what was held before it."""
    fn()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def seeded_levels(seed, shape):
    """Seeded uint8 levels of the given [B, T, H, W, 3] shape."""
    return np.random.Generator(np.random.Philox(seed)).integers(0, 256, shape, np.uint8)


def reference_patchify(levels, cfg, patch):
    """Tokens [B, T, N, C] of uint8 levels [B, T, H, W, 3]: normalised as
    `reference_normalize` does, put in patch order, then one GEMM plus bias
    plus pos."""
    b, t = levels.shape[:2]
    g, ps = cfg.grid, cfg.patch_size
    x = reference_normalize(levels, PIXEL_MEAN, PIXEL_STD)
    x = x.reshape(b, t, g, ps, g, ps, 3).transpose(0, 1, 2, 4, 3, 5, 6)
    return x.reshape(b, t, g * g, ps * ps * 3) @ patch.weight + patch.bias + patch.pos


def make_batch(rng, cfg, b=1, t=4):
    return rng.normal((b, t, cfg.tokens_per_frame, cfg.channels))


def cached_arrays(cache):
    """Every array a forward's cache dict records, nested dicts included."""
    for v in cache.values():
        if isinstance(v, dict):
            yield from cached_arrays(v)
        elif isinstance(v, np.ndarray):
            yield v


class TestConfig:
    def test_vit_l_geometry(self):
        cfg = PvcConfig()
        assert cfg.tokens_per_frame == 1024  # 448/14 = 32 per side
        assert cfg.compressed_tokens == 64
        assert cfg.layers == 24 and cfg.temporal_layers == 8

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            PvcConfig(image_size=450)
        with pytest.raises(ValueError):
            PvcConfig(channels=1000, heads=16)
        with pytest.raises(ValueError):
            PvcConfig(temporal_layers=30)


class TestPatchify:
    def test_token_count_448(self):
        cfg = PvcConfig(channels=4, heads=1, ffn_dim=8)
        rng = Rng(1)
        patch = PatchEmbedParams(weight=rng.normal((14 * 14 * 3, 4), 0.02),
                                 bias=np.zeros(4),
                                 pos=rng.normal((1024, 4), 0.02))
        x = patchify(PixelLevels(seeded_levels(1, (1, 1, 448, 448, 3)), level_table()),
                     cfg, patch)
        assert x.shape == (1, 1, 1024, 4)

    def test_zero_image_gives_pos_only(self):
        cfg = PvcConfig(image_size=28, patch_size=14, channels=4, heads=1,
                        ffn_dim=8, shuffle_kernel=2)
        rng = Rng(2)
        patch = PatchEmbedParams(weight=rng.normal((14 * 14 * 3, 4)),
                                 bias=np.zeros(4),
                                 pos=rng.normal((4, 4)))
        # every level's value is 0
        pixels = PixelLevels(seeded_levels(2, (1, 2, 28, 28, 3)), np.zeros((256, 3)))
        x = patchify(pixels, cfg, patch)
        assert np.array_equal(x[0, 0], patch.pos)
        assert np.array_equal(x[0, 1], patch.pos)

    def test_pixel_identity_oracle(self):
        # 2x2 image, patch 1, identity projection, and each level's value
        # the level itself
        cfg = PvcConfig(image_size=2, patch_size=1, channels=3, heads=1,
                        ffn_dim=4, shuffle_kernel=2)
        w = np.eye(3)
        patch = PatchEmbedParams(weight=w, bias=np.zeros(3), pos=np.zeros((4, 3)))
        levels = seeded_levels(3, (1, 1, 2, 2, 3))
        table = np.repeat(np.arange(256.0)[:, None], 3, axis=1)
        x = patchify(PixelLevels(levels, table), cfg, patch)
        # row-major patch order: (0,0), (0,1), (1,0), (1,1)
        assert np.array_equal(x[0, 0], levels[0, 0].reshape(4, 3))

    # toy_config(): 56 px frames are 4 patch rows of 2352 pixel values each,
    # so these chunks give 3 frames, 1 frame, 3 + 1 patch rows and 1 patch
    # row per tile (B=2, T=3)
    @pytest.mark.parametrize("chunk, rows", [(3 * 9408, [48, 48]), (9408, [16] * 6),
                                             (3 * 2352, [12, 4] * 6), (1, [4] * 24)])
    def test_tiles_match_one_tile(self, chunk, rows, monkeypatch):
        cfg = toy_config()
        patch = init_model(56, cfg).patch
        pixels = PixelLevels(seeded_levels(57, (2, 3, cfg.image_size, cfg.image_size, 3)),
                             level_table())
        ref = patchify(pixels, cfg, patch)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
        heights = []
        monkeypatch.setattr(vit, "linear", lambda x, *w, real=vit.linear, **kw:
                            heights.append(x.size // x.shape[-1]) or real(x, *w, **kw))
        out = patchify(pixels, cfg, patch)
        assert heights == rows
        # BLAS may round a product of another height differently
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_static_video_is_projected_once(self, monkeypatch):
        cfg = toy_config()
        patch = init_model(58, cfg).patch
        frame = seeded_levels(59, (2, 1, cfg.image_size, cfg.image_size, 3))
        table = level_table()
        rows = []

        def spy(x, w, b=None, out=None):
            rows.append(x.size // x.shape[-1])
            return tensor.linear(x, w, b, out)

        monkeypatch.setattr(vit, "linear", spy)
        tokens = patchify(PixelLevels(np.broadcast_to(frame, (2, 4, *frame.shape[2:])), table),
                          cfg, patch)
        assert rows == [2 * cfg.tokens_per_frame]
        assert tokens.shape == (2, 4, cfg.tokens_per_frame, cfg.channels)
        assert tokens.strides[1] == 0
        # each frame's tokens are that frame's projection; a GEMM over all
        # 4 frames may block differently, so it agrees to rounding only
        one = patchify(PixelLevels(frame, table), cfg, patch)
        assert np.array_equal(tokens, np.repeat(one, 4, axis=1))
        every = patchify(PixelLevels(np.repeat(frame, 4, axis=1), table), cfg, patch)
        assert np.allclose(tokens, every, rtol=1e-13, atol=1e-13)

    # toy_config(): 3 * 2352 values give tiles of 3 + 1 patch rows per frame
    @pytest.mark.parametrize("chunk", [None, 3 * 2352])
    @pytest.mark.parametrize("kind", ["moving", "static", "tiles"])
    def test_levels_give_the_tokens_of_float_pixels(self, kind, chunk, monkeypatch):
        cfg = toy_config()
        patch = init_model(62, cfg).patch
        gen = np.random.Generator(np.random.Philox(63))
        images = [RawImage(gen.integers(0, 256, (cfg.image_size,) * 2 + (3,), np.uint8))
                  for _ in range(3)]
        if kind == "tiles":
            # as `pvc pipeline` builds an image: tiles on the batch axis, each
            # held once over 4 frames
            levels = np.stack([im.pixels for im in images])[:, None]
            pixels = PixelLevels(np.broadcast_to(levels, (3, 4, *levels.shape[2:])),
                                 level_table())
        else:
            video = RawVideo(images) if kind == "moving" else image_to_static_video(images[0], 4)
            pixels = video_to_pixel_tensor(video)
        assert (pixels.levels.strides[1] == 0) == (kind != "moving")
        if chunk is not None:
            monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
        tokens, want = patchify(pixels, cfg, patch), reference_patchify(pixels.levels, cfg, patch)
        assert (tokens.strides[1] == 0) == (pixels.levels.strides[1] == 0)
        # BLAS may round a product of another height differently
        assert np.max(np.abs(tokens - want)) <= 1e-13 * np.max(np.abs(want))

    def test_static_image_pipeline_holds_one_frame(self):
        # a 4-frame static image held once: one frame of pixels and one of
        # tokens stay, and no step builds all 4 frames
        cfg, t = toy_config(), 4
        patch = init_model(60, cfg).patch
        gen = np.random.Generator(np.random.Philox(61))
        img = RawImage(gen.integers(0, 256, (cfg.image_size, cfg.image_size, 3), np.uint8))
        video = image_to_static_video(img, t)
        frame_px = cfg.image_size ** 2 * 3 * 8
        frame_tokens = cfg.tokens_per_frame * cfg.channels * 8
        tracemalloc.start()
        try:
            pixels = video_to_pixel_tensor(video)
            tokens = patchify(pixels, cfg, patch)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tokens.shape == (1, t, cfg.tokens_per_frame, cfg.channels)
        assert held <= 1.5 * frame_px + frame_tokens
        assert peak < t * frame_px


class TestSpatialMha:
    def test_single_token(self):
        rng = Rng(4)
        p = wide(init_attention(rng, c=6, heads=2), 0.3)
        x = rng.normal((2, 1, 6))
        expect = (x @ p.wv + p.bv) @ p.wo + p.bo
        assert np.max(np.abs(spatial_mha(x, p) - expect)) < 1e-12

    def test_identical_tokens_identical_outputs(self):
        rng = Rng(5)
        p = wide(init_attention(rng, c=6, heads=2), 0.3)
        x = np.repeat(rng.normal((1, 1, 6)), 5, axis=1)
        out = spatial_mha(x, p)
        assert np.max(np.abs(out - out[:, :1])) == 0.0

    def test_explicit_attention_oracle(self):
        rng = Rng(6)
        c = 4
        p = wide(init_attention(rng, c=c, heads=1), 0.3)
        x = rng.normal((1, 3, c))
        q, k, v = x[0] @ p.wq + p.bq, x[0] @ p.wk + p.bk, x[0] @ p.wv + p.bv
        attn = softmax(q @ k.T / np.sqrt(c))
        expect = (attn @ v) @ p.wo + p.bo
        assert np.max(np.abs(spatial_mha(x, p)[0] - expect)) < 1e-12


class TestTemporalMhaCausal:
    def test_first_frame_sees_only_itself(self):
        rng = Rng(7)
        p = wide(init_attention(rng, c=6, heads=2), 0.3)
        x = rng.normal((3, 5, 6))
        out = temporal_mha_causal(x, p)
        single = temporal_mha_causal(x[:, :1], p)
        # accumulation order differs between the two shapes
        assert np.max(np.abs(out[:, 0] - single[:, 0])) < 1e-14

    def test_t_equals_one(self):
        rng = Rng(8)
        p = wide(init_attention(rng, c=6, heads=2), 0.3)
        x = rng.normal((4, 1, 6))
        expect = (x @ p.wv + p.bv) @ p.wo + p.bo
        assert np.max(np.abs(temporal_mha_causal(x, p) - expect)) < 1e-12

    def test_perturbation_causality(self):
        rng = Rng(9)
        p = wide(init_attention(rng, c=8, heads=2), 0.3)
        x = rng.normal((2, 6, 8))
        base = temporal_mha_causal(x, p)
        for j in range(1, 6):
            xp = x.copy()
            xp[:, j] += rng.normal((2, 8))
            out = temporal_mha_causal(xp, p)
            assert np.array_equal(out[:, :j], base[:, :j])
            assert np.max(np.abs(out[:, j:] - base[:, j:])) > 0


@pytest.mark.parametrize("mha, causal", [(spatial_mha, False),
                                          (temporal_mha_causal, True)])
def test_attention_matches_reference_and_keeps_input(mha, causal):
    rng = Rng(10)
    p = wide(init_attention(rng, c=8, heads=2), 0.5)
    x = rng.normal((3, 5, 8)) * 2.0
    x0 = x.copy()
    out = mha(x, p)
    assert np.array_equal(x, x0)
    assert np.max(np.abs(out - reference_attention(x, p, causal))) <= 1e-12


# CHUNK_ELEMENTS values that cut [S=3, H=2, L=7] into blocks of: one query row;
# 3 queries (7 = 3 + 3 + 1); one whole head; both heads of 2 sequences (3 = 2 + 1)
SMALL_ATTN_BLOCKS = [1, 3 * 7, 7 * 7, 2 * 2 * 7 * 7]


@pytest.mark.parametrize("block", SMALL_ATTN_BLOCKS)
def test_attention_blocks_tile_the_query_grid(block, monkeypatch):
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", block)
    hits = np.zeros((3, 2, 7), dtype=int)
    blocks = tensor.tiles((3, 2, 7), 7)
    for b in blocks:
        hits[b] += 1
        assert hits[b].size * 7 <= max(block, 7)
    assert (hits == 1).all() and len(blocks) > 1


# d = 4 < L = 7, or a sequence shorter than the head width, d = 16 > L = 7;
# both go through the one deferred-normalisation path
@pytest.mark.parametrize("c", [8, 32], ids=["deferred", "short"])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("block", SMALL_ATTN_BLOCKS)
def test_blocked_attention_matches_reference(block, causal, c, monkeypatch):
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", block)
    rng = Rng(60)
    p = wide(init_attention(rng, c=c, heads=2), 0.5)
    x = rng.normal((3, 7, c)) * 2.0
    mha = temporal_mha_causal if causal else spatial_mha
    probs = np.empty((3, 2, 7, 7))
    assert np.max(np.abs(mha(x, p) - reference_attention(x, p, causal, probs))) <= 1e-12
    # the probabilities a cached forward records for the backward
    cache = {}
    mha(x, p, cache)
    attn = cache["attn"]
    assert np.max(np.abs(attn - probs)) <= 1e-12
    assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-15
    if causal:
        assert (attn[..., np.triu(np.ones((7, 7), dtype=bool), 1)] == 0.0).all()


@pytest.mark.parametrize("name", ["compress", "attention"])
def test_cached_forward_runs_as_one_tile(name, monkeypatch):
    # with 7-element chunks the uncached forward takes several tiles (one
    # frame each for compress); the cached one takes one, so its whole-size
    # cache needs no copying
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 7)
    monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 2)
    counts, real = [], tensor.tiles

    def tiles(*args, **kwargs):
        made = real(*args, **kwargs)
        counts.append(len(made))
        return made

    monkeypatch.setattr(tensor, "tiles", tiles)
    rng = Rng(65)
    x = rng.normal((3, 7, 8))
    if name == "compress":
        cfg = toy_config(channels=8, heads=2)
        comp = init_compression(rng, cfg)
        x = rng.normal((2, 3, cfg.tokens_per_frame, 8))
        forward = lambda cache: compress(x, comp, cfg, cache)
    else:
        p = wide(init_attention(rng, c=8, heads=2), 0.5)
        forward = lambda cache: temporal_mha_causal(x, p, cache)
    ref = forward(None)
    assert counts[0] > 1
    uncached, counts[:] = counts[:], []
    cache = {}
    got = forward(cache)
    assert counts == [1] * len(counts)  # compress's AdaLN tiles its columns too
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if name == "compress":
        assert uncached[0] == 6  # the uncached call: one tile per frame
        assert counts == [1, 1]
        assert cache["mlp"]["act"].shape == (2, 3, cfg.compressed_tokens, 4 * 8 // 4)
        assert cache["adaln"]["xhat"].shape == (2, 3, cfg.compressed_tokens, 4 * 8)
    else:
        assert cache["attn"].shape == (3, 2, 7, 7)
        assert np.max(np.abs(cache["attn"].sum(axis=-1) - 1.0)) <= 1e-15


@pytest.mark.parametrize("module", ["tmha_causal", "progressive_layer"])
def test_grad_check_with_small_blocks(module, monkeypatch):
    # several attention blocks per sequence with an uneven last one, FFN
    # tiles of MLP_ROW_BLOCK rows, and uncached forwards (the finite
    # differences) of several layer chunks
    monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 2)
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 12)
    report = run_grad_check(module, seed=0)
    assert report.passed
    assert max(e.max_rel_err for e in report.entries) < 1e-6


@pytest.mark.parametrize("mha", [spatial_mha, temporal_mha_causal])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attention_non_finite_input_raises(mha, bad):
    p = wide(init_attention(Rng(61), c=8, heads=2), 0.5)
    x = Rng(62).normal((2, 5, 8))
    x[1, 3, 2] = bad
    with pytest.raises(NonFiniteError):
        mha(x, p)


def test_spatial_mha_peak_memory_is_bounded():
    # the whole [1, 4, 1024, 1024] score tensor alone would be 33.6 MB
    p = init_attention(Rng(63), c=32, heads=4)
    x = Rng(64).normal((1, 1024, 32))
    assert peak_bytes(lambda: spatial_mha(x, p)) < 8e6


class TestProgressiveLayer:
    def _temporal_layer(self, rng, cfg, gate_std=0.0):
        p = init_layer(rng, cfg, temporal=True)
        if gate_std:
            p.gate_alpha[...] = rng.normal(p.gate_alpha.shape, gate_std)
        return p

    def test_zero_gate_equals_plain_layer(self):
        cfg = toy_config()
        rng = Rng(10)
        p = self._temporal_layer(rng, cfg)
        x = make_batch(rng, cfg)
        out = progressive_layer_forward(x, 4, p)
        plain = p.__class__(**{**p.__dict__, "tmha": None, "adaln": None,
                               "te": None, "gate_alpha": None})
        ref = progressive_layer_forward(x, 4, plain)
        assert np.max(np.abs(out - ref)) < 1e-15

    def test_static_zero_condition_identical_frames(self):
        cfg = toy_config()
        rng = Rng(11)
        p = self._temporal_layer(rng, cfg, gate_std=0.5)
        for w in (p.adaln.w3, p.adaln.w4, p.adaln.w5, p.adaln.w6):
            w[...] = 0.0
        frame = rng.normal((1, 1, cfg.tokens_per_frame, cfg.channels))
        out = progressive_layer_forward(np.repeat(frame, 4, axis=1), 4, p)
        assert np.max(np.abs(out - out[:, :1])) == 0.0

    def _unfused_layer(self, x, p):
        """The layer on every frame of x, its AdaLN from z = x + TE formed whole."""
        b, t, n, c = x.shape
        h = layer_norm(x, gamma=p.ln1_gamma, beta=p.ln1_beta)
        x = x + spatial_mha(h.reshape(b * t, n, c), p.smha).reshape(b, t, n, c)
        z = x + layer_te(t, p)[None, :, None, :]
        w = p.adaln
        a = silu(z @ w.w3) @ w.w4 * layer_norm(x) + silu(z @ w.w5) @ w.w6
        a = a.transpose(0, 2, 1, 3).reshape(b * n, t, c)
        tm = temporal_mha_causal(a, p.tmha).reshape(b, n, t, c).transpose(0, 2, 1, 3)
        x = x + p.gate_alpha * tm
        h = layer_norm(x, gamma=p.ln2_gamma, beta=p.ln2_beta)
        return x + silu(h @ p.ffn_w_in + p.ffn_b_in) @ p.ffn_w_out + p.ffn_b_out

    def _split_against_unfused(self, static, monkeypatch):
        # B=2, T=3 at toy_config(): a 100-element chunk gives the temporal
        # block one position of 6 rows, so AdaLN's W4 and W6 run in two
        # 16-column tiles
        cfg = toy_config()
        rng = Rng(12)
        p = self._temporal_layer(rng, cfg, gate_std=0.5)
        x0 = make_batch(rng, cfg, b=2, t=1 if static else 3)
        frames = np.repeat(x0, 3, axis=1) if static else x0
        expect = self._unfused_layer(frames, p)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 100)
        widths = []
        monkeypatch.setattr(conditioning, "linear",
                            lambda h, w, real=conditioning.linear: widths.append(w.shape[1])
                            or real(h, w))
        out = progressive_layer_forward(x0, 3, p)
        # W3 and W5 on x and te, then the two column tiles of W4 and W6
        assert widths[:8] == [cfg.channels] * 4 + [16] * 4
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(out - expect)) <= 1e-13 * scale
        return out, frames, p, scale

    def test_composition_oracle(self, monkeypatch):
        self._split_against_unfused(False, monkeypatch)

    def test_held_once_composition_oracle(self, monkeypatch):
        # held once, AdaLN's x-side GEMMs and LN run on the one frame
        out, frames, p, scale = self._split_against_unfused(True, monkeypatch)
        assert np.max(np.abs(out - progressive_layer_forward(frames, 3, p))) <= 1e-13 * scale

    def test_te_goes_through_w3_and_w5_once(self, monkeypatch):
        # one position per chunk, each running W3 and W5 on its own x rows;
        # the T rows of TE go through them once per layer
        cfg = toy_config()
        rng = Rng(12)
        p = self._temporal_layer(rng, cfg, gate_std=0.5)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 100)
        ndims, real = [], conditioning.linear
        monkeypatch.setattr(conditioning, "linear", lambda h, w: (
            w is p.adaln.w3 or w is p.adaln.w5) and ndims.append(h.ndim) or real(h, w))
        progressive_layer_forward(make_batch(rng, cfg, b=2, t=3), 3, p)
        assert ndims == [2, 2] + [4] * 2 * cfg.tokens_per_frame

    def _peak_copies_of_x(self, temporal, monkeypatch):
        # with small chunks and blocks, the layer holds its one output plus
        # one frame's S-MHA temporaries (x / 16 each): about 1.28 copies of
        # x; a full-size temporary anywhere would add one more
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 64)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 4096)
        cfg = toy_config(image_size=224, channels=64, heads=4, ffn_dim=256,
                         layers=1, temporal_layers=1)
        p = self._temporal_layer(Rng(15), cfg, gate_std=0.5) if temporal else \
            init_layer(Rng(15), cfg, temporal=False)
        x = make_batch(Rng(16), cfg, t=16)
        return peak_bytes(lambda: progressive_layer_forward(x, 16, p)) / x.nbytes

    def test_temporal_layer_drops_dead_temporaries(self, monkeypatch):
        assert self._peak_copies_of_x(True, monkeypatch) <= 1.5

    def test_plain_layer_drops_dead_temporaries(self, monkeypatch):
        assert self._peak_copies_of_x(False, monkeypatch) <= 1.5

    # chunk sizes at toy_config(), B=2, T=3 (6 frames of N*C = 512, 16
    # positions of B*T*C = 192, 96 rows of FFN width 64) with a 1-row
    # floor: one frame, position and row per chunk; 1 frame, 3 positions
    # (16 = 5*3 + 1) and 10 rows (96 = 9*10 + 6); 4 frames (6 = 4 + 2),
    # 10 positions (16 = 10 + 6) and 32 rows (96 = 3*32)
    @pytest.mark.parametrize("chunk", [32, 700, 2048])
    @pytest.mark.parametrize("static", [False, True], ids=["moving", "held_once"])
    @pytest.mark.parametrize("temporal", [True, False], ids=["temporal", "plain"])
    def test_chunked_layer_matches_one_chunk(self, chunk, static, temporal, monkeypatch):
        cfg = toy_config()
        p = self._temporal_layer(Rng(17), cfg, gate_std=0.5) if temporal else \
            init_layer(Rng(17), cfg, temporal=False)
        x = make_batch(Rng(18), cfg, b=2, t=3)
        if static:
            x = x[:, :1]
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 1)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 2 ** 40)
        x0 = x.copy()
        ref = progressive_layer_forward(x, 3, p)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
        out = progressive_layer_forward(x, 3, p)
        assert np.array_equal(x, x0)
        frames = 1 if static and not temporal else 3
        assert out.shape == ref.shape == (2, frames) + x.shape[2:]
        # 1-row chunks take NumPy's vector-matrix path, which may round the
        # last bit differently
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    # FFN width 4, 16 and 32 at 64-element chunks and a 3-row floor: 16,
    # 4 and 2 rows fit, so the narrow FFNs get taller tiles and the widest
    # keeps the floor; B=1, T=3 gives 48 rows
    @pytest.mark.parametrize("ffn, blocks", [(4, [16] * 3), (16, [4] * 12), (32, [3] * 16)])
    def test_ffn_row_tiles_follow_the_ffn_width(self, ffn, blocks, monkeypatch):
        cfg = toy_config(ffn_dim=ffn)
        p = init_layer(Rng(21), cfg, temporal=False)
        x = make_batch(Rng(22), cfg, t=3)
        ref = progressive_layer_forward(x, 3, p)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 64)
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 3)
        ln2, ffn_rows = [], []
        real_ln, real_mlp = vit.layer_norm, vit.silu_mlp

        def layer_norm_spy(h, **kwargs):
            if h.ndim == 2:  # LN1 sees whole frames [f, N, C]
                ln2.append(len(h))
            return real_ln(h, **kwargs)

        monkeypatch.setattr(vit, "layer_norm", layer_norm_spy)
        monkeypatch.setattr(vit, "silu_mlp",
                            lambda h, *w, **kw: ffn_rows.append(len(h)) or real_mlp(h, *w, **kw))
        out = progressive_layer_forward(x, 3, p)
        assert ln2 == ffn_rows == blocks
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cache_holds_no_view_of_the_input_or_output(self):
        # the layer adds into its output in place, so a cached view of it
        # would change under the backward pass
        cfg = toy_config()
        p = self._temporal_layer(Rng(19), cfg, gate_std=0.5)
        x = make_batch(Rng(20), cfg)
        cache = {}
        out = progressive_layer_forward(x, 4, p, cache)
        cached = list(cached_arrays(cache))
        assert len(cached) > 20
        assert not any(np.shares_memory(a, out) or np.shares_memory(a, x) for a in cached)

    # the chunk sizes of test_chunked_layer_matches_one_chunk; a held-once
    # input cannot be cached
    @pytest.mark.parametrize("chunk", [32, 700, 2048])
    @pytest.mark.parametrize("static, cached", [(False, False), (True, False), (False, True)],
                             ids=["moving", "held_once", "moving_cached"])
    @pytest.mark.parametrize("temporal", [True, False], ids=["temporal", "plain"])
    def test_out_x_equals_out_of_place(self, chunk, static, cached, temporal, monkeypatch):
        cfg = toy_config()
        p = self._temporal_layer(Rng(17), cfg, gate_std=0.5) if temporal else \
            init_layer(Rng(17), cfg, temporal=False)
        x = make_batch(Rng(18), cfg, b=2, t=1 if static else 3)
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 1)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
        ref_cache, cache = ({}, {}) if cached else (None, None)
        ref = progressive_layer_forward(x, 3, p, ref_cache)
        x_in = x.copy()
        out = progressive_layer_forward(x_in, 3, p, cache, out=x_in)
        assert np.array_equal(out, ref)
        if not (static and temporal):  # x had every frame, so out holds the result
            assert np.shares_memory(out, x_in) and np.array_equal(x_in, ref)
        else:  # held once: LN1 + S-MHA went into x, then T frames into a new array
            assert not np.shares_memory(out, x_in) and not np.array_equal(x_in, x)
        if cached:
            got, expect = list(cached_arrays(cache)), list(cached_arrays(ref_cache))
            assert len(got) == len(expect) > 10
            assert all(np.array_equal(a, e) for a, e in zip(got, expect))
            assert not any(np.shares_memory(a, x_in) for a in got)

    @pytest.mark.parametrize("bad", ["shape", "not_contiguous", "read_only", "float32"])
    def test_rejects_an_out_it_cannot_write_through(self, bad):
        cfg = toy_config()
        p = init_layer(Rng(23), cfg, temporal=False)
        x = make_batch(Rng(24), cfg, t=3)
        out = {"shape": lambda: np.empty((1, 2) + x.shape[2:]),
               "not_contiguous": lambda: np.empty(x.shape[:3] + (2 * cfg.channels,))[..., ::2],
               "read_only": lambda: np.broadcast_to(np.empty(x.shape), x.shape),
               "float32": lambda: np.empty(x.shape, np.float32)}[bad]()
        x0 = x.copy()
        with pytest.raises(ValueError, match="out must be a writeable C-contiguous float64"):
            progressive_layer_forward(x, 3, p, out=out)
        assert np.array_equal(x, x0)

    def test_gate_initialized_exactly_zero(self):
        p = init_layer(Rng(14), toy_config(), temporal=True)
        assert np.array_equal(p.gate_alpha, np.zeros_like(p.gate_alpha))


class TestVitForward:
    def test_zero_gates_match_plain_stack(self):
        cfg = toy_config()
        model = init_model(21, cfg)
        x = make_batch(Rng(22), cfg)
        out = vit_forward(x, cfg, model)
        ref = plain_vit_forward(x, model)
        assert np.max(np.abs(out - ref)) < 1e-15

    def test_no_temporal_layers_static_stays_static(self):
        cfg = toy_config(temporal_layers=0)
        model = init_model(23, cfg)
        rng = Rng(24)
        frame = rng.normal((1, 1, cfg.tokens_per_frame, cfg.channels))
        out = vit_forward(np.repeat(frame, 3, axis=1), cfg, model)
        assert np.array_equal(out[:, 0], out[:, 1])
        assert np.array_equal(out[:, 0], out[:, 2])

    def test_stack_causality(self):
        cfg = toy_config()
        model = init_model(25, cfg)
        rng = Rng(26)
        randomize_gates(model, rng)
        x = make_batch(rng, cfg, t=5)
        base = vit_forward(x, cfg, model)
        for j in range(1, 5):
            xp = x.copy()
            xp[:, j:] += rng.normal(xp[:, j:].shape)
            out = vit_forward(xp, cfg, model)
            assert np.max(np.abs(out[:, :j] - base[:, :j])) <= 1e-12

    def test_static_distinctness(self):
        cfg = toy_config()
        model = init_model(27, cfg)
        rng = Rng(28)
        randomize_gates(model, rng)
        frame = rng.normal((1, 1, cfg.tokens_per_frame, cfg.channels))
        out = vit_forward(np.repeat(frame, 4, axis=1), cfg, model)
        dists = [np.linalg.norm(out[0, a] - out[0, b])
                 for a in range(4) for b in range(a + 1, 4)]
        assert min(dists) > 0.0

    def test_frame_zero_prefix_consistency(self):
        cfg = toy_config()
        model = init_model(29, cfg)
        rng = Rng(30)
        randomize_gates(model, rng)
        x = rng.normal((1, 4, cfg.tokens_per_frame, cfg.channels))
        full = vit_forward(x, cfg, model)
        solo = vit_forward(x[:, :1].copy(), cfg, model)
        assert np.max(np.abs(full[:, 0] - solo[:, 0])) <= 1e-12

    def test_layer_order_enforced(self):
        cfg = toy_config()
        model = init_model(31, cfg)
        model.layers.reverse()  # temporal layers now first
        with pytest.raises(ValueError):
            vit_forward(make_batch(Rng(32), cfg), cfg, model)

    def test_rejects_tokens_that_are_not_4d(self):
        cfg = toy_config()
        model = init_model(35, cfg)
        x = make_batch(Rng(36), cfg)
        with pytest.raises(ValueError, match=r"\[B,T,N,C\]"):
            vit_forward(x[0], cfg, model)

    @pytest.mark.parametrize("static", [False, True], ids=["moving", "static"])
    def test_layers_after_the_first_write_in_place(self, static, monkeypatch):
        # layer 0 writes a new array, so the caller's tokens are never
        # written; every later layer is handed its own input as `out`
        cfg = toy_config()
        model = init_model(37, cfg)
        randomize_gates(model, Rng(38))
        x = make_batch(Rng(39), cfg)
        if static:
            x = np.repeat(x[:, :1], 4, axis=1)
        x0 = x.copy()
        ref = layerwise_reference(x, cfg, model)
        outs, real = [], vit.progressive_layer_forward

        def spy(h, frames, p, out=None):
            outs.append(None if out is None else out is h)
            return real(h, frames, p, out=out)

        monkeypatch.setattr(vit, "progressive_layer_forward", spy)
        out = vit_forward(x, cfg, model)
        assert x.flags.writeable and np.array_equal(x, x0)
        assert outs == [None] + [True] * (cfg.layers - 1)
        assert np.array_equal(out, ref)

    def test_stack_holds_one_layer_output(self, monkeypatch):
        # the _peak_copies_of_x geometry, 3 layers: layer 0's output is the
        # residual stream the later layers update, so the stack holds it
        # plus one layer's tile-sized temporaries (about 1.28 copies of x,
        # output included); a second layer-sized array would add one more
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 64)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 4096)
        cfg = toy_config(image_size=224, channels=64, heads=4, ffn_dim=256,
                         layers=3, temporal_layers=1)
        model = init_model(15, cfg)
        randomize_gates(model, Rng(16))
        x = make_batch(Rng(16), cfg, t=16)
        assert peak_bytes(lambda: vit_forward(x, cfg, model)) / x.nbytes <= 1.5

    def test_deterministic_forward(self):
        cfg = toy_config()
        model_a = init_model(33, cfg)
        model_b = init_model(33, cfg)
        x = make_batch(Rng(34), cfg)
        out_a = vit_forward(x, cfg, model_a)
        out_b = vit_forward(x.copy(), cfg, model_b)
        assert np.array_equal(out_a, out_b)


def layerwise_reference(x, cfg, model):
    """Every layer over all T frames: the forward without plain-layer reuse."""
    for p in model.layers:
        x = progressive_layer_forward(x, x.shape[1], p)
    return x


def spy_layer_calls(monkeypatch):
    """Record (is_temporal, T) of every progressive_layer_forward call."""
    calls = []
    real = vit.progressive_layer_forward

    def spy(x, frames, p, **kwargs):
        calls.append((p.is_temporal, x.shape[1]))
        return real(x, frames, p, **kwargs)

    monkeypatch.setattr(vit, "progressive_layer_forward", spy)
    return calls


class TestPlainLayerReuse:
    def _model(self, seed, cfg):
        model = init_model(seed, cfg)
        randomize_gates(model, Rng(seed + 1))
        return model

    def _static_batch(self, rng, cfg, b=1, t=4):
        """A static video held once, as the pipeline makes it: one frame
        broadcast to t, so the frame axis has stride 0."""
        frame = rng.normal((b, 1, cfg.tokens_per_frame, cfg.channels))
        return np.broadcast_to(frame, (b, t, *frame.shape[2:]))

    def test_static_equals_layerwise_bitwise(self):
        cfg = toy_config()
        model = self._model(40, cfg)
        x = self._static_batch(Rng(41), cfg)
        out = vit_forward(x, cfg, model)
        assert np.array_equal(out, layerwise_reference(x, cfg, model))

    @pytest.mark.parametrize("cfg, b", [(toy_config(temporal_layers=8), 1),
                                        (toy_config(), 2)],
                             ids=["all_temporal", "batch2"])
    def test_static_equals_layerwise_bitwise_more_stacks(self, cfg, b):
        model = self._model(50, cfg)
        x = self._static_batch(Rng(51), cfg, b=b)
        out = vit_forward(x, cfg, model)
        assert np.array_equal(out, layerwise_reference(x, cfg, model))

    @pytest.mark.parametrize("b", [1, 2])
    def test_static_runs_spatial_mha_on_one_frame_through_first_temporal(self, b, monkeypatch):
        cfg = toy_config()
        model = self._model(42, cfg)
        sequences = []
        real = vit.spatial_mha

        def spy(x, p, cache=None):
            sequences.append(x.shape[0])
            return real(x, p, cache)

        monkeypatch.setattr(vit, "spatial_mha", spy)
        calls = spy_layer_calls(monkeypatch)
        out = vit_forward(self._static_batch(Rng(43), cfg, b=b), cfg, model)
        # layers after the first temporal one see T distinct frames
        plain = cfg.layers - cfg.temporal_layers
        assert sequences == [b] * (plain + 1) + [4 * b] * (cfg.temporal_layers - 1)
        assert calls == ([(False, 1)] * plain + [(True, 1)]
                         + [(True, 4)] * (cfg.temporal_layers - 1))
        assert out.shape[:2] == (b, 4)

    def test_held_once_batch_with_cache_raises(self):
        cfg = toy_config()
        p = init_layer(Rng(52), cfg, temporal=True)
        x = Rng(53).normal((1, 1, cfg.tokens_per_frame, cfg.channels))
        with pytest.raises(ValueError, match="held once"):
            progressive_layer_forward(x, 4, p, cache={})

    def test_layer_frame_count_is_one_or_frames(self):
        cfg = toy_config()
        p = init_layer(Rng(54), cfg, temporal=True)
        x = Rng(55).normal((1, 2, cfg.tokens_per_frame, cfg.channels))
        with pytest.raises(ValueError, match="frame count 2 must be 1 or 4"):
            progressive_layer_forward(x, 4, p)
        # a video held once comes out with all 4 frames
        assert progressive_layer_forward(x[:, :1], 4, p).shape[1] == 4
        assert progressive_layer_forward(x, 2, p).shape == x.shape

    def test_held_once_adaln_normalises_one_frame(self, monkeypatch):
        # LN works row by row, so the one frame's LN broadcast over the T
        # frames is bitwise the LN of its broadcast
        cfg = toy_config()
        p = init_layer(Rng(56), cfg, temporal=True)
        x = Rng(57).normal((2, 1, cfg.tokens_per_frame, cfg.channels))
        frames = []
        real = conditioning.layer_norm

        def spy(x, *args, **kwargs):
            frames.append(x.shape[1])
            return real(x, *args, **kwargs)

        monkeypatch.setattr(conditioning, "layer_norm", spy)
        assert progressive_layer_forward(x, 4, p).shape[1] == 4
        assert frames == [1]

    def test_static_without_temporal_layers(self, monkeypatch):
        cfg = toy_config(temporal_layers=0)
        model = self._model(44, cfg)
        x = self._static_batch(Rng(45), cfg, t=3)
        calls = spy_layer_calls(monkeypatch)
        out = vit_forward(x, cfg, model)
        assert calls == [(False, 1)] * cfg.layers
        assert np.array_equal(out, layerwise_reference(x, cfg, model))

    @pytest.mark.parametrize("b", [1, 2])
    def test_stride_zero_tokens_are_held_once_without_a_compare(self, b, monkeypatch):
        cfg = toy_config()
        model = self._model(62, cfg)
        frame = Rng(63).normal((b, 1, cfg.tokens_per_frame, cfg.channels))
        want = vit_forward(np.repeat(frame, 4, axis=1), cfg, model)

        def no_compare(*args, **kwargs):
            raise AssertionError("a stride-0 frame axis needs no value compare")

        calls = spy_layer_calls(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(np, "array_equal", no_compare)
            out = vit_forward(np.broadcast_to(frame, (b, 4, *frame.shape[2:])), cfg, model)
        plain = cfg.layers - cfg.temporal_layers
        assert calls[:plain + 1] == [(False, 1)] * plain + [(True, 1)]
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("case", ["one_frame", "moving", "one_static_of_two",
                                      "materialized_static"])
    def test_no_reuse_unless_frame_axis_has_stride_zero(self, case, monkeypatch):
        # identical frames held one by one are not compared, and run every frame
        cfg = toy_config()
        model = self._model(46, cfg)
        rng = Rng(47)
        if case == "one_frame":
            x = self._static_batch(rng, cfg, t=1)
        elif case == "moving":
            x = make_batch(rng, cfg)
        elif case == "one_static_of_two":
            x = self._static_batch(rng, cfg, b=2).copy()
            x[1, 3, 0, 0] += 1.0
        else:
            x = self._static_batch(rng, cfg, b=2).copy()

        def no_compare(*args, **kwargs):
            raise AssertionError("vit_forward reads no token values")

        calls = spy_layer_calls(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(np, "array_equal", no_compare)
            out = vit_forward(x, cfg, model)
        t = x.shape[1]
        assert [frames for _, frames in calls] == [t] * cfg.layers
        assert np.array_equal(out, layerwise_reference(x, cfg, model))

    def test_patchified_static_video_reuses(self, monkeypatch):
        cfg = toy_config()
        model = self._model(48, cfg)
        frame = seeded_levels(49, (1, 1, cfg.image_size, cfg.image_size, 3))
        static = np.broadcast_to(frame, (1, 3, *frame.shape[2:]))
        moving = static.copy()
        moving[0, 2, 0, 0, 0] ^= 1
        plain = cfg.layers - cfg.temporal_layers
        calls = spy_layer_calls(monkeypatch)
        vit_forward(patchify(PixelLevels(static, level_table()), cfg, model.patch), cfg, model)
        assert calls[:plain] == [(False, 1)] * plain
        calls.clear()
        vit_forward(patchify(PixelLevels(moving, level_table()), cfg, model.patch), cfg, model)
        assert calls[:plain] == [(False, 3)] * plain
