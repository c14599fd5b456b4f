import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvc import compression, model_store
from pvc.budget import preset
from pvc.compression import (
    compress,
    init_compression,
    pixel_shuffle,
    pixel_unshuffle,
)
from pvc import conditioning, tensor
from pvc.conditioning import (
    relative_timestamps,
    sinusoidal_embed,
    temporal_embedding,
)
from pvc.tensor import Rng, layer_norm, silu
from pvc.vit import PvcConfig, named_params


def shuffle_oracle(x, k):
    """Index-arithmetic brute force fixing row-major block order."""
    b, t, n, c = x.shape
    side = int(round(np.sqrt(n)))
    m = side // k
    out = np.zeros((b, t, m * m, k * k * c))
    for bi in range(b):
        for ti in range(t):
            for br in range(m):
                for bc in range(m):
                    parts = [x[bi, ti, (br * k + rk) * side + (bc * k + ck)]
                             for rk in range(k) for ck in range(k)]
                    out[bi, ti, br * m + bc] = np.concatenate(parts)
    return out


def small_cfg(k=2, c=3):
    return PvcConfig(image_size=56, patch_size=14, channels=c, heads=1,
                     ffn_dim=2 * c, layers=1, temporal_layers=0,
                     shuffle_kernel=k)


class TestPixelShuffle:
    def test_k1_identity(self):
        x = Rng(1).normal((2, 3, 9, 4))
        assert np.array_equal(pixel_shuffle(x, 1), x)

    @pytest.mark.parametrize("k, n", [(1, 9), (3, 9)])
    def test_one_token_blocks_and_one_block_frames_are_copies(self, k, n):
        # the reshape alone is a view of x here; compress overwrites the result
        x = Rng(1).normal((2, 3, n, 4))
        out = pixel_shuffle(x, k)
        assert np.array_equal(out, shuffle_oracle(x, k))
        assert not np.shares_memory(out, x)

    def test_2x2_grid_example(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        x = np.array(   # grid [[a, b], [c, d]], C=1
            [a, b, c, d]).reshape(1, 1, 4, 1)
        out = pixel_shuffle(x, 2)
        assert out.shape == (1, 1, 1, 4)
        assert np.array_equal(out[0, 0, 0], [a, b, c, d])

    def test_full_scale_geometry(self):
        x = Rng(2).normal((1, 2, 1024, 3))
        out = pixel_shuffle(x, 4)
        assert out.shape == (1, 2, 64, 48)

    def test_errors(self):
        with pytest.raises(ValueError):
            pixel_shuffle(np.zeros((1, 1, 10, 2)), 2)   # not a square
        with pytest.raises(ValueError):
            pixel_shuffle(np.zeros((1, 1, 9, 2)), 2)    # 3 not divisible by 2

    def test_random_bitwise_vs_oracle(self):
        gen = np.random.Generator(np.random.Philox(3))
        for trial in range(100):
            k = gen.integers(1, 5)
            m = gen.integers(1, 16 // k + 1)
            side = m * k
            c = gen.integers(1, 4)
            x = gen.standard_normal((1, 2, side * side, c))
            out = pixel_shuffle(x, k)
            assert np.array_equal(out, shuffle_oracle(x, k))
            assert np.array_equal(pixel_unshuffle(out, k), x)

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_value_multiset_preserved(self, k, m, c, seed):
        side = m * k
        x = Rng(seed).normal((1, 1, side * side, c))
        out = pixel_shuffle(x, k)
        assert sorted(out.ravel()) == sorted(x.ravel())


class TestCompress:
    @pytest.mark.parametrize("k, n", [(1, 16), (2, 4), (2, 16)])
    def test_input_is_left_unchanged(self, k, n):
        # AdaLN normalises each tile's pixel_shuffle copy in place; at k = 1,
        # or one k x k block per frame, that copy must not be a view of x
        cfg = small_cfg(k=k)
        x = Rng(3).normal((2, 3, n, 3))
        before = x.copy()
        compress(x, init_compression(Rng(4), cfg), cfg)
        assert np.array_equal(x, before)

    def test_zero_mlp_gives_zero(self):
        cfg = small_cfg()
        p = init_compression(Rng(4), cfg)
        p.w_in[...] = 0
        p.w_out[...] = 0
        out = compress(Rng(5).normal((1, 2, 16, 3)), p, cfg)
        assert np.array_equal(out, np.zeros_like(out))

    def test_full_scale_shape(self):
        cfg = PvcConfig(channels=2, heads=1, ffn_dim=4)
        p = init_compression(Rng(6), cfg)  # k²C = 32, so every width is 8
        assert compress(Rng(7).normal((1, 4, 1024, 2)), p, cfg).shape == (1, 4, 64, 8)

    def test_composition_oracle(self, monkeypatch):
        # the unfused formula forms z = x + te; compress never does. A
        # 96-element chunk gives AdaLN's W4 and W6 three 4-column tiles
        # (B=2 x T=3 frames of M=4 rows, one tile by the 256-row floor)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 96)
        cfg = small_cfg()
        rng = Rng(8)
        p = init_compression(rng, cfg)
        x = rng.normal((2, 3, 16, 3))
        xt = pixel_shuffle(x, 2)
        te = temporal_embedding(sinusoidal_embed(relative_timestamps(3)), p.te)
        z = xt + te[None, :, None, :]
        a = p.adaln
        adaln = silu(z @ a.w3) @ a.w4 * layer_norm(xt) + silu(z @ a.w5) @ a.w6
        expect = silu(adaln @ p.w_in + p.b_in) @ p.w_out + p.b_out
        widths = []
        monkeypatch.setattr(conditioning, "linear",
                            lambda h, w, real=conditioning.linear: widths.append(w.shape[1])
                            or real(h, w))
        out = compress(x, p, cfg)
        assert widths[4:] == [4] * 6  # after x and te through W3 and W5
        assert np.max(np.abs(out - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_timestep_sensitivity_on_static_input(self):
        cfg = small_cfg()
        rng = Rng(9)
        p = init_compression(rng, cfg)
        # widen conditioning so frames are clearly told apart
        for w in (p.adaln.w3, p.adaln.w4, p.adaln.w5, p.adaln.w6,
                  p.te.w1, p.te.w2):
            w *= 20.0
        frame = rng.normal((1, 1, 16, 3))
        out = compress(np.repeat(frame, 4, axis=1), p, cfg)
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(out[0, a] - out[0, b]) > 0.0

    def test_zero_conditioning_identical_frames(self):
        cfg = small_cfg()
        rng = Rng(10)
        p = init_compression(rng, cfg)
        for w in (p.adaln.w3, p.adaln.w4, p.adaln.w5, p.adaln.w6):
            w[...] = 0.0
        frame = rng.normal((1, 1, 16, 3))
        out = compress(np.repeat(frame, 4, axis=1), p, cfg)
        assert np.array_equal(out[:, 0], out[:, 1])
        assert np.array_equal(out[:, 0], out[:, 3])

    def test_per_frame_locality(self):
        cfg = small_cfg()
        rng = Rng(11)
        p = init_compression(rng, cfg)
        x = rng.normal((1, 4, 16, 3))
        base = compress(x, p, cfg)
        for j in range(4):
            xp = x.copy()
            xp[:, j] += rng.normal((1, 16, 3))
            out = compress(xp, p, cfg)
            for other in range(4):
                if other == j:
                    assert np.max(np.abs(out[:, j] - base[:, j])) > 0
                else:
                    assert np.array_equal(out[:, other], base[:, other])

    def test_one_tile_peak_is_two_copies_of_the_input(self, monkeypatch):
        # the 16 frames as one tile at init_compression's widths (AdaLN, TE
        # and MLP hidden k²C/4, as the benchmark's compressor has them), with
        # AdaLN's W4 and W6 in four column tiles as at the benchmark geometry
        # (1024 of 4096 columns):
        # the shuffled copy, which AdaLN normalises in place, the two
        # condition hiddens (x / 4 each) and one column tile (x / 4), about
        # 1.8 copies of x. Forming z = x + te, or an LN temporary, would add
        # a copy
        cfg = PvcConfig(image_size=224, patch_size=14, channels=64, heads=4,
                        ffn_dim=256, layers=1, temporal_layers=0, shuffle_kernel=4)
        x = Rng(13).normal((1, 16, cfg.tokens_per_frame, cfg.channels))
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 16 * cfg.compressed_tokens)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", x.size // 4)
        p = init_compression(Rng(12), cfg)
        seen, real = [], compression.pixel_shuffle
        monkeypatch.setattr(compression, "pixel_shuffle",
                            lambda xs, k: seen.append(xs.shape[1]) or real(xs, k))
        compress(x, p, cfg)
        assert seen == [16]
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            compress(x, p, cfg)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * x.nbytes

    def test_tiled_peak_is_under_one_copy_of_the_input(self, monkeypatch):
        # the geometry above in tiles of one frame (M·k²C = x / 16): the
        # output (x / 16) plus the tile's arrays, about 0.5 copies of x in
        # all; one full-size temporary would add a copy
        cfg = PvcConfig(image_size=224, patch_size=14, channels=64, heads=4,
                        ffn_dim=256, layers=1, temporal_layers=0, shuffle_kernel=4)
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", cfg.compressed_tokens)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", cfg.compressed_tokens * 16 * 64)
        p = init_compression(Rng(12), cfg)
        x = Rng(13).normal((1, 16, cfg.tokens_per_frame, cfg.channels))
        seen, real = [], compression.pixel_shuffle
        monkeypatch.setattr(compression, "pixel_shuffle",
                            lambda xs, k: seen.append(xs.shape[1]) or real(xs, k))
        compress(x, p, cfg)
        assert seen == [1] * 16
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            compress(x, p, cfg)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes

    # small_cfg(): M = 4 tokens of k²C = 12 per frame, 48 values; B=2, T=5
    @pytest.mark.parametrize("chunk, floor_rows, tiles", [
        (96, 4, [(1, 2), (1, 2), (1, 1)] * 2),      # 2 frames fit, floor 1 frame
        (1, 12, [(1, 3), (1, 2)] * 2),              # none fit: floor ceil(12/4) = 3
        (1, 24, [(2, 5)]),                          # a floor of 6 frames spans T and B
        (7 * 48, 4, [(1, 5)] * 2),                  # 7 fit: the whole T, one batch row
        (10 * 48, 1, [(2, 5)]),                     # every frame fits
    ], ids=["chunk", "floor", "floor_over_batch", "batch_row", "one_tile"])
    def test_frames_per_tile_follow_the_frame_width_and_row_floor(
            self, chunk, floor_rows, tiles, monkeypatch):
        cfg = small_cfg()
        p = init_compression(Rng(14), cfg)
        x = Rng(15).normal((2, 5, 16, 3))
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 2 ** 40)
        ref = compress(x, p, cfg)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", floor_rows)
        seen, real = [], compression.pixel_shuffle
        monkeypatch.setattr(compression, "pixel_shuffle",
                            lambda xs, k: seen.append(xs.shape[:2]) or real(xs, k))
        out = compress(x, p, cfg)
        assert seen == tiles
        # every op is per token row, and a GEMM output row depends only on
        # its own input row; but a 1-element chunk also cuts AdaLN's W4 and
        # W6 into 1-column tiles, which take NumPy's matrix-vector path and
        # may round the last bit differently
        if chunk == 1:
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        else:
            assert np.array_equal(out, ref)

    def test_te_goes_through_w3_and_w5_once(self, monkeypatch):
        # six tiles of frames (the "chunk" case above) each run W3 and W5
        # on their own x rows; the T rows of TE go through them once
        cfg = small_cfg()
        p = init_compression(Rng(14), cfg)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 96)
        monkeypatch.setattr(tensor, "MLP_ROW_BLOCK", 4)
        ndims, real = [], conditioning.linear
        monkeypatch.setattr(conditioning, "linear", lambda h, w: (
            w is p.adaln.w3 or w is p.adaln.w5) and ndims.append(h.ndim) or real(h, w))
        compress(Rng(15).normal((2, 5, 16, 3)), p, cfg)
        assert ndims == [2, 2] + [4] * 2 * 6

    def test_empty_extents(self):
        cfg = small_cfg()
        p = init_compression(Rng(16), cfg)  # k²C = 12, so every width is 3
        assert compress(np.zeros((0, 3, 16, 3)), p, cfg).shape == (0, 3, 4, 3)
        # N = 0 gives M = 0 tokens per frame, and the row floor no division by 0
        assert compress(np.zeros((2, 3, 0, 3)), p, cfg).shape == (2, 3, 0, 3)

    @pytest.mark.parametrize("b", [0, 2])
    @pytest.mark.parametrize("shape, message", [((15, 3), "not a perfect square"),
                                                ((16, 4), "shuffled width 16 != params 12")])
    def test_bad_geometry_raises_before_any_tile(self, b, shape, message, monkeypatch):
        cfg = small_cfg()
        p = init_compression(Rng(17), cfg)
        monkeypatch.setattr(tensor, "tiles", lambda *a, **kw: pytest.fail("tiled"))
        with pytest.raises(ValueError, match=message):
            compress(np.zeros((b, 3, *shape)), p, cfg)

    def test_full_scale_widths_are_the_table4_presets(self):
        # shapes only: _NoMemory's weights are extents, with no data
        p = init_compression(model_store._NoMemory(), PvcConfig())
        spec = preset("table4-pvc")[0].compression
        widths = (p.adaln.w3.shape[1], p.te.w1.shape[1], p.w_in.shape[1], p.w_out.shape[1])
        assert widths == (spec.adaln_hidden, spec.te_hidden, spec.mlp_hidden, spec.out_dim)
        assert widths == (4096,) * 4
        assert sum(math.prod(a.shape) for _, a in named_params(p)) == 420_487_168  # 3.36 GB

    def test_compression_ratio(self):
        cfg = PvcConfig()
        assert cfg.tokens_per_frame // cfg.shuffle_kernel ** 2 == 64
