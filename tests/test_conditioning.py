import numpy as np
import pytest

from pvc import conditioning, tensor
from pvc.conditioning import (
    TS_SCALE,
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
from pvc.tensor import NEW_WEIGHT_STD, Rng, layer_norm, linear, silu


def wide(p: AdaLnParams, std: float) -> AdaLnParams:
    """p with its drawn weights rescaled to std."""
    for w in (p.w3, p.w4, p.w5, p.w6):
        w *= std / NEW_WEIGHT_STD
    return p


def ada_ln_te(x, te, p, cache=None, out=None):
    """ada_ln on the condition of te [T, D], built as its callers build it."""
    return ada_ln(x, adaln_condition(te, p), p, cache, out=out)


class TestRelativeTimestamps:
    def test_five_frames(self):
        assert np.array_equal(relative_timestamps(5), [0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoints(self):
        assert np.array_equal(relative_timestamps(2), [0.0, 1.0])

    def test_single_frame(self):
        assert np.array_equal(relative_timestamps(1), [0.0])

    def test_zero_frames_error(self):
        with pytest.raises(ValueError):
            relative_timestamps(0)

    def test_uniform_spacing(self):
        for t in (2, 3, 7, 96):
            d = np.diff(relative_timestamps(t))
            assert d.max() - d.min() < 1e-15


class TestSinusoidalEmbed:
    def test_t_zero(self):
        e = sinusoidal_embed(np.zeros(1))
        assert np.array_equal(e[0, :128], np.zeros(128))
        assert np.array_equal(e[0, 128:], np.ones(128))

    def test_width_256(self):
        e = sinusoidal_embed(relative_timestamps(7))
        assert e.shape == (7, 256)
        assert np.all(np.abs(e) <= 1.0)

    def test_lowest_frequency_at_scale_one(self):
        # j=0 channel at TS_SCALE * t = 1: (sin 1, cos 1)
        e = sinusoidal_embed(np.array([1.0]) / TS_SCALE)
        assert abs(e[0, 0] - 0.8414709848078965) < 1e-15
        assert abs(e[0, 128] - 0.5403023058681398) < 1e-15

    def test_injective_on_grid(self):
        # distinct timestamps down to 1e-6 spacing give distinct embeddings
        t = np.concatenate([np.linspace(0, 1, 101),
                            np.array([0.5 + 1e-6, 0.25 + 1e-6])])
        e = sinusoidal_embed(t / TS_SCALE)
        d = np.linalg.norm(e[:, None, :] - e[None, :, :], axis=-1)
        d[np.diag_indices(len(t))] = np.inf
        assert d.min() > 0.0


class TestTemporalEmbedding:
    def test_zero_w1_gives_zero(self):
        p = TemporalEmbeddingParams(w1=np.zeros((256, 4)), w2=Rng(1).normal((4, 3)))
        t_tilde = sinusoidal_embed(relative_timestamps(3))
        assert np.array_equal(temporal_embedding(t_tilde, p), np.zeros((3, 3)))

    def test_output_shape(self):
        p = init_temporal_embedding(Rng(2), d_out=10)
        out = temporal_embedding(sinusoidal_embed(relative_timestamps(5)), p)
        assert out.shape == (5, 10)

    def test_step_by_step_oracle(self):
        rng = Rng(3)
        p = TemporalEmbeddingParams(w1=rng.normal((256, 4)), w2=rng.normal((4, 3)))
        t_tilde = sinusoidal_embed(relative_timestamps(4))
        expect = silu(t_tilde @ p.w1) @ p.w2
        assert np.max(np.abs(temporal_embedding(t_tilde, p) - expect)) < 1e-14

    def test_dim_mismatch(self):
        p = init_temporal_embedding(Rng(4), d_out=3)
        with pytest.raises(ValueError):
            temporal_embedding(np.zeros((2, 100)), p)


def coeffs(z, p):
    """The AdaLN scale SiLU(z @ W3) @ W4 and bias SiLU(z @ W5) @ W6, each
    product one 2-D GEMM as in silu_mlp, from z formed whole."""
    return (linear(silu(linear(z, p.w3)), p.w4), linear(silu(linear(z, p.w5)), p.w6))


def condition(x, te):
    """z = x + te[t] for tokens x [B, T, N, D] and te [T, D]."""
    return x + te[None, :, None, :]


def row_constant(rng, shape):
    """Tokens constant along their last axis, in quarters so that the row
    mean is exact and the LayerNorm exactly zero."""
    return np.broadcast_to(np.round(4 * rng.normal((*shape[:-1], 1))) / 4, shape).copy()


def ada_ln_coeffs(x, te, p):
    """gamma and beta of z = x + te[t] as ada_ln computes them, for tokens x
    constant along each row: gamma from its cache, beta as its output."""
    cache = {}
    beta = ada_ln_te(x, te, p, cache)
    return cache["gamma"], beta


class TestAffineCoeffs:
    def test_zero_weights(self):
        d = 5
        p = AdaLnParams(*(np.zeros((d, d)) for _ in range(4)))
        rng = Rng(5)
        g, b = ada_ln_coeffs(row_constant(rng, (1, 2, 3, d)), rng.normal((2, d)), p)
        assert np.array_equal(g, np.zeros((1, 2, 3, d)))
        assert np.array_equal(b, np.zeros((1, 2, 3, d)))

    def test_composition_oracle(self):
        # the split first GEMM, x @ W3 + (te @ W3)[t], rounds apart from
        # (x + te[t]) @ W3 in the last bits
        rng = Rng(7)
        p = wide(init_adaln(rng, dim=6), 0.3)
        x, te = row_constant(rng, (2, 4, 3, 6)), rng.normal((4, 6))
        g, b = ada_ln_coeffs(x, te, p)
        g_ref, b_ref = coeffs(condition(x, te), p)
        assert np.max(np.abs(g - g_ref)) < 1e-14
        assert np.max(np.abs(b - b_ref)) < 1e-14


class TestAdaLn:
    def test_zero_weights_zero_output(self):
        d = 5
        p = AdaLnParams(*(np.zeros((d, d)) for _ in range(4)))
        rng = Rng(9)
        out = ada_ln_te(rng.normal((2, 3, 4, d)), rng.normal((3, d)), p)
        assert np.array_equal(out, np.zeros((2, 3, 4, d)))

    def test_constant_x_gives_beta(self):
        rng = Rng(10)
        p = wide(init_adaln(rng, dim=4), 0.3)
        x, te = row_constant(rng, (1, 3, 2, 4)), rng.normal((3, 4))
        _, beta = coeffs(condition(x, te), p)
        assert np.max(np.abs(ada_ln_te(x, te, p) - beta)) < 1e-13

    def test_zero_condition(self):
        # x @ W + (-x) @ W is exactly 0 and SiLU(0) = 0, so a zero condition
        # gives zero scale and bias
        p = init_adaln(Rng(6), dim=5)
        x = Rng(5).normal((1, 3, 1, 5))
        assert np.array_equal(ada_ln_te(x, -x[0, :, 0], p), np.zeros((1, 3, 1, 5)))

    def test_per_token_equivariance(self):
        rng = Rng(8)
        p = wide(init_adaln(rng, dim=4), 0.3)
        x, te = rng.normal((1, 2, 6, 4)), rng.normal((2, 4))
        perm = np.array([3, 1, 5, 0, 4, 2])
        assert np.array_equal(ada_ln_te(x[:, :, perm], te, p), ada_ln_te(x, te, p)[:, :, perm])

    def test_composition_oracle(self):
        rng = Rng(11)
        p = wide(init_adaln(rng, dim=8), 0.3)
        x, te = rng.normal((2, 3, 5, 8)), rng.normal((3, 8))
        g, b = coeffs(condition(x, te), p)
        expect = g * layer_norm(x) + b
        assert np.max(np.abs(ada_ln_te(x, te, p) - expect)) < 1e-13

    def test_shape_mismatch(self):
        p = init_adaln(Rng(12), dim=4)
        with pytest.raises(ValueError, match="condition width"):
            ada_ln_te(np.zeros((2, 4)), np.zeros((3, 4)), p)
        with pytest.raises(ValueError, match="condition width"):
            ada_ln_te(np.zeros((2, 3, 1, 4)), np.zeros((3, 5)), p)
        with pytest.raises(ValueError, match="must be 1 or te's 3"):
            ada_ln_te(np.zeros((2, 2, 1, 4)), np.zeros((3, 4)), p)

    def test_held_once_x_broadcasts_bitwise(self):
        # LayerNorm works row by row, so normalising the one frame and
        # broadcasting it equals normalising its T-frame broadcast; the
        # x-side GEMMs run on the one frame's rows
        rng = Rng(13)
        p = wide(init_adaln(rng, dim=8), 0.3)
        x, te = rng.normal((2, 1, 5, 8)), rng.normal((3, 8))
        out = ada_ln_te(x, te, p)
        assert np.array_equal(out, ada_ln_te(np.broadcast_to(x, (2, 3, 5, 8)), te, p))
        g, b = coeffs(condition(x, te), p)
        assert np.max(np.abs(out - (g * layer_norm(x) + b))) < 1e-13

    def test_cache_keeps_gamma_and_xhat_unscaled(self):
        rng = Rng(14)
        p = wide(init_adaln(rng, dim=8), 0.3)
        x, te = rng.normal((2, 3, 5, 8)), rng.normal((3, 8))
        cache = {}
        out = ada_ln_te(x, te, p, cache)
        assert np.array_equal(out, ada_ln_te(x, te, p))
        assert np.max(np.abs(cache["gamma"] - coeffs(condition(x, te), p)[0])) < 1e-14
        assert np.array_equal(cache["xhat"], layer_norm(x))
        assert np.array_equal(cache["x"], x) and cache["x"] is not x

    def test_writes_into_out(self):
        # compress hands AdaLN its private shuffled copy: the result is that
        # buffer, bitwise the out-of-place result, and the cache keeps x
        rng = Rng(15)
        p = wide(init_adaln(rng, dim=8), 0.3)
        x, te = rng.normal((2, 3, 5, 8)), rng.normal((3, 8))
        buf, cache = x.copy(), {}
        assert ada_ln_te(buf, te, p, cache, out=buf) is buf
        assert np.array_equal(buf, ada_ln_te(x, te, p))
        assert np.array_equal(cache["x"], x)

    @pytest.mark.parametrize("chunk, tiles", [(2 ** 40, [8]), (60, [2] * 4), (1, [1] * 8)])
    def test_scale_and_shift_run_in_column_tiles(self, chunk, tiles, monkeypatch):
        # 30 rows: 2 columns of W4 and W6 fit in 60 elements; the cached
        # call runs as one tile whatever the bound
        rng = Rng(16)
        p = wide(init_adaln(rng, dim=8), 0.3)
        x, te = rng.normal((2, 3, 5, 8)), rng.normal((3, 8))
        ref = ada_ln_te(x, te, p)
        monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
        seen, real = [], conditioning.linear
        monkeypatch.setattr(conditioning, "linear",
                            lambda a, w: seen.append(w.shape[1]) or real(a, w))
        out = ada_ln_te(x, te, p)
        assert seen[4::2] == seen[5::2] == tiles  # after x and te through W3, W5
        # 1-column tiles take NumPy's matrix-vector path
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        seen.clear()
        ada_ln_te(x, te, p, cache={})
        assert seen[4:] == [8, 8]
