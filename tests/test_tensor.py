import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvc import tensor
from pvc.tensor import (
    NonFiniteError,
    Rng,
    layer_norm,
    linear,
    sigmoid,
    silu,
    silu_mlp,
)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def split_sigmoid(x):
    """The sign-split logistic: exp is only ever taken of a non-positive value."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def blockwise(seed, k, n, fill):
    """Draw k of Rng(seed), n values long, as the stream defines it: block j
    is fill(generator, its length), from an SFC64 stream keyed by (seed, k, j)."""
    blocks = []
    for j, start in enumerate(range(0, n, tensor.DRAW_BLOCK)):
        seq = np.random.SeedSequence(seed, spawn_key=(k, j))
        blocks.append(fill(np.random.Generator(np.random.SFC64(seq)),
                           min(tensor.DRAW_BLOCK, n - start)))
    return np.concatenate(blocks)


class TestMatmul:
    """`linear` without a bias is the plain 2-D matrix product."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(linear(np.eye(2), a), a)

    def test_projector_row_selection(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(linear(p, b), [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = Rng(11)
        a, b = rng.normal((3, 4)), rng.normal((4, 2))
        # accumulation order may differ from the left-to-right loop
        assert np.max(np.abs(linear(a, b) - naive_matmul(a, b))) < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear(np.zeros((2, 3)), np.zeros((4, 2)))


class TestLinear:
    @pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5), (2, 3, 4, 5)])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_stacked_matmul(self, shape, with_bias):
        rng = Rng(12)
        x, w = rng.normal(shape), rng.normal((5, 7))
        b = rng.normal((7,)) if with_bias else None
        x0, w0 = x.copy(), w.copy()
        b0 = None if b is None else b.copy()
        y = linear(x, w, b)
        expect = x @ w if b is None else x @ w + b
        assert y.shape == shape[:-1] + (7,)
        assert np.max(np.abs(y - expect)) <= 1e-12
        assert np.array_equal(x, x0) and np.array_equal(w, w0)
        assert b is None or np.array_equal(b, b0)

    @pytest.mark.parametrize("shape", [(6, 5), (2, 3, 4, 5)])
    def test_writes_into_out(self, shape):
        rng = Rng(13)
        x, w, b = rng.normal(shape), rng.normal((5, 7)), rng.normal((7,))
        out = np.empty(shape[:-1] + (7,))
        y = linear(x, w, b, out=out)
        assert np.shares_memory(y, out) and y.shape == out.shape
        assert np.array_equal(out, linear(x, w, b))


class TestLayerNorm:
    def test_constant_input_zero(self):
        x = np.full((4,), 3.7)
        assert np.allclose(layer_norm(x), 0.0, atol=1e-10)

    def test_gamma_zero_gives_beta(self):
        x = Rng(1).normal((2, 5))
        beta = np.arange(5.0)
        out = layer_norm(x, gamma=np.zeros(5), beta=beta)
        assert np.array_equal(out, np.broadcast_to(beta, (2, 5)))

    def test_two_pass_oracle(self):
        x = Rng(2).normal((7,))
        mu = sum(x) / 7
        var = sum((v - mu) ** 2 for v in x) / 7
        expect = (x - mu) / np.sqrt(var + 1e-6)
        assert np.max(np.abs(layer_norm(x) - expect)) < 1e-12

    def test_statistics_invariant(self):
        x = Rng(3).normal((10, 16)) * 4 + 2
        out = layer_norm(x)
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6  # eps-limited

    def test_one_buffer_is_the_textbook_formula_to_rounding(self):
        # The centred buffer's dot with itself and np.var round apart by 1-2
        # ulp on most inputs, so the bound is 4 ulp of max|xhat| over every
        # seed. A wrong variance, as /(d - 1), is off by about 3%.
        for seed in range(200):
            x = np.random.default_rng(seed).standard_normal((3, 5, 16)) * 3 + 1
            mu = x.mean(axis=-1, keepdims=True)
            want = (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + tensor.EPS_NORM)
            gap = np.max(np.abs(layer_norm(x) - want))
            assert gap <= 4 * np.finfo(np.float64).eps * np.max(np.abs(want)), seed

    def test_affine_and_cache_are_its_own_xhat_bitwise(self):
        rng = Rng(4)
        x = rng.normal((3, 5, 16)) * 3 + 1
        gamma, beta = rng.normal((16,)), rng.normal((16,))
        xhat = layer_norm(x)
        assert np.array_equal(layer_norm(x, gamma, beta), xhat * gamma + beta)
        # the affine goes to a copy: the cached xhat stays as recorded
        cache = {}
        assert np.array_equal(layer_norm(x, gamma, beta, cache), xhat * gamma + beta)
        assert np.array_equal(cache["xhat"], xhat)

    def test_holds_one_array_of_its_input_size(self):
        x = Rng(5).normal((64, 1024))
        gamma, beta = np.ones(1024), np.zeros(1024)
        layer_norm(x, gamma, beta)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            layer_norm(x, gamma, beta)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the result (or x.var's centred copy before it), the per-row mean
        # and std, NumPy's ufunc buffer and small objects; the textbook
        # formula holds two arrays of x's size
        assert peak <= x.nbytes + 2 * 64 * 8 + np.getbufsize() * 8 + 4096

    def test_normalises_into_out_without_a_temporary(self):
        # the variance is the mean square of the centred buffer, so out of
        # place the result is the one array of x's size, and into x itself
        # there is none; np.var would make a centred copy of its own
        x = Rng(6).normal((4096, 256)) * 3 + 1
        buf = x.copy()
        assert layer_norm(buf, out=buf) is buf
        assert np.array_equal(buf, layer_norm(x))

        def peak(fn):
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()

        assert peak(lambda: layer_norm(x)) <= 1.1 * x.nbytes
        assert peak(lambda: layer_norm(buf, out=buf)) <= 0.1 * x.nbytes


class TestSilu:
    def test_zero(self):
        assert silu(np.zeros(1))[0] == 0.0

    def test_large_asymptote(self):
        assert abs(silu(np.array([40.0]))[0] - 40.0) < 1e-12

    def test_at_one(self):
        # 1 * sigmoid(1), high-precision value
        assert abs(silu(np.array([1.0]))[0] - 0.7310585786300049) < 1e-15

    def test_extremes_raise_no_warning(self):
        x = np.array([-1000.0, -745.0, -710.0, 710.0, 745.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmoid(x)
            silu(x)

    def test_exact_limits(self):
        assert sigmoid(np.array([-1000.0]))[0] == 0.0
        assert sigmoid(np.array([1000.0]))[0] == 1.0
        assert silu(np.array([-1000.0]))[0] == 0.0
        assert silu(np.array([1000.0]))[0] == 1000.0

    def test_matches_sign_split_formula(self):
        x = np.linspace(-40.0, 40.0, 10001)
        s = split_sigmoid(x)
        assert np.max(np.abs(sigmoid(x) - s)) <= 1e-15
        # silu grows with x, so its last-bit rounding does too
        assert np.all(np.abs(silu(x) - x * s) <= 1e-15 * np.maximum(1.0, np.abs(x)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(NonFiniteError):
            silu(np.array([0.5, bad]))


class TestSiluMlp:
    """silu_mlp runs every row it is given at once; the stage loops that
    call it (the layer's FFN, compress) cut the rows into tiles."""

    @staticmethod
    def _mlp(rows, c=8, hidden=16, out=8):
        rng = Rng(14)
        return (rng.normal((1, rows, c)), rng.normal((c, hidden), 0.3),
                rng.normal((hidden, out), 0.3), rng.normal((hidden,)), rng.normal((out,)))

    @staticmethod
    def _by_blocks(x, block, *weights):
        return np.concatenate([silu_mlp(x[:, i:i + block], *weights)
                               for i in range(0, x.shape[1], block)], axis=1)

    @pytest.mark.parametrize("block", [3, 5, 23, 256])
    def test_blocks_equal_the_unblocked_formula_bitwise(self, block):
        # 23 rows: blocks of 3 and 5 leave an uneven last block of 2 and 3,
        # as a stage loop's last tile may be
        x, w_in, w_out, b_in, b_out = self._mlp(23)
        pre = linear(x, w_in, b_in)
        expect = linear(silu(pre), w_out, b_out)
        cache = {}
        got = silu_mlp(x, w_in, w_out, b_in, b_out, cache)
        # bitwise: a GEMM output row depends only on its own input row
        assert np.array_equal(got, expect)
        assert np.array_equal(self._by_blocks(x, block, w_in, w_out, b_in, b_out), got)
        assert cache["x"] is x
        assert np.array_equal(cache["pre"], pre)
        assert np.array_equal(cache["act"], silu(pre))

    def test_one_row_blocks_match_the_unblocked_formula(self):
        # a 1-row product takes NumPy's vector-matrix path, which may round
        # the last bit differently from the matrix product
        x, w_in, w_out, b_in, b_out = self._mlp(23)
        expect = linear(silu(linear(x, w_in, b_in)), w_out, b_out)
        got = self._by_blocks(x, 1, w_in, w_out, b_in, b_out)
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


class TestDeterminismAndRng:
    def test_ops_bitwise_repeatable(self):
        x = Rng(7).normal((5, 6))
        assert np.array_equal(layer_norm(x), layer_norm(x.copy()))
        assert np.array_equal(silu(x), silu(x.copy()))

    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert np.array_equal(a.normal((4, 4)), b.normal((4, 4)))
        assert np.array_equal(a.normal((3,), 0.5), b.normal((3,), 0.5))

    def test_normal_scales_its_draw_in_place(self):
        shape, std = (1024, 1024), 0.02
        draw = Rng(9).normal(shape, std)
        want = blockwise(9, 0, draw.size, lambda gen, n: gen.standard_normal(n) * std)
        assert np.array_equal(draw, want.reshape(shape))
        rng = Rng(9)
        tracemalloc.start()
        try:
            rng.normal(shape, std)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * draw.nbytes  # a scaled copy would hold two

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).normal((8,)), Rng(2).normal((8,)))

    def test_successive_draws_differ(self):
        rng = Rng(5)
        assert not np.array_equal(rng.normal((8,)), rng.normal((8,)))

    def test_a_draw_is_its_keyed_blocks(self):
        n = tensor.DRAW_BLOCK + 1
        rng = Rng(9)
        rng.normal((3,))  # draw 0
        assert np.array_equal(
            rng.normal((n,), 0.02),
            blockwise(9, 1, n, lambda gen, m: gen.standard_normal(m) * 0.02))
        assert np.array_equal(
            rng.normal((1, n)),
            blockwise(9, 2, n, lambda gen, m: gen.standard_normal(m))[None])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_draws_do_not_depend_on_the_thread_count(self, monkeypatch, workers):
        shapes = [(3 * tensor.DRAW_BLOCK + 5,), (7, tensor.DRAW_BLOCK // 2 + 3), (4, 5)]

        def draws():
            rng = Rng(31)
            return [rng.normal(s, 0.5) for s in shapes] + [rng.normal(s) for s in shapes]

        monkeypatch.setattr(tensor, "draw_workers", lambda: 1)
        one = draws()
        monkeypatch.setattr(tensor, "draw_workers", lambda: workers)
        for a, b in zip(one, draws()):
            assert np.array_equal(a, b)

    def test_only_a_draw_of_two_blocks_starts_a_thread(self, monkeypatch):
        started = []
        real = tensor.threading.Thread

        def thread(*args, **kwargs):
            started.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "draw_workers", lambda: 2)
        monkeypatch.setattr(tensor.threading, "Thread", thread)
        Rng(1).normal((tensor.DRAW_BLOCK,))
        Rng(1).normal((0,))
        assert started == []
        Rng(1).normal((tensor.DRAW_BLOCK + 1,))
        assert started == [1]

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            Rng(-1)

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteError):
            layer_norm(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_check_reports_every_kind(self, bad):
        x = np.zeros((3, 4))
        tensor._check_finite(x, "op")
        x[2, 1] = bad
        with pytest.raises(NonFiniteError, match="op: result contains NaN or Inf"):
            tensor._check_finite(x, "op")


# Names NumPy 2.0 added to the namespaces src/pvc uses; pyproject.toml
# declares numpy>=1.24, where each of them is an AttributeError.
NUMPY2_ONLY = ("vecdot", "matvec", "vecmat", "unstack", "concat", "permute_dims",
               "matrix_transpose", "astype", "isdtype", "cumulative_sum",
               "cumulative_prod", "trapezoid", "pow", "acos", "asin", "atan", "atan2",
               "acosh", "asinh", "atanh", "bitwise_invert", "bitwise_left_shift",
               "bitwise_right_shift", "unique_all", "unique_counts",
               "unique_inverse", "unique_values", "matrix_norm", "vector_norm",
               "svdvals")


def test_source_keeps_to_the_declared_numpy_floor():
    src = Path(tensor.__file__).parent
    floor = re.search(r'"numpy>=([\d.]+)"',
                      (src.parents[1] / "pyproject.toml").read_text()).group(1)
    names = re.compile(r"\bnp\.(?:linalg\.)?(%s)\b" % "|".join(NUMPY2_ONLY))
    used = {f"{path.name}: np.{m.group(1)}" for path in src.glob("*.py")
            for m in names.finditer(path.read_text())}
    assert not used or int(floor.split(".")[0]) >= 2, used
