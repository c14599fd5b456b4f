"""Deterministic dense-tensor primitives.

Everything in this package computes in float64 on contiguous row-major
numpy arrays. Ops are pure: they never write into their inputs unless
handed an `out=` buffer, and a non-finite result (NaN/Inf) raises instead
of propagating silently.
"""
from __future__ import annotations

import itertools
import math
import os
import threading

import numpy as np

Array = np.ndarray

EPS_NORM = 1e-6
NEW_WEIGHT_STD = 0.02  # std of every freshly drawn weight matrix
# Most elements of a tile-sized temporary: an attention score block, or an
# array a ViT layer or `compress` holds per tile; 2**18 float64 values are 2 MB.
CHUNK_ELEMENTS = 2 ** 18
# Values per independently keyed block of a random draw (see Rng). It is part
# of the stream's definition: changing it changes every seed's weights.
DRAW_BLOCK = 2 ** 16
# Fewest rows per tile of the FFN's and the compressor's MLP GEMMs, to keep them tall.
MLP_ROW_BLOCK = 256


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def _check_finite(x: Array, op: str) -> None:
    # a NaN shows in both extremes and an Inf in one; no temporary of x's size
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise NonFiniteError(f"{op}: result contains NaN or Inf")


def _sub_cache(cache: dict | None, key: str) -> dict | None:
    """A new dict stored as cache[key], or None when nothing is cached."""
    if cache is None:
        return None
    cache[key] = {}
    return cache[key]


def linear(x: Array, w: Array, b: Array | None = None, out: Array | None = None) -> Array:
    """x @ w + b over the last axis of x, as one 2-D product.

    NumPy runs a stacked `[..., L, C] @ [C, D]` as one small product per
    leading index; flattening the leading axes gives BLAS one tall GEMM.
    The product goes into `out` when given: a C-contiguous array of the
    result's shape, so that flattening it is a view.
    """
    rows = x.reshape(-1, x.shape[-1])
    y = np.matmul(rows, w, out=None if out is None else out.reshape(len(rows), -1))
    if b is not None:
        y += b
    return y.reshape(*x.shape[:-1], w.shape[-1])


def sigmoid(x: Array) -> Array:
    """1 / (1 + exp(-x)); exp overflows to inf below x = -709, giving exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x: Array) -> Array:
    """SiLU (sigmoid-weighted linear unit): x * sigmoid(x) = x / (1 + exp(-x))."""
    x = np.asarray(x, dtype=np.float64)
    # computed in one buffer; a -inf input gives -inf/inf = NaN, which the
    # check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.negative(x)
        np.exp(out, out=out)
        out += 1.0
        np.divide(x, out, out=out)
    _check_finite(out, "silu")
    return out


def tiles(extents: tuple[int, ...], item: int, floor: int = 1,
          whole: bool = False) -> list[tuple[slice, ...]]:
    """Index tuples tiling the grid `extents`, each point of which stands
    for `item` elements, in blocks of at most CHUNK_ELEMENTS elements.

    A block spans the later axes whole before it takes two points of an
    earlier one, holds at least one point and at least `floor` points where
    the grid has them, and the last block along an axis may be shorter. A
    zero extent gives no tiles, and points of no elements all fit in one.
    With `whole` (a cached forward), one tile covers the grid.
    """
    if whole:
        return [tuple(slice(0, e) for e in extents)]
    fit = CHUNK_ELEMENTS // item if item else math.prod(extents)
    axes = []
    for e in reversed(extents):
        step = max(floor, min(e, fit))
        axes.insert(0, [slice(i, min(e, i + step)) for i in range(0, e, step)])
        fit, floor = fit // max(1, e), -(-floor // max(1, e))  # ceil: what is left of the floor
    return list(itertools.product(*axes))


def silu_mlp(x: Array, w_in: Array, w_out: Array, b_in: Array | None = None,
             b_out: Array | None = None, cache: dict | None = None) -> Array:
    """Two projections with SiLU between: linear(silu(linear(x, w_in, b_in)), w_out, b_out).

    Every row of x (all leading axes flattened) goes through at once; the
    calling stage bounds the rows. With a `cache` dict, the input, the
    pre-activation and the activation are recorded in it as `x`, `pre`, `act`.
    """
    h = linear(x, w_in, b_in)
    if cache is not None:
        cache.update(x=x, pre=h)
    h = silu(h)  # frees the pre-activation unless it is cached
    if cache is not None:
        cache["act"] = h
    return linear(h, w_out, b_out)


def silu_grad(x: Array) -> Array:
    """Elementwise derivative of SiLU at x."""
    s = sigmoid(np.asarray(x, dtype=np.float64))
    return s * (1.0 + x * (1.0 - s))


def layer_norm(x: Array, gamma: Array | None = None, beta: Array | None = None,
               cache: dict | None = None, out: Array | None = None) -> Array:
    """Normalize to zero mean / unit variance along the last axis, then affine.

    gamma/beta, when given, are 1-D with the extent of the last axis.
    The result is built in one buffer, `out` when given (x's shape; it may
    be x itself). The variance is the mean square of that centred buffer,
    so nothing else of x's size is allocated. With a `cache` dict, a copy
    of the normalized x (before the affine) and the standard deviation are
    recorded in it as `xhat` and `std`.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    for name, v in (("gamma", gamma), ("beta", beta)):
        if v is not None and np.shape(v) != (d,):
            raise ValueError(f"{name} shape {np.shape(v)} != ({d},)")
    mu = x.mean(axis=-1, keepdims=True)
    out = np.subtract(x, mu, out=out)
    sq = np.matmul(out[..., None, :], out[..., :, None])[..., 0]  # each row's dot with itself
    std = np.sqrt(sq / d + EPS_NORM)
    out /= std
    if cache is not None:
        cache.update(xhat=out.copy(), std=std)
    if gamma is not None:
        out *= gamma
    if beta is not None:
        out += beta
    _check_finite(out, "layer_norm")
    return out


def draw_workers() -> int:
    """Threads that fill a draw's blocks: one per core this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class Rng:
    """Seeded stream of normal draws (SFC64), filled on every core.

    Draw k of `Rng(seed)` (k = 0, 1, ... in call order) is cut, in row-major
    order, into blocks of DRAW_BLOCK values. Block j is the start of its
    own SFC64 stream, keyed by `SeedSequence(seed, spawn_key=(k, j))`, so
    the blocks are filled in parallel, one thread per usable core, and a
    value depends only on the seed, the draw order and its index. A seed
    therefore fixes the weights, and `--seed` a model, on any core count
    and any platform. A draw of one block stays on the calling thread, and
    no thread outlives the draw that started it.

    The key, not the generator, makes the blocks independent, so nothing
    needs a counter-based generator such as Philox. SFC64 is NumPy's
    fastest: one thread builds and fills a block at 11.0 ns per normal,
    against 15.7 ns with Philox (Xeon, NumPy 2.4.6).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        np.random.SeedSequence(self.seed)  # a negative seed raises ValueError
        self._draws = 0

    zeros, ones = staticmethod(np.zeros), staticmethod(np.ones)  # not draws: no key is used

    def normal(self, shape, std: float = 1.0) -> Array:
        """A new float64 array of `shape`: normal values scaled by std in place,
        so that a draw holds one array of its size."""
        std = float(std)
        out = np.empty(tuple(shape))
        flat = out.reshape(-1)
        key = self._draws
        self._draws += 1
        # built on the calling thread, which holds the GIL for it anyway, so
        # that the workers only fill memory they are handed
        gens = [np.random.Generator(np.random.SFC64(
                    np.random.SeedSequence(self.seed, spawn_key=(key, j))))
                for j in range(-(-flat.size // DRAW_BLOCK))]
        workers = max(1, min(draw_workers(), len(gens)))

        def work(first):
            for j in range(first, len(gens), workers):
                block = flat[j * DRAW_BLOCK:(j + 1) * DRAW_BLOCK]
                gens[j].standard_normal(out=block)
                block *= std

        # plain threads: importing concurrent.futures costs 0.7 MB of resident set
        threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
        for t in threads:
            t.start()
        work(0)
        for t in threads:
            t.join()
        return out
