"""The benchmark's workloads still run against the library.

`perfbench/workloads.py` is frozen with the benchmark, so the library
names it uses (`PvcConfig(t_img=...)`, `cfg.pixel_mean`, `vit_forward`,
`compress`, the `budget` specs, ...) must keep working. Each encode
workload runs once here at its toy geometry: set-up, one request, its
checks and its analytic FLOPs. At the benchmark
geometry, the GEMM heights the library's tiling gives are pinned, so a
tiling change that shortens them shows here before it shows in the
benchmark's timings.
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pvc import compression, conditioning, input_pipeline, tensor, vit
from pvc.compression import CompressionParams
from pvc.conditioning import SINUSOID_DIM, AdaLnParams, TemporalEmbeddingParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, read from its file; its dataclasses
    look their module up by name, so it sits in sys.modules meanwhile."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    yield _load("workloads")
    del sys.modules["perfbench_workloads"]


def test_benchmark_span_names_are_library_functions():
    # a span `<module>.<function>` times pvc.<module>'s own public function
    # of that name; a renamed one would read 0 in the figure it feeds
    run = _load("run")
    del sys.modules["perfbench_run"]
    for span in sorted({*run.TOTALS, *run.LAYER_SPANS, "verification.run_grad_check"}):
        module, name = span.split(".")
        fn = getattr(importlib.import_module(f"pvc.{module}"), name, None)
        assert callable(fn) and fn.__module__ == f"pvc.{module}", span


@pytest.mark.parametrize("kind", ["image_static", "video_dynamic"])
def test_encode_workload_runs_at_toy_geometry(workloads, tmp_path, kind):
    work = workloads.EncodeWorkload(kind, workloads.TOY, 0, tmp_path)
    work.setup()
    out = work.request()
    assert work.output_ok(out)
    assert work.out_path.exists()
    prefix_ok, gap = work.prefix_check()
    assert prefix_ok, f"frame 0 prefix gap {gap:.3e}"
    # the benchmark divides its timings by these, through the budget specs
    # `arch_spec` builds
    flops = work.flops()
    assert sorted(flops) == ["compression", "vit_plain", "vit_temporal"]
    assert all(np.isfinite(v) and v > 0 for v in flops.values()), flops


@pytest.mark.parametrize("kind", ["image_static", "video_dynamic"])
def test_bench_geometry_keeps_256_row_gemms(workloads, tmp_path, kind, monkeypatch):
    # zero weights built by hand, since drawing the compressor takes longer
    # than the forwards; with them S-MHA's output is exactly zero, so it is
    # not computed
    work = workloads.EncodeWorkload(kind, workloads.BENCH, 0, tmp_path)
    cfg, h, z = work.cfg, workloads.BENCH.comp_hidden, np.zeros
    c, f, wide = cfg.channels, cfg.ffn_dim, cfg.shuffle_kernel ** 2 * cfg.channels
    attn = vit.AttentionParams(cfg.heads, *[z((c, c))] * 4, *[z(c)] * 4)
    layer = vit.LayerParams(z(c), z(c), z(c), z(c), z((c, f)), z(f), z((f, c)), z(c), attn)
    comp = CompressionParams(
        AdaLnParams(z((wide, h)), z((h, wide)), z((wide, h)), z((h, wide))),
        TemporalEmbeddingParams(z((SINUSOID_DIM, h)), z((h, wide))),
        z((wide, h)), z(h), z((h, h)), z(h))
    frames = work.out_shape[1]
    # pixels as the benchmark hands them over: `video_to_pixel_tensor`'s
    # levels, the static image held once
    pixels = input_pipeline.video_to_pixel_tensor(work._frames(), cfg.pixel_mean,
                                                   cfg.pixel_std)
    patch = vit.PatchEmbedParams(z((cfg.patch_size ** 2 * 3, c)), z(c),
                                 z((cfg.tokens_per_frame, c)))
    patch_rows = []
    with monkeypatch.context() as m:
        m.setattr(vit, "linear", lambda a, *w, real=vit.linear, **kw:
                  patch_rows.append(a.size // a.shape[-1]) or real(a, *w, **kw))
        vit.patchify(pixels, cfg, patch)
    # a 448 px frame is 32 patch rows of 18816 pixel values, 13 of which
    # fit one chunk; a 224 px frame (150528 values) is one tile
    assert patch_rows == ([13 * 32, 13 * 32, 6 * 32] if kind == "image_static"
                          else [256] * frames)
    x = z((1, frames, cfg.tokens_per_frame, c))
    ffn_rows, shuffled_rows = [], []
    mlp, shuffle = vit.silu_mlp, compression.pixel_shuffle

    def ffn_spy(a, *weights, **kwargs):
        ffn_rows.append(len(a))
        return mlp(a, *weights, **kwargs)

    def shuffle_spy(a, k):
        shuffled_rows.append(a.shape[0] * a.shape[1] * a.shape[2] // k ** 2)
        return shuffle(a, k)

    monkeypatch.setattr(vit, "spatial_mha", lambda a, p, cache=None: z(a.shape))
    monkeypatch.setattr(vit, "silu_mlp", ffn_spy)
    monkeypatch.setattr(compression, "pixel_shuffle", shuffle_spy)
    vit.progressive_layer_forward(x, frames, layer)
    gemm_rows = Counter()
    for module in (tensor, conditioning):  # every namespace compress's GEMMs go through
        monkeypatch.setattr(module, "linear", lambda a, w, *b, real=module.linear:
                            gemm_rows.update([a.size // a.shape[-1]]) or real(a, w, *b))
    out = compression.compress(x, comp, cfg)
    assert ffn_rows == [256] * (frames * cfg.tokens_per_frame // 256)
    assert shuffled_rows == [256]
    # one row per frame: the timestamp MLP and te through AdaLN's W3 and W5.
    # 256 rows: x through W3 and W5, W4 and W6 in four 1024-column tiles
    # each, and the MLP's two GEMMs; the column tiles never cut rows
    assert gemm_rows == {frames: 4, 256: 12}
    assert out.shape == work.out_shape
