import argparse
import os
import resource
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from pvc import cli, io, model_store, verification
from pvc.cli import main
from pvc.input_pipeline import (RawImage, RawVideo, sample_frames, video_to_pixel_tensor,
                                write_ppm)
from pvc.compression import init_compression
from pvc.conditioning import init_adaln
from pvc.model_store import save_compression, save_model
from pvc.tensor import Rng
from pvc.verification import toy_config
from pvc.vit import init_model, named_params, patchify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestChecks:
    def test_init_identity(self, capsys):
        code, out, _ = run(capsys, "check-init-identity", "--seed", "3")
        assert code == 0
        assert "result = pass" in out

    def test_causality(self, capsys):
        code, out, _ = run(capsys, "check-causality", "--seed", "3")
        assert code == 0
        assert "forward_leak = 0.000e+00" in out
        assert "grad_leak = 0.000e+00" in out

    def test_grad_check_pass(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--module", "adaln", "--seed", "3")
        assert code == 0
        assert "overall = pass" in out

    def test_grad_check_fails_at_absurd_tol(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "GRAD_TOL", 1e-30)
        code, out, _ = run(capsys, "grad-check", "--module", "adaln", "--seed", "3")
        assert code == 1
        assert "tol = 1e-30" in out and "overall = FAIL" in out

    def test_seed_defaults_to_zero(self, capsys):
        code, out, _ = run(capsys, "check-init-identity")
        assert code == 0
        assert "seed = 0" in out


class TestBudget:
    def test_preset_output(self, capsys):
        code, out, _ = run(capsys, "budget", "--preset", "table4-pvc")
        assert code == 0
        assert "flops.total" in out

    def test_preset_with_comparison(self, capsys):
        code, out, _ = run(capsys, "budget", "--preset", "table4-pvc",
                           "--compare-baseline", "table4-baseline")
        assert code == 0
        assert "delta_vs_first" in out or "delta" in out

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "arch.cfg"
        io.write_manifest(cfg, {
            "vit.layers": 4, "vit.hidden": 64, "vit.ffn": 128,
            "vit.image_size": 56, "vit.patch": 14, "vit.temporal_layers": 2,
            "compression.kernel": 2, "compression.mlp_hidden": 64,
            "compression.out_dim": 64,
            "llm.layers": 2, "llm.hidden": 64, "llm.ffn": 128,
            "workload.kind": "image", "workload.t_img": 4,
            "workload.text_tokens": 10,
        })
        code, out, _ = run(capsys, "budget", "--config", str(cfg))
        assert code == 0
        assert "visual_tokens_per_frame = 4" in out

    @pytest.mark.parametrize("kind, code", [("image", 0), ("video", 2)])
    def test_config_against_a_baseline(self, capsys, tmp_path, kind, code):
        cfg = tmp_path / "arch.cfg"
        io.write_manifest(cfg, {"vit.layers": 4, "vit.temporal_layers": 2,
                                "workload.kind": kind})
        got, out, err = run(capsys, "budget", "--config", str(cfg),
                            "--compare-baseline", "table4-baseline")
        assert got == code
        if code:  # the baseline is an image workload
            assert out == "" and err == "pvc: reports describe different workloads\n"
        else:
            assert "config.delta_vs_table4-baseline = " in out

    def test_config_kernel_must_divide_tokens_per_frame(self, capsys, tmp_path):
        cfg = tmp_path / "arch.cfg"  # 56 / 14 = 4 patches a side: 16 tokens, k^2 = 9
        io.write_manifest(cfg, {"vit.image_size": 56, "vit.patch": 14,
                                "compression.kernel": 3})
        code, out, err = run(capsys, "budget", "--config", str(cfg))
        assert code == cli.EXIT_USAGE and out == ""
        assert err == "pvc: kernel^2=9 does not divide tokens/frame 16\n"

    def test_missing_args_is_usage_error(self, capsys):
        code, _, err = run(capsys, "budget")
        assert code == 2
        assert "one of the arguments --preset --config is required" in err

    def test_preset_and_config_conflict(self, capsys, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(io, "read_manifest", lambda *a: reads.append(a))
        code, out, err = run(capsys, "budget", "--preset", "table4-pvc",
                             "--config", str(tmp_path / "missing.cfg"))
        assert code == cli.EXIT_USAGE and out == "" and reads == []
        assert "argument --config: not allowed with argument --preset" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "budget", "--nonsense")
        assert code == 2

    @pytest.mark.parametrize("key, value, code", [
        ("vit.patch", 0, 2), ("compression.kernel", 0, 2), ("vit.image_size", 0, 2),
        ("vit.image_size", 10, 2), ("llm.layers", -1, 2), ("vit.temporal_layers", -1, 2),
        ("vit.temporal_layers", 0, 0), ("vit.adaln_hidden", 0, 0),
        ("compression.te_hidden", 0, 0), ("vit.temporal_layers", 6, 2),
        ("arch.flops_per_mac", "nan", 2), ("arch.flops_per_mac", "inf", 2),
        ("arch.flops_per_mac", -2, 2), ("arch.flops_per_mac", 0, 2),
        ("arch.flops_per_mac", 1, 0), ("vit.layers", "abc", 2),
        ("arch.flops_per_mac", "x", 2), ("workload.t_img", "abc", 2),
        ("workload.t_img", 0, 2)])
    def test_config_extents(self, capsys, tmp_path, key, value, code):
        cfg = tmp_path / "arch.cfg"
        io.write_manifest(cfg, {"vit.layers": 4, "vit.temporal_layers": 2, key: value})
        got, out, err = run(capsys, "budget", "--config", str(cfg))
        assert got == code
        assert err.startswith(f"pvc: {key} = {value}") if code else "flops.total" in out


class TestForwardCompress:
    def test_forward_round_trip(self, capsys, tmp_path):
        cfg = toy_config()
        src = tmp_path / "in.pvct"
        dst = tmp_path / "out.pvct"
        x = Rng(5).normal((1, 2, cfg.tokens_per_frame, cfg.channels))
        io.write_tensor(src, x)
        code, out, _ = run(capsys, "forward", "--toy", "--seed", "5",
                           "--input", str(src), "--output", str(dst))
        assert code == 0
        y = io.read_tensor(dst)
        assert y.shape == x.shape
        assert not np.array_equal(y, x)

    def test_forward_empty_batch(self, capsys, tmp_path):
        # B = 0: every tile loop of the layer is empty or runs on empty arrays
        src, dst = tmp_path / "in.pvct", tmp_path / "out.pvct"
        io.write_tensor(src, np.zeros((0, 4, 16, 32)))
        code, _, err = run(capsys, "forward", "--toy",
                           "--input", str(src), "--output", str(dst))
        assert code == 0, err
        assert io.read_tensor(dst).shape == (0, 4, 16, 32)

    def test_compress_empty_batch(self, capsys, tmp_path):
        # B = 0: compress's tile loop over (B, T) frames has no tiles
        src, dst = tmp_path / "in.pvct", tmp_path / "out.pvct"
        io.write_tensor(src, np.zeros((0, 4, 16, 32)))
        code, _, err = run(capsys, "compress", "--kernel", "2",
                           "--input", str(src), "--output", str(dst))
        assert code == 0, err
        assert io.read_tensor(dst).shape == (0, 4, 4, 32)

    def test_forward_shape_mismatch_is_io_error(self, capsys, tmp_path):
        src = tmp_path / "in.pvct"
        dst = tmp_path / "out.pvct"
        io.write_tensor(src, Rng(5).normal((1, 2, 7, 3)))
        code, _, err = run(capsys, "forward", "--toy",
                           "--input", str(src), "--output", str(dst))
        assert code == 3
        assert "I/O error" in err

    @pytest.mark.parametrize("source, pattern", [
        ("default", "(*, *, 1024, 1024)"), ("toy", "(*, *, 16, 32)"),
        ("manifest", "(*, *, 16, 32)")], ids=["default", "toy", "manifest"])
    def test_forward_checks_its_input_before_any_weight(self, capsys, tmp_path, monkeypatch,
                                                        source, pattern):
        # 3 tokens of width 4 match no model: refused before a weight is drawn or read
        flags = {"default": [], "toy": ["--toy"], "manifest": ["--manifest", str(save_model(
            tmp_path / "model", init_model(9, toy_config(layers=2, temporal_layers=1))))]}
        calls = []
        monkeypatch.setattr(cli, "init_model", lambda *a: calls.append("init_model"))
        monkeypatch.setattr(model_store, "load_model", lambda *a: calls.append("load_model"))
        src = tmp_path / "in.pvct"
        io.write_tensor(src, np.zeros((1, 1, 3, 4)))
        code, _, err = run(capsys, "forward", *flags[source], "--input", str(src),
                           "--output", str(tmp_path / "o.pvct"))
        assert code == 3 and f"extents (1, 1, 3, 4) do not match {pattern}" in err
        assert calls == []

    def test_forward_overflowing_extents_is_io_error(self, capsys, tmp_path):
        src = tmp_path / "in.pvct"
        src.write_bytes(b"PVCT" + struct.pack("<II2Q", 1, 2, 2 ** 40, 2 ** 40))
        code, _, err = run(capsys, "forward", "--toy",
                           "--input", str(src), "--output", str(tmp_path / "o.pvct"))
        assert code == 3
        assert "I/O error" in err

    def test_forward_nan_tokens_is_nonfinite_error(self, capsys, tmp_path):
        cfg = toy_config()
        src = tmp_path / "in.pvct"
        x = Rng(5).normal((1, 2, cfg.tokens_per_frame, cfg.channels))
        x[0, 1, 3, 0] = np.nan
        io.write_tensor(src, x)
        code, _, err = run(capsys, "forward", "--toy", "--input", str(src),
                           "--output", str(tmp_path / "out.pvct"))
        assert code == 4
        assert err.startswith("pvc: non-finite value:") and "Traceback" not in err
        assert not (tmp_path / "out.pvct").exists()

    def test_forward_missing_input(self, capsys, tmp_path):
        code, _, _ = run(capsys, "forward", "--toy",
                         "--input", str(tmp_path / "nope.pvct"),
                         "--output", str(tmp_path / "out.pvct"))
        assert code == 3

    def test_forward_with_saved_manifest(self, capsys, tmp_path):
        cfg = toy_config(layers=2, temporal_layers=1)
        model = init_model(9, cfg)
        manifest = save_model(tmp_path / "model", model)
        src = tmp_path / "in.pvct"
        dst = tmp_path / "out.pvct"
        io.write_tensor(src, Rng(5).normal(
            (1, 2, cfg.tokens_per_frame, cfg.channels)))
        code, _, _ = run(capsys, "forward", "--manifest", str(manifest),
                         "--input", str(src), "--output", str(dst))
        assert code == 0

    @pytest.mark.parametrize("name, shape", [("layer01.adaln.w4", (5, 32)),
                                             ("layer01.te.w1", (256, 7))])
    def test_forward_manifest_wrong_weight_shape_is_io_error(self, capsys, tmp_path,
                                                             name, shape):
        manifest = save_model(tmp_path / "model",
                              init_model(9, toy_config(layers=2, temporal_layers=1)))
        weight = manifest.parent / io.read_manifest(manifest)[f"weight.{name}"]
        io.write_tensor(weight, np.zeros(shape))
        src = tmp_path / "in.pvct"
        io.write_tensor(src, np.zeros((1, 2, 16, 32)))
        code, _, err = run(capsys, "forward", "--manifest", str(manifest),
                           "--input", str(src), "--output", str(tmp_path / "o.pvct"))
        assert code == 3
        assert "I/O error" in err and name in err

    @pytest.mark.parametrize("command", ["forward", "budget"])
    def test_manifest_not_utf8_is_io_error(self, capsys, tmp_path, command):
        manifest = tmp_path / "bad.manifest"
        manifest.write_bytes(b"cfg.channels = \xff\n")
        argv = (["forward", "--manifest", str(manifest), "--input", str(manifest),
                 "--output", str(tmp_path / "o.pvct")] if command == "forward"
                else ["budget", "--config", str(manifest)])
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "bad.manifest" in err

    def test_compress_counts(self, capsys, tmp_path):
        src = tmp_path / "in.pvct"
        dst = tmp_path / "out.pvct"
        io.write_tensor(src, Rng(6).normal((1, 3, 64, 4)))
        code, out, _ = run(capsys, "compress", "--kernel", "4", "--seed", "6",
                           "--input", str(src), "--output", str(dst))
        assert code == 0
        assert io.read_tensor(dst).shape[:3] == (1, 3, 4)

    def test_compress_manifest_wrong_weight_shape_is_io_error(self, capsys, tmp_path):
        # C=8, k=4: the compressor's width is D = 128
        cfg = toy_config(channels=8, heads=2, shuffle_kernel=4)
        save_compression(tmp_path, init_compression(Rng(6), cfg))
        manifest = tmp_path / "comp.manifest"
        src = tmp_path / "in.pvct"
        io.write_tensor(src, Rng(6).normal((1, 2, 16, 8)))
        argv = ["compress", "--kernel", "4", "--comp-manifest", str(manifest),
                "--input", str(src), "--output", str(tmp_path / "o.pvct")]
        assert run(capsys, *argv)[0] == 0
        weight = tmp_path / io.read_manifest(manifest)["weight.adaln.w4"]
        io.write_tensor(weight, np.zeros((5, 128)))
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "I/O error" in err and "adaln.w4" in err

    def test_compress_of_another_width_never_loads_the_compressor(self, capsys, tmp_path,
                                                                  monkeypatch):
        # a compressor for C=8 (k²C = 32) against tokens of C=32 (128 at k=2)
        save_compression(tmp_path, init_compression(Rng(6), toy_config(channels=8, heads=2)))
        loads = []
        monkeypatch.setattr(model_store, "load_compression", lambda *a: loads.append(a))
        src = tmp_path / "in.pvct"
        io.write_tensor(src, np.zeros((1, 2, 16, 32)))
        code, _, err = run(capsys, "compress", "--kernel", "2", "--comp-manifest",
                           str(tmp_path / "comp.manifest"), "--input", str(src),
                           "--output", str(tmp_path / "o.pvct"))
        assert code == 2 and err == "pvc: shuffled width 128 != params 32\n"
        assert loads == []

    @pytest.mark.parametrize("entry, value", [
        ("cfg.heads", "0"), ("cfg.patch_size", "0"), ("cfg.shuffle_kernel", "0"),
        ("cfg.channels", "-32"), ("cfg.eps", "1e-05"), ("cfg.ts_scale", "500.0"),
        ("cfg.frame_bounds", "8 40"), ("cfg.pixel_std", "0 0 0"), ("cfg.bogus", "1"),
        ("cfg.pixel_means", "0.1 0.2 0.3")])
    def test_forward_manifest_bad_config_entry_is_io_error(self, capsys, tmp_path,
                                                           entry, value):
        manifest = save_model(tmp_path / "model",
                              init_model(9, toy_config(layers=2, temporal_layers=1)))
        io.write_manifest(manifest, {**io.read_manifest(manifest), entry: value})
        src = tmp_path / "in.pvct"
        io.write_tensor(src, np.zeros((1, 2, 16, 32)))
        code, _, err = run(capsys, "forward", "--manifest", str(manifest),
                           "--input", str(src), "--output", str(tmp_path / "o.pvct"))
        assert code == 3
        assert "I/O error" in err and entry.removeprefix("cfg.") in err

    @pytest.mark.parametrize("entry, value", [
        ("cfg.temporal_layers", "0"), ("weight.bogus", "layer00_ln1_gamma.pvct"),
        ("cfg.image_size", "2800000"), ("cfg.layers", str(10 ** 9))])
    def test_forward_manifest_config_the_weights_do_not_match_is_io_error(
            self, capsys, tmp_path, entry, value):
        manifest = save_model(tmp_path / "model", init_model(9, toy_config()))
        io.write_manifest(manifest, {**io.read_manifest(manifest), entry: value})
        src = tmp_path / "in.pvct"
        io.write_tensor(src, np.zeros((1, 2, 16, 32)))
        code, _, err = run(capsys, "forward", "--manifest", str(manifest),
                           "--input", str(src), "--output", str(tmp_path / "o.pvct"))
        assert code == 3
        assert err.startswith("pvc: I/O error:") and "Traceback" not in err

    @pytest.mark.parametrize("kernel", ["0", "-2"])
    def test_compress_non_positive_kernel_is_usage_error(self, capsys, tmp_path, kernel):
        # the kernel is refused before the input's geometry: 3 tokens are no square grid
        for tokens in (16, 3):
            src = tmp_path / f"in{tokens}.pvct"
            io.write_tensor(src, Rng(6).normal((1, 1, tokens, 4)))
            code, _, err = run(capsys, "compress", "--input", str(src),
                               "--output", str(src) + ".out", "--kernel", kernel)
            assert code == 2
            assert f"argument --kernel: must be >= 1, got {kernel}" in err

    def test_compress_non_square_grid(self, capsys, tmp_path):
        for tokens in (10, 0):
            src = tmp_path / f"in{tokens}.pvct"
            io.write_tensor(src, np.zeros((1, 1, tokens, 4)))
            code, _, err = run(capsys, "compress", "--input", str(src),
                               "--output", str(src) + ".out", "--kernel", "2")
            assert code == 3
            assert f"token count {tokens} is not a square grid" in err


class TestPipeline:
    def test_image_to_tokens(self, capsys, tmp_path):
        cfg = toy_config()
        gen = np.random.Generator(np.random.Philox(12))
        img = RawImage(gen.integers(
            0, 256, size=(cfg.image_size, cfg.image_size, 3), dtype=np.uint8))
        ppm = tmp_path / "img.ppm"
        write_ppm(ppm, img)
        dst = tmp_path / "tokens.pvct"
        code, out, _ = run(capsys, "pipeline", "--toy", "--seed", "12",
                           "--image", str(ppm), "--output", str(dst))
        assert code == 0
        y = io.read_tensor(dst)
        m = cfg.tokens_per_frame // cfg.shuffle_kernel ** 2
        assert y.shape == (1, cfg.t_img, m, cfg.channels)
        assert f"{y.shape[0] * y.shape[1] * y.shape[2]} visual tokens" in out

    def test_image_tiles_are_held_once(self, capsys, tmp_path, monkeypatch):
        seen = []
        real_patchify = cli.patchify

        def patchify(pixels, cfg, patch):
            seen.append((pixels.levels.shape, pixels.levels.strides[1], pixels.levels.dtype))
            return real_patchify(pixels, cfg, patch)

        monkeypatch.setattr(cli, "patchify", patchify)
        gen = np.random.Generator(np.random.Philox(16))
        ppm = tmp_path / "img.ppm"
        write_ppm(ppm, RawImage(gen.integers(0, 256, size=(56, 112, 3), dtype=np.uint8)))
        code, _, err = run(capsys, "pipeline", "--toy", "--image", str(ppm), "--t-img", "3",
                           "--output", str(tmp_path / "tokens.pvct"))
        assert code == 0, err
        assert seen == [((2, 3, 56, 56, 3), 0, np.uint8)]

    def test_vit_released_before_compressor_is_built(self, capsys, tmp_path, monkeypatch):
        refs = {}
        real_patchify, real_forward, real_init = (cli.patchify, cli.vit_forward,
                                                  cli.init_compression)

        def patchify(pixels, cfg, patch):
            refs["pixels"] = weakref.ref(pixels)
            return real_patchify(pixels, cfg, patch)

        def vit_forward(x, cfg, model):
            refs["tokens"], refs["model"] = weakref.ref(x), weakref.ref(model)
            return real_forward(x, cfg, model)

        def init_compression(rng, cfg):
            refs["alive"] = sorted(k for k, r in refs.items() if r() is not None)
            return real_init(rng, cfg)

        def read_tensor(path):
            x = real_read(path)
            refs["video"] = weakref.ref(x)
            return x

        real_read = io.read_tensor
        for name, fn in [("patchify", patchify), ("vit_forward", vit_forward),
                         ("init_compression", init_compression)]:
            monkeypatch.setattr(cli, name, fn)
        monkeypatch.setattr(io, "read_tensor", read_tensor)
        cfg = toy_config()
        ppm = tmp_path / "img.ppm"
        write_ppm(ppm, RawImage(np.full((cfg.image_size, cfg.image_size, 3), 7, np.uint8)))
        code, _, _ = run(capsys, "pipeline", "--toy", "--image", str(ppm),
                         "--output", str(tmp_path / "tokens.pvct"))
        assert code == 0
        assert refs["alive"] == []
        # the float64 source video goes too, along with its uint8 copies
        refs.clear()
        video = tmp_path / "vid.pvct"
        io.write_tensor(video, np.full((4, 56, 56, 3), 7.0))
        code, _, _ = run(capsys, "pipeline", "--toy", "--video", str(video),
                         "--no-frame-bounds", "--output", str(tmp_path / "tokens.pvct"))
        assert code == 0
        assert refs["alive"] == []

    def test_video_is_read_and_released_before_the_vit_is_built(self, capsys, tmp_path,
                                                                monkeypatch):
        refs, seen = {}, []
        real_read, real_init = io.read_tensor, cli.init_model

        def read_tensor(path):
            x = real_read(path)
            refs["video"] = weakref.ref(x)
            return x

        def init_model(seed, cfg):
            seen.append({name: ref() is not None for name, ref in refs.items()})
            return real_init(seed, cfg)

        monkeypatch.setattr(io, "read_tensor", read_tensor)
        monkeypatch.setattr(cli, "init_model", init_model)
        video = tmp_path / "vid.pvct"
        io.write_tensor(video, np.full((4, 56, 56, 3), 7.0))
        code, _, err = run(capsys, "pipeline", "--toy", "--video", str(video),
                           "--no-frame-bounds", "--output", str(tmp_path / "tokens.pvct"))
        assert code == 0, err
        assert seen == [{"video": False}]  # read, then dropped, before the ViT exists

    def test_video_frame_bounds_enforced(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "vid.pvct"
        gen = np.random.Generator(np.random.Philox(13))
        frames = gen.integers(0, 256, size=(4, 56, 56, 3)).astype(np.float64)
        io.write_tensor(src, frames)
        dst = tmp_path / "out.pvct"
        calls, real_read, real_init = [], io.read_tensor, cli.init_model
        monkeypatch.setattr(io, "read_tensor",
                            lambda *a: calls.append("read_tensor") or real_read(*a))
        monkeypatch.setattr(cli, "init_model",
                            lambda *a: calls.append("init_model") or real_init(*a))
        code, out, err = run(capsys, "pipeline", "--toy", "--video", str(src),
                             "--output", str(dst))
        assert code == 2 and out == "" and calls == []  # refused from the header
        assert err == ("pvc: frame count 4 outside validated bounds [16, 96] "
                       "(use --no-frame-bounds to override)\n")
        code, _, _ = run(capsys, "pipeline", "--toy", "--video", str(src),
                         "--no-frame-bounds", "--output", str(dst))
        assert code == 0 and calls == ["read_tensor", "init_model"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_video_non_finite_frames_is_nonfinite_error(self, capsys, tmp_path, bad):
        src = tmp_path / "vid.pvct"
        frames = np.full((4, 56, 56, 3), 128.0)
        frames[2, 10, 20, 1] = bad
        io.write_tensor(src, frames)
        dst = tmp_path / "out.pvct"
        code, _, err = run(capsys, "pipeline", "--toy", "--video", str(src),
                           "--no-frame-bounds", "--output", str(dst))
        assert code == 4
        assert err.startswith("pvc: non-finite value:") and "vid.pvct" in err
        assert not dst.exists()

    @pytest.mark.parametrize("shape", [(16, 56, 56), (16, 56, 56, 4)])
    def test_video_that_is_not_rgb_frames_is_io_error(self, capsys, tmp_path, monkeypatch,
                                                     shape):
        io.write_tensor(tmp_path / "v.pvct", np.zeros(shape))
        reads = []
        monkeypatch.setattr(io, "read_tensor", lambda *a: reads.append(a))
        dst = tmp_path / "out.pvct"
        code, _, err = run(capsys, "pipeline", "--toy", "--video", str(tmp_path / "v.pvct"),
                           "--output", str(dst))
        assert code == cli.EXIT_IO
        assert f"extents {shape} do not match (*, 56, 56, 3)" in err
        assert reads == [] and not dst.exists()

    def test_video_of_another_frame_size_is_refused_from_its_header(self, capsys, tmp_path,
                                                                    monkeypatch):
        # 55x56 frames against the toy's 56 px: refused before the payload or a weight
        io.write_tensor(tmp_path / "v.pvct", np.zeros((20, 55, 56, 3)))
        calls = []
        monkeypatch.setattr(io, "read_tensor", lambda *a: calls.append("read_tensor"))
        monkeypatch.setattr(cli, "init_model", lambda *a: calls.append("init_model"))
        dst = tmp_path / "out.pvct"
        code, _, err = run(capsys, "pipeline", "--toy", "--video", str(tmp_path / "v.pvct"),
                           "--output", str(dst))
        assert code == cli.EXIT_IO
        assert "extents (20, 55, 56, 3) do not match (*, 56, 56, 3)" in err
        assert calls == [] and not dst.exists()

    def test_image_and_video_conflict(self, capsys, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "read_ppm", lambda *a: reads.append(a))
        monkeypatch.setattr(io, "read_tensor", lambda *a: reads.append(a))
        code, out, err = run(capsys, "pipeline", "--toy", "--image", str(tmp_path / "a.ppm"),
                             "--video", str(tmp_path / "b.pvct"),
                             "--output", str(tmp_path / "o.pvct"))
        assert code == cli.EXIT_USAGE and out == "" and reads == []
        assert "argument --video: not allowed with argument --image" in err

    def test_malformed_ppm_is_io_error(self, capsys, tmp_path):
        ppm = tmp_path / "img.ppm"
        ppm.write_bytes(b"P6\nabc 3\n255\n")
        code, _, err = run(capsys, "pipeline", "--toy", "--image", str(ppm),
                           "--output", str(tmp_path / "o.pvct"))
        assert code == 3
        assert "img.ppm" in err

    def test_no_input_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "pipeline", "--toy",
                           "--output", str(tmp_path / "o.pvct"))
        assert code == 2
        assert "one of the arguments --image --video is required" in err

    @pytest.mark.parametrize("source", ["image", "video"])
    @pytest.mark.parametrize("toy", [[], ["--toy"]], ids=["manifest", "manifest_and_toy"])
    def test_manifest_config_sets_geometry(self, capsys, tmp_path, source, toy):
        # 2 layers, 28 px tiles, 3 image frames: none of them the toy default
        cfg = toy_config(layers=2, temporal_layers=1, image_size=28, t_img=3)
        manifest = save_model(tmp_path / "model", init_model(9, cfg))
        gen = np.random.Generator(np.random.Philox(14))
        if source == "image":
            src = tmp_path / "img.ppm"
            write_ppm(src, RawImage(gen.integers(0, 256, size=(28, 28, 3), dtype=np.uint8)))
            frames = cfg.t_img
        else:
            src = tmp_path / "vid.pvct"
            io.write_tensor(src, gen.integers(0, 256, size=(4, 28, 28, 3)).astype(np.float64))
            frames = 4
        dst = tmp_path / "out.pvct"
        code, _, err = run(capsys, "pipeline", *toy, "--manifest", str(manifest),
                           f"--{source}", str(src), "--no-frame-bounds",
                           "--output", str(dst))
        assert code == 0, err
        assert io.read_tensor(dst).shape == (1, frames, cfg.compressed_tokens, cfg.channels)

    def test_comp_manifest_equals_forward_then_compress(self, capsys, tmp_path, monkeypatch):
        cfg = toy_config()
        model = init_model(9, cfg)
        manifest = save_model(tmp_path / "model", model)
        save_compression(tmp_path / "comp", init_compression(Rng(6), cfg))
        comp = tmp_path / "comp" / "comp.manifest"
        gen = np.random.Generator(np.random.Philox(17))
        frames = gen.integers(0, 256, size=(4, 56, 56, 3), dtype=np.uint8)
        video = tmp_path / "vid.pvct"
        io.write_tensor(video, frames.astype(np.float64))
        # the compressor is loaded after the ViT is dropped
        alive, real_forward, real_load = [], cli.vit_forward, model_store.load_compression
        monkeypatch.setattr(cli, "vit_forward", lambda x, c, m: alive.append(weakref.ref(m))
                            or real_forward(x, c, m))
        monkeypatch.setattr(model_store, "load_compression",
                            lambda path, c: alive.append(alive[0]() is None) or real_load(path, c))
        code, _, err = run(capsys, "pipeline", "--manifest", str(manifest), "--comp-manifest",
                           str(comp), "--video", str(video), "--no-frame-bounds",
                           "--output", str(tmp_path / "piped.pvct"))
        assert code == 0, err
        assert alive[1:] == [True]
        # the same tokens through `pvc forward`, then `pvc compress`
        raw = RawVideo([RawImage(f) for f in frames])
        tokens = patchify(video_to_pixel_tensor(sample_frames(raw, 4)), cfg, model.patch)
        io.write_tensor(tmp_path / "tokens.pvct", tokens)
        path = lambda name: str(tmp_path / f"{name}.pvct")
        steps = [["forward", "--manifest", str(manifest), "--input", path("tokens"),
                  "--output", path("encoded")],
                 ["compress", "--kernel", str(cfg.shuffle_kernel), "--comp-manifest",
                  str(comp), "--input", path("encoded"), "--output", path("stepped")]]
        for argv in steps:
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        piped = io.read_tensor(tmp_path / "piped.pvct")
        assert piped.shape == (1, 4, cfg.compressed_tokens, cfg.channels)
        assert np.array_equal(piped, io.read_tensor(path("stepped")))

    def test_comp_manifest_of_another_width_is_usage_error(self, capsys, tmp_path,
                                                           monkeypatch):
        # a compressor for C=8 (k²C = 32) against the toy ViT's C=32 (128),
        # refused before the ViT runs
        save_compression(tmp_path, init_compression(Rng(6), toy_config(channels=8, heads=2)))
        gen = np.random.Generator(np.random.Philox(18))
        ppm = tmp_path / "img.ppm"
        write_ppm(ppm, RawImage(gen.integers(0, 256, size=(56, 56, 3), dtype=np.uint8)))
        dst = tmp_path / "out.pvct"
        forwards = []
        monkeypatch.setattr(cli, "vit_forward", lambda *a: forwards.append(a))
        code, _, err = run(capsys, "pipeline", "--toy", "--image", str(ppm), "--comp-manifest",
                           str(tmp_path / "comp.manifest"), "--output", str(dst))
        assert code == 2
        assert err == "pvc: shuffled width 128 != params 32\n"
        assert forwards == [] and not dst.exists()

    @pytest.mark.parametrize("damage", ["no_manifest", "no_w_in_entry", "w_in_1d",
                                        "w_in_truncated", "adaln_hidden_31"])
    def test_unreadable_comp_manifest_is_io_error_before_the_vit(self, capsys, tmp_path,
                                                                 monkeypatch, damage):
        # refused from the headers alone: no payload is read and the ViT never runs
        save_compression(tmp_path, init_compression(Rng(6), toy_config()))
        manifest = tmp_path / "comp.manifest"
        entries = io.read_manifest(manifest)
        w_in = tmp_path / entries["weight.w_in"]
        if damage == "no_manifest":
            manifest.unlink()
        elif damage == "no_w_in_entry":
            io.write_manifest(manifest, {k: v for k, v in entries.items()
                                         if k != "weight.w_in"})
        elif damage == "w_in_1d":
            io.write_tensor(w_in, np.zeros(128))
        elif damage == "w_in_truncated":
            w_in.write_bytes(w_in.read_bytes()[:-8])
        else:  # the toy's k²C = 128, but AdaLN's hidden width one less than its 32
            for name, arr in named_params(init_adaln(Rng(7), 128, hidden=31)):
                io.write_tensor(tmp_path / entries[f"weight.adaln.{name}"], arr)
        gen = np.random.Generator(np.random.Philox(18))
        ppm = tmp_path / "img.ppm"
        write_ppm(ppm, RawImage(gen.integers(0, 256, size=(56, 56, 3), dtype=np.uint8)))
        forwards, reads = [], []
        monkeypatch.setattr(cli, "vit_forward", lambda *a: forwards.append(a))
        monkeypatch.setattr(io, "read_tensor", lambda path: reads.append(path))
        code, _, err = run(capsys, "pipeline", "--toy", "--image", str(ppm), "--comp-manifest",
                           str(manifest), "--output", str(tmp_path / "out.pvct"))
        assert code == 3 and "I/O error" in err
        assert forwards == [] and reads == []

    @pytest.mark.parametrize("flags, message", [
        (["--image", "img.ppm", "--t-img", "0"], "argument --t-img: must be >= 1, got 0"),
        (["--video", "vid.pvct", "--frames", "0"], "argument --frames: must be >= 1, got 0"),
        (["--video", "vid.pvct", "--frames", "0", "--no-frame-bounds"],
         "argument --frames: must be >= 1, got 0"),
        (["--image", "img.ppm", "--tile-px", "56"], "unrecognized arguments: --tile-px"),
        (["--image", "img.ppm", "--max-tiles", "0"],
         "argument --max-tiles: must be >= 1, got 0")],
        ids=["t_img_0", "frames_0", "frames_0_unbounded", "tile_px", "max_tiles_0"])
    def test_zero_frames_and_removed_flag_are_usage_errors(self, capsys, tmp_path, monkeypatch,
                                                           flags, message):
        inits, reads = [], []
        monkeypatch.setattr(cli, "init_model", lambda *a: inits.append(a))
        monkeypatch.setattr(cli, "read_ppm", lambda *a: reads.append(a))
        gen = np.random.Generator(np.random.Philox(15))
        write_ppm(tmp_path / "img.ppm",
                  RawImage(gen.integers(0, 256, size=(56, 56, 3), dtype=np.uint8)))
        io.write_tensor(tmp_path / "vid.pvct",
                        gen.integers(0, 256, size=(4, 56, 56, 3)).astype(np.float64))
        argv = [str(tmp_path / f) if f in ("img.ppm", "vid.pvct") else f for f in flags]
        dst = tmp_path / "out.pvct"
        code, _, err = run(capsys, "pipeline", "--toy", *argv, "--output", str(dst))
        assert code == 2 and message in err
        assert not dst.exists()
        assert inits == [] and reads == []  # a refused flag reads no image, draws no weights


@pytest.mark.parametrize("argv", [
    ["budget", "--preset", "table4-pvc", "--reuse"],
    ["budget", "--preset", "table4-pvc", "--no-reuse"],
    ["grad-check", "--module", "adaln", "--output", "report.txt"]],
    ids=["budget_reuse", "budget_no_reuse", "grad_check_output"])
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert f"unrecognized arguments: {' '.join(argv[3:])}" in err


@pytest.mark.parametrize("argv", [
    ["compress", "--kernel", "2", "--input", "x.pvct"],
    ["pipeline", "--toy", "--image", "img.ppm"],
    ["pipeline", "--toy", "--video", "vid.pvct", "--no-frame-bounds"]],
    ids=["compress", "pipeline_image", "pipeline_video"])
def test_a_command_writes_its_output_and_no_other_file(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    gen = np.random.Generator(np.random.Philox(22))
    io.write_tensor("x.pvct", gen.normal(size=(1, 2, 16, 4)))
    write_ppm("img.ppm", RawImage(gen.integers(0, 256, (56, 56, 3), dtype=np.uint8)))
    io.write_tensor("vid.pvct", gen.integers(0, 256, (4, 56, 56, 3)).astype(float))
    code, _, err = run(capsys, *argv, "--output", "out.pvct")
    assert code == 0, err
    assert sorted(os.listdir()) == ["img.ppm", "out.pvct", "vid.pvct", "x.pvct"]


def test_negative_seed_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check-init-identity", "--seed", "-1")
    assert code == cli.EXIT_USAGE and "argument --seed: must be >= 0, got -1" in err


@pytest.mark.parametrize("argv", [
    ["forward", "--toy", "--input", "x.pvct", "--output", "o.pvct"],
    ["compress", "--kernel", "2", "--input", "x.pvct", "--output", "o.pvct"],
    ["pipeline", "--toy", "--image", "img.ppm", "--output", "o.pvct"],
    ["pipeline", "--toy", "--video", "vid.pvct", "--output", "o.pvct"],
    ["check-causality"], ["check-init-identity"], ["grad-check", "--module", "adaln"]],
    ids=["forward", "compress", "pipeline_image", "pipeline_video", "check_causality",
         "check_init_identity", "grad_check"])
def test_negative_seed_is_refused_before_any_input(capsys, tmp_path, monkeypatch, argv):
    gen = np.random.Generator(np.random.Philox(21))
    write_ppm(tmp_path / "img.ppm", RawImage(gen.integers(0, 256, (56, 56, 3), dtype=np.uint8)))
    io.write_tensor(tmp_path / "vid.pvct", gen.integers(0, 256, (16, 56, 56, 3)).astype(float))
    cfg = toy_config()
    io.write_tensor(tmp_path / "x.pvct", np.zeros((1, 2, cfg.tokens_per_frame, cfg.channels)))
    reads = []
    monkeypatch.setattr(io, "read_tensor", lambda *a: reads.append(a))
    monkeypatch.setattr(cli, "read_ppm", lambda *a: reads.append(a))
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == cli.EXIT_USAGE and reads == [] and out == ""
    assert err.endswith("error: argument --seed: must be >= 0, got -1\n")
    assert not (tmp_path / "o.pvct").exists()


def _run_capped(*argv) -> subprocess.CompletedProcess:
    """`python -m pvc.cli argv` in a child capped at 2 GiB of address space
    (set in the child alone), where any allocation of 2 GiB fails at once."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(cli.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-m", "pvc.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap, capture_output=True, text=True, timeout=120)


def test_an_allocation_past_the_address_space_is_a_clean_exit(tmp_path):
    # t_img = 1e8 frames asks for 381 GiB of tokens; the capped child's
    # allocation fails at once
    gen = np.random.Generator(np.random.Philox(19))
    write_ppm(tmp_path / "x.ppm", RawImage(gen.integers(0, 256, (56, 56, 3), dtype=np.uint8)))
    proc = _run_capped("pipeline", "--toy", "--image", tmp_path / "x.ppm",
                       "--t-img", "100000000", "--output", tmp_path / "o.pvct")
    assert proc.returncode == cli.EXIT_MEMORY, proc.stderr
    assert proc.stderr.startswith("pvc: out of memory: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_compressor_widths_from_different_files_allocate_nothing(tmp_path):
    # w_in (65536, 1) passes the width check of tokens of C = 4096 at k = 4,
    # whose compressor holds 65536 x 16384 matrices (8 GiB each), and te.w1
    # declares (256, 65536) over a sparse file. Every header is checked
    # against the template before it is allocated, so the manifest is
    # refused as malformed; the child is capped at 2 GiB of address space,
    # where allocating the template fails at once.
    save_compression(tmp_path, init_compression(Rng(4), toy_config()))
    entries = io.read_manifest(tmp_path / "comp.manifest")
    io.write_tensor(tmp_path / entries["weight.w_in"], np.zeros((65536, 1)))
    with open(tmp_path / entries["weight.te.w1"], "wb") as f:  # sparse: no payload on disk
        f.write(io.MAGIC + struct.pack("<II2Q", io.VERSION, 2, 256, 65536))
        f.truncate(f.tell() + 8 * 256 * 65536)
    io.write_tensor(tmp_path / "x.pvct", np.zeros((1, 1, 16, 4096)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pvc.cli", "compress", "--kernel", "4", "--comp-manifest",
         str(tmp_path / "comp.manifest"), "--input", str(tmp_path / "x.pvct"),
         "--output", str(tmp_path / "o.pvct")],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_IO, proc.stderr
    assert "weight adaln.w3 has shape (128, 32), expected (65536, 16384)" in proc.stderr
    assert not (tmp_path / "o.pvct").exists()


@pytest.mark.parametrize("flags, message", [
    (["forward", "--toy"], "do not match (*, *, 16, 32)"),
    (["compress", "--comp-manifest", "missing.manifest"], "missing.manifest")],
    ids=["forward", "compress"])
def test_huge_tokens_are_refused_from_their_header(tmp_path, flags, message):
    # (1, 1, 16, 2**27) tokens, 16 GiB on a sparse file: every check runs on
    # the header, so the command exits 3 without reading the payload
    src = tmp_path / "x.pvct"
    with open(src, "wb") as f:
        f.write(io.MAGIC + struct.pack("<II4Q", io.VERSION, 4, 1, 1, 16, 2 ** 27))
        f.truncate(f.tell() + 8 * 16 * 2 ** 27)
    flags = [tmp_path / f if f.endswith(".manifest") else f for f in flags]
    proc = _run_capped(*flags, "--input", src, "--output", tmp_path / "o.pvct")
    assert proc.returncode == cli.EXIT_IO, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_huge_model_config_is_refused_from_the_weight_headers(tmp_path):
    # cfg.channels = 10**9 asks for an 8 GB patch table and far larger
    # layers; the pre-flight's template holds no array, so the pipeline
    # exits 3 on the first header before anything of that size exists
    manifest = save_model(tmp_path / "model",
                          init_model(9, toy_config(layers=2, temporal_layers=1)))
    io.write_manifest(manifest, {**io.read_manifest(manifest), "cfg.channels": str(10 ** 9)})
    gen = np.random.Generator(np.random.Philox(20))
    write_ppm(tmp_path / "x.ppm", RawImage(gen.integers(0, 256, (56, 56, 3), dtype=np.uint8)))
    proc = _run_capped("pipeline", "--manifest", manifest, "--image", tmp_path / "x.ppm",
                       "--output", tmp_path / "o.pvct")
    assert proc.returncode == cli.EXIT_IO, proc.stderr
    assert "weight patch.weight has shape (588, 32), expected (588, 1000000000)" in proc.stderr


def test_readme_commands_parse():
    # every `pvc ...` line of README's command-line block, continuations
    # joined, so that a flag deleted or renamed cannot linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:]
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("pvc ")]
    assert len(commands) >= 9
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `pvc {' '.join(argv)}` does not parse")


# the bound of every integer flag, which the parser enforces
FLAG_BOUNDS = {"--seed": 0, "--kernel": 1, "--t-img": 1, "--frames": 1, "--max-tiles": 1}
SOURCE_ARGS = {"forward": ["--input", "x.pvct", "--output", "o.pvct"],
               "compress": ["--input", "x.pvct", "--output", "o.pvct"],
               "grad-check": ["--module", "adaln"],
               "pipeline": ["--video", "vid.pvct", "--output", "o.pvct"]}


def _int_flags():
    """(command, flag, action) for every integer flag of every subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action)
            for command, parser in sub.choices.items() for action in parser._actions
            if getattr(action.type, "__name__", None) == "int"]


def test_every_int_flag_is_bounded_by_the_parser():
    flags = _int_flags()
    assert {flag for _, flag, _ in flags} == set(FLAG_BOUNDS)
    for command, flag, action in flags:
        assert action.type is not int, f"pvc {command} {flag} has a bare type=int"
        assert action.type(str(FLAG_BOUNDS[flag])) == FLAG_BOUNDS[flag]


@pytest.mark.parametrize("command, flag", [(c, f) for c, f, _ in _int_flags()])
def test_one_below_a_flag_bound_is_refused_while_parsing(capsys, tmp_path, monkeypatch,
                                                         command, flag):
    reads = []
    for module, name in [(io, "read_tensor"), (io, "read_tensor_shape"),
                         (io, "read_manifest"), (cli, "read_ppm")]:
        monkeypatch.setattr(module, name, lambda *a: reads.append(a))
    value = FLAG_BOUNDS[flag] - 1
    argv = [str(tmp_path / a) if "." in a else a for a in SOURCE_ARGS.get(command, [])]
    code, out, err = run(capsys, command, *argv, flag, str(value))
    assert code == cli.EXIT_USAGE and out == "" and reads == []
    assert err.endswith(f"error: argument {flag}: must be >= {FLAG_BOUNDS[flag]}, "
                        f"got {value}\n")
