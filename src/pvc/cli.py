"""Command-line entry point.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 non-finite value (NaN or Inf) in a computation, 5 out of memory.
Every seeded command takes --seed, which defaults to 0.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io, model_store
from .budget import (
    PRESET_NAMES,
    compare_strategies,
    estimate_flops,
    preset,
    specs_from_entries,
)
from .compression import compress, init_compression
from .input_pipeline import (
    FRAME_BOUNDS,
    dynamic_tile,
    level_table,
    read_ppm,
    sample_indices,
    video_to_pixel_tensor,
    PixelLevels,
    RawImage,
    RawVideo,
)
from .tensor import NonFiniteError, Rng
from .verification import (
    CHECKED_MODULES,
    check_causality,
    check_init_identity,
    run_grad_check,
    toy_config,
)
from .vit import PvcConfig, build_model, init_model, patchify, vit_forward

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONFINITE = 4
EXIT_MEMORY = 5


def _config(args) -> PvcConfig:
    """The config, from --manifest (no weight is read), --toy or the default."""
    if args.manifest:
        return model_store.load_config(args.manifest)
    return toy_config() if args.toy else PvcConfig()


def _load_or_init_model(args, cfg: PvcConfig):
    if args.manifest:
        return model_store.load_model(args.manifest)
    return init_model(args.seed, cfg)


def _check_manifests(args, cfg: PvcConfig) -> None:
    """The pre-flight of --manifest and --comp-manifest (model_store.check_manifest),
    run before any payload is read, any weight is drawn or any layer runs."""
    if getattr(args, "manifest", None):
        model_store.check_manifest(lambda draws: build_model(draws, cfg), args.manifest)
    if getattr(args, "comp_manifest", None):
        model_store.check_manifest(lambda draws: init_compression(draws, cfg),
                                   args.comp_manifest)


def _header(path, expected: tuple) -> tuple[int, ...]:
    """The extents of a PVCT file, from its header alone, matched against
    `expected`, in which None is any extent."""
    shape = io.read_tensor_shape(path)
    if len(shape) != len(expected) or any(e not in (None, s) for s, e in zip(shape, expected)):
        want = ", ".join("*" if e is None else str(e) for e in expected)
        raise io.PvctError(f"{path}: extents {shape} do not match ({want})")
    return shape


def _load_or_init_compression(args, cfg: PvcConfig, seed: int):
    if args.comp_manifest:
        return model_store.load_compression(args.comp_manifest, cfg)
    return init_compression(Rng(seed), cfg)


def _cmd_forward(args) -> int:
    cfg = _config(args)
    _header(args.input, (None, None, cfg.tokens_per_frame, cfg.channels))
    _check_manifests(args, cfg)
    x = io.read_tensor(args.input)
    out = vit_forward(x, cfg, _load_or_init_model(args, cfg))
    io.write_tensor(args.output, out)
    print(f"forward: wrote {args.output} shape={out.shape}")
    return EXIT_OK


def _cmd_compress(args) -> int:
    _, _, n, c = _header(args.input, (None,) * 4)
    # geometry comes from the tokens themselves; only the kernel matters
    cfg = _compress_config(n, c, args.kernel)
    _check_manifests(args, cfg)
    x = io.read_tensor(args.input)
    out = compress(x, _load_or_init_compression(args, cfg, args.seed), cfg)
    io.write_tensor(args.output, out)
    print(f"compress: wrote {args.output} shape={out.shape}")
    return EXIT_OK


def _compress_config(n: int, c: int, k: int) -> PvcConfig:
    side = int(round(np.sqrt(n)))
    if side < 1 or side * side != n:
        raise io.PvctError(f"token count {n} is not a square grid of at least one token")
    # synthesize a config matching the token geometry
    return PvcConfig(image_size=side, patch_size=1, channels=c, heads=1,
                     ffn_dim=c, layers=1, temporal_layers=0,
                     shuffle_kernel=k)


def _cmd_check_causality(args) -> int:
    passed, details = check_causality(args.seed)
    print(f"check = causality\nseed = {args.seed}")
    print(f"forward_leak = {details['forward_leak']:.3e}")
    print(f"grad_leak = {details['grad_leak']:.3e}")
    print(f"result = {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_check_init_identity(args) -> int:
    passed, diff = check_init_identity(args.seed)
    print(f"check = init-identity\nseed = {args.seed}")
    print(f"max_abs_diff = {diff:.3e}")
    print(f"result = {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_grad_check(args) -> int:
    report = run_grad_check(args.module, args.seed)
    print(report.format_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_budget(args) -> int:
    # the forward always holds a static image's repeats once, so the saving is counted
    name = args.preset or "config"
    arch, work = (preset(name) if args.preset
                  else specs_from_entries(io.read_manifest(args.config)))
    report = estimate_flops(work, arch, reuse=True)
    lines = [f"preset = {name}" if args.preset
             else f"visual_tokens_per_frame = {report.tokens_per_frame}",
             report.format_text()]
    if args.compare_baseline:
        b_arch, b_work = preset(args.compare_baseline)
        base = estimate_flops(b_work, b_arch, reuse=True)
        lines.append(compare_strategies([base, report],
                                        names=[args.compare_baseline, name]).format_text())
    print("\n".join(lines))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = _config(args)
    _check_manifests(args, cfg)  # checked before the input is read, loaded after it
    if args.image:
        t_img = cfg.t_img if args.t_img is None else args.t_img
        tiles, grid = dynamic_tile(read_ppm(args.image), cfg.image_size, args.max_tiles)
        # tiles ride the batch axis; every tile of a frame shares its timestamp.
        # Each tile's 8-bit levels are held once across its t_img frames.
        levels = np.stack([tile.pixels for tile in tiles])[:, None]  # [tiles, 1, H, W, 3]
        pixels = PixelLevels(np.broadcast_to(levels, (len(tiles), t_img, *levels.shape[2:])),
                             level_table())
        print(f"pipeline: {len(tiles)} tile(s), grid {grid[0]}x{grid[1]}, "
              f"t_img={t_img}")
    else:
        s = cfg.image_size
        shape = _header(args.video, (None, s, s, 3))  # the frame count, before the payload
        t = shape[0] if args.frames is None else args.frames
        lo, hi = FRAME_BOUNDS
        if not args.no_frame_bounds and not lo <= t <= hi:
            raise ValueError(f"frame count {t} outside validated bounds [{lo}, {hi}] "
                             "(use --no-frame-bounds to override)")
        kept = sample_indices(shape[0], t)
        frames_arr = io.read_tensor(args.video)
        if not np.all(np.isfinite(frames_arr)):
            raise NonFiniteError(f"{args.video}: frames contain NaN or Inf")
        sampled = RawVideo(frames=[RawImage(np.clip(frames_arr[i], 0, 255).astype(np.uint8))
                                   for i in kept])
        pixels = video_to_pixel_tensor(sampled)
        del frames_arr, sampled  # the source video, no longer needed
        print(f"pipeline: video, {t} sampled frame(s)")

    model = _load_or_init_model(args, cfg)
    x = vit_forward(patchify(pixels, cfg, model.patch), cfg, model)
    del model, pixels  # the ViT weights go before the compressor's are loaded or built
    out = compress(x, _load_or_init_compression(args, cfg, args.seed + 1), cfg)
    io.write_tensor(args.output, out)
    print(f"pipeline: wrote {args.output} shape={out.shape} "
          f"({out.shape[0] * out.shape[1] * out.shape[2]} visual tokens)")
    return EXIT_OK


def _at_least(lo: int):
    """An argparse type: an int of at least `lo`, refused while parsing."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" for a non-integer
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pvc",
        description="Progressive visual token compression: forwards, "
                    "checks, and budget accounting")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (default: 0)")

    p = sub.add_parser("forward", help="run the ViT stack on PVCT tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", help="model manifest (else init from seed)")
    p.add_argument("--toy", action="store_true", help="toy-scale config")
    add_seed(p)
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("compress", help="compress PVCT tokens N -> N/k^2")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kernel", type=_at_least(1), default=4)
    p.add_argument("--comp-manifest", help="compression weights manifest")
    add_seed(p)
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("check-causality", help="frame causality, forward and grad")
    add_seed(p)
    p.set_defaults(fn=_cmd_check_causality)

    p = sub.add_parser("check-init-identity",
                       help="zero-gate stack equals plain per-frame ViT")
    add_seed(p)
    p.set_defaults(fn=_cmd_check_init_identity)

    p = sub.add_parser("grad-check", help="analytic backward vs finite differences")
    p.add_argument("--module", required=True, choices=CHECKED_MODULES)
    add_seed(p)
    p.set_defaults(fn=_cmd_grad_check)

    p = sub.add_parser("budget", help="token/FLOPs accounting")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--config", help="flat key=value arch/workload file")
    p.add_argument("--compare-baseline", choices=PRESET_NAMES,
                   help="also print a comparison against this preset")
    p.set_defaults(fn=_cmd_budget)

    p = sub.add_parser("pipeline",
                       help="image/video -> tiles -> ViT -> compressed tokens")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--image", help="PPM (P6) image")
    src.add_argument("--video", help="PVCT frame stack [T,H,W,3]")
    p.add_argument("--t-img", type=_at_least(1), default=None)
    p.add_argument("--frames", type=_at_least(1), default=None)
    p.add_argument("--max-tiles", type=_at_least(1), default=12)
    p.add_argument("--no-frame-bounds", action="store_true")
    p.add_argument("--manifest", help="model manifest (else init from seed)")
    p.add_argument("--comp-manifest",
                   help="compression weights manifest (else init from seed + 1)")
    p.add_argument("--toy", action="store_true", help="toy-scale config")
    p.add_argument("--output", required=True)
    add_seed(p)
    p.set_defaults(fn=_cmd_pipeline)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except OSError as e:
        print(f"pvc: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteError as e:
        print(f"pvc: non-finite value: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    except ValueError as e:
        print(f"pvc: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"pvc: out of memory: {e}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
