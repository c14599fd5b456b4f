"""The benchmark's workloads: seeded inputs, set-up, one request, checks.

Every workload calls the library through module attributes
(`vit.vit_forward`, not a name bound at import), so the span tracer in
`spans.py` sees each call when it rebinds those attributes.

Geometry. Per layer the encode workloads keep ViT-L/14's patch (14), head
width (64), FFN ratio (4x), token counts (N=1024 per 448 px frame, 256
per 224 px frame), compression kernel (k=4, 256 output tokens) and the
`table4-pvc` compressor ratios (AdaLN/TE/MLP hidden = k^2*C/4), at a
quarter of ViT-L's width: C=256, 4 heads, FFN 1024, compressor hidden
1024. The stack has 3 layers, 2 plain then 1 temporal, the paper's 16:8
ratio. At full ViT-L width one request takes about 16 s and set-up about
11 s at 3 GB, which leaves too few samples per run for a steady median.
Cost is linear in depth; projection and FFN FLOPs grow with C^2 and
attention scores with C, which `pvc.budget` accounts for.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pvc import budget, compression, conditioning, input_pipeline, io, tensor, verification, vit

# Frame 0 of a T-frame encode must equal a 1-frame encode of frame 0: the
# temporal attention is causal and both see timestamp 0. Only BLAS blocking
# differs between the two batch shapes; the gap measured is about 1e-15.
PREFIX_RTOL = 1e-12

GATE_STD = 0.5


@dataclass(frozen=True)
class Geometry:
    channels: int
    heads: int
    ffn: int
    layers: int
    temporal_layers: int
    kernel: int
    comp_hidden: int        # compressor AdaLN, TE and MLP hidden width, and output width
    image_src: tuple        # (width, height) of the seeded source image
    tile_px: int
    t_img: int
    video_px: int
    video_len: int
    video_frames: int


BENCH = Geometry(channels=256, heads=4, ffn=1024, layers=3, temporal_layers=1,
                 kernel=4, comp_hidden=1024, image_src=(640, 480), tile_px=448,
                 t_img=4, video_px=224, video_len=64, video_frames=16)
TOY = Geometry(channels=32, heads=4, ffn=64, layers=3, temporal_layers=1,
               kernel=2, comp_hidden=64, image_src=(80, 60), tile_px=56,
               t_img=4, video_px=28, video_len=8, video_frames=4)


class EncodeWorkload:
    """image_static or video_dynamic: pixels -> ViT -> compress -> PVCT file."""

    def __init__(self, kind: str, geo: Geometry, seed: int, out_dir: Path):
        self.kind, self.geo, self.seed = kind, geo, seed
        px = geo.tile_px if kind == "image_static" else geo.video_px
        self.cfg = vit.PvcConfig(
            image_size=px, channels=geo.channels, heads=geo.heads,
            ffn_dim=geo.ffn, layers=geo.layers,
            temporal_layers=geo.temporal_layers, shuffle_kernel=geo.kernel,
            t_img=geo.t_img)
        frames = geo.t_img if kind == "image_static" else geo.video_frames
        self.out_shape = (1, frames, self.cfg.compressed_tokens, geo.comp_hidden)
        self.out_path = out_dir / f"{kind}-{seed}.pvct"
        self.ppm_path = None
        rng = np.random.default_rng(seed)
        if kind == "image_static":
            w, h = geo.image_src
            self.ppm_path = out_dir / f"{kind}-{seed}.ppm"
            pixels = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            self.ppm_path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes())
        else:
            # a texture sliding 2 px per frame: every frame differs
            p, n = geo.video_px, geo.video_len
            base = rng.integers(0, 256, (p, p + 2 * n, 3), dtype=np.uint8)
            self.video = input_pipeline.RawVideo(
                [input_pipeline.RawImage(base[:, 2 * i:2 * i + p].copy())
                 for i in range(n)])
        self.model = self.comp = None

    def arch_spec(self) -> budget.ArchSpec:
        cfg, h = self.cfg, self.geo.comp_hidden
        return budget.ArchSpec(
            vit=budget.VitSpec(layers=cfg.layers, temporal_layers=cfg.temporal_layers,
                               hidden=cfg.channels, heads=cfg.heads, ffn=cfg.ffn_dim,
                               patch=cfg.patch_size, image_size=cfg.image_size,
                               adaln_hidden=cfg.channels, te_hidden=cfg.channels),
            compression=budget.CompressionSpec(kernel=cfg.shuffle_kernel,
                                               mlp_hidden=h, out_dim=h,
                                               adaln_hidden=h, te_hidden=h),
            flops_per_mac=2.0)

    def flops(self) -> dict:
        """Analytic FLOPs per request by stage: vit_plain, vit_temporal, compression."""
        if self.kind == "image_static":
            work = budget.WorkloadSpec(kind="image", t_img=self.geo.t_img, tiles=1)
        else:
            work = budget.WorkloadSpec(kind="video", frames=self.geo.video_frames)
        stages = budget.estimate_flops(work, self.arch_spec(), reuse=False).stages
        return {k: v for k, v in stages.items() if k != "llm_prefill"}

    def setup(self) -> None:
        """Build the model, with nonzero temporal gates, and the compressor.

        The compressor is assembled from the public init_adaln and
        init_temporal_embedding because init_compression cannot set their
        hidden widths apart from k^2*C.
        """
        self.model = self.comp = None
        cfg, h = self.cfg, self.geo.comp_hidden
        self.model = vit.init_model(self.seed, cfg)
        rng = tensor.Rng(self.seed + 1)
        verification.randomize_gates(self.model, rng, GATE_STD)
        wide = cfg.shuffle_kernel ** 2 * cfg.channels
        self.comp = compression.CompressionParams(
            adaln=conditioning.init_adaln(rng, wide, hidden=h),
            te=conditioning.init_temporal_embedding(rng, wide, hidden=h),
            w_in=rng.normal((wide, h), vit.NEW_WEIGHT_STD), b_in=np.zeros(h),
            w_out=rng.normal((h, h), vit.NEW_WEIGHT_STD), b_out=np.zeros(h))

    def _frames(self) -> input_pipeline.RawVideo:
        if self.kind == "image_static":
            img = input_pipeline.read_ppm(self.ppm_path)
            tiles, _ = input_pipeline.dynamic_tile(img, self.geo.tile_px, max_tiles=1)
            return input_pipeline.image_to_static_video(tiles[0], self.geo.t_img)
        return input_pipeline.sample_frames(self.video, self.geo.video_frames)

    def _encode(self, frames: input_pipeline.RawVideo) -> np.ndarray:
        cfg = self.cfg
        pixels = input_pipeline.video_to_pixel_tensor(frames, cfg.pixel_mean, cfg.pixel_std)
        tokens = vit.patchify(pixels, cfg, self.model.patch)
        encoded = vit.vit_forward(tokens, cfg, self.model)
        return compression.compress(encoded, self.comp, cfg)

    def request(self) -> np.ndarray:
        out = self._encode(self._frames())
        io.write_tensor(self.out_path, out)
        return out

    def output_ok(self, out) -> bool:
        return out.shape == self.out_shape and bool(np.all(np.isfinite(out)))

    def prefix_check(self) -> tuple[bool, float]:
        """Frame 0 of the full encode vs a 1-frame encode of frame 0."""
        frames = self._frames()
        full = self._encode(frames)
        first = self._encode(input_pipeline.RawVideo(frames.frames[:1]))
        scale = float(np.max(np.abs(full[0, 0])))
        rel = float(np.max(np.abs(full[0, 0] - first[0, 0]))) / scale
        return self.output_ok(full) and rel <= PREFIX_RTOL, rel

    def cleanup(self) -> None:
        for path in (self.out_path, self.ppm_path):
            if path is not None:
                path.unlink(missing_ok=True)


class ChecksPass:
    """One pass of the library's own checks: every grad check, causality
    and init identity at the workload seed, on the library's toy geometry.

    The traced run of each encode workload ends with one traced pass, so
    the verification layer is measured from outside too.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def request(self) -> bool:
        passed = [verification.run_grad_check(m, self.seed).passed
                  for m in verification.CHECKED_MODULES]
        passed.append(verification.check_causality(self.seed)[0])
        passed.append(verification.check_init_identity(self.seed)[0])
        return all(passed)

    def output_ok(self, out) -> bool:
        return out is True
