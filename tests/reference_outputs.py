"""Reference outputs of the toy model, pinned in tests/data/reference_outputs.npz.

Each case is a deterministic computation of the public API: the sinusoidal
timestamp code, `vit_forward` on a moving and on a static input with
random temporal gates, `compress` of the moving output, and the
`pvc pipeline --toy` outputs for an image and for a video.
test_reference_outputs.py recomputes every case and compares it with the
stored array.

Rewrite the file only when a change is meant to move these outputs:

    PYTHONPATH=src python tests/reference_outputs.py
"""
from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import numpy as np

from pvc import io
from pvc.cli import main
from pvc.compression import compress, init_compression
from pvc.conditioning import relative_timestamps, sinusoidal_embed
from pvc.input_pipeline import RawImage, write_ppm
from pvc.tensor import Rng
from pvc.verification import randomize_gates, toy_config
from pvc.vit import init_model, vit_forward

PATH = Path(__file__).parent / "data" / "reference_outputs.npz"


def _stack_outputs() -> dict:
    cfg = toy_config()
    model = init_model(0, cfg)
    randomize_gates(model, Rng(1))
    rng = Rng(2)
    moving = rng.normal((2, 3, cfg.tokens_per_frame, cfg.channels))
    static = np.repeat(rng.normal((1, 1, cfg.tokens_per_frame, cfg.channels)), 4, axis=1)
    moving_out = vit_forward(moving, cfg, model)
    return {"vit_forward_moving": moving_out,
            "vit_forward_static": vit_forward(static, cfg, model),
            "compress_moving": compress(moving_out, init_compression(Rng(3), cfg), cfg)}


def _pipeline(tmp: Path, *argv: str) -> np.ndarray:
    dst = tmp / "tokens.pvct"
    with open(tmp / "stdout.txt", "w") as log, contextlib.redirect_stdout(log):
        code = main(["pipeline", "--toy", *argv, "--output", str(dst)])
    if code != 0:
        raise RuntimeError(f"pvc pipeline {' '.join(argv)} exited {code}")
    return io.read_tensor(dst)


def _pipeline_outputs() -> dict:
    gen = np.random.Generator(np.random.Philox(4))
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_ppm(tmp / "img.ppm", RawImage(gen.integers(0, 256, (40, 72, 3), dtype=np.uint8)))
        io.write_tensor(tmp / "vid.pvct", gen.integers(0, 256, (24, 56, 56, 3)).astype(np.float64))
        return {"pipeline_image": _pipeline(tmp, "--image", str(tmp / "img.ppm")),
                "pipeline_video": _pipeline(tmp, "--video", str(tmp / "vid.pvct"),
                                          "--frames", "16")}


def compute() -> dict:
    """Every reference case, by name."""
    return {"sinusoidal_embed": sinusoidal_embed(relative_timestamps(4)),
            **_stack_outputs(), **_pipeline_outputs()}


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    np.savez(PATH, **compute())
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes)")
