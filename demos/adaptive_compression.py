"""Token compression with timestamp conditioning.

A frame of N patch tokens is folded k x k -> 1 by channel concatenation
and passed through a small MLP whose normalization is conditioned on the
frame timestamp. The interesting consequence: a video of identical
frames still compresses to distinct per-frame tokens, because each
frame knows where it sits in time.
"""
import numpy as np

from pvc.compression import compress, init_compression, pixel_shuffle, pixel_unshuffle
from pvc.tensor import Rng
from pvc.verification import toy_config


def main():
    cfg = toy_config()
    rng = Rng(0)
    n, k = cfg.tokens_per_frame, cfg.shuffle_kernel
    print(f"{n} tokens/frame, kernel {k} -> {n // k ** 2} tokens/frame "
          f"({k * k}x fewer)")

    # the fold is lossless: unshuffle reconstructs the input bitwise
    x = rng.normal((1, 2, n, cfg.channels))
    folded = pixel_shuffle(x, k)
    print(f"fold:   {x.shape} -> {folded.shape}")
    print(f"unfold reconstructs input bitwise: "
          f"{np.array_equal(pixel_unshuffle(folded, k), x)}")

    # static video: four copies of one frame
    params = init_compression(rng, cfg)
    frame = rng.normal((1, 1, n, cfg.channels))
    static = np.repeat(frame, 4, axis=1)
    out = compress(static, params, cfg)

    print("\nstatic 4-frame video, pairwise output distances:")
    for a in range(4):
        row = "  " + " ".join(
            f"{np.linalg.norm(out[0, a] - out[0, b]):9.4f}" for b in range(4))
        print(row)

    # kill the conditioning and the frames collapse to one output
    for w in (params.adaln.w3, params.adaln.w4, params.adaln.w5, params.adaln.w6):
        w[...] = 0.0
    out = compress(static, params, cfg)
    same = all(np.array_equal(out[:, 0], out[:, j]) for j in range(1, 4))
    print(f"\nwith conditioning zeroed, all frames identical: {same}")


if __name__ == "__main__":
    main()
