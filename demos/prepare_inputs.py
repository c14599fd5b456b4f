"""From raw pixels to model-ready tensors.

Images and videos share one path: an image becomes a short static video
(the same frame repeated), a video is sampled down to a bounded frame
count. High-resolution images are first split into fixed-size tiles
picked by aspect ratio.
"""
import numpy as np

from pvc.input_pipeline import (
    RawImage,
    RawVideo,
    dynamic_tile,
    image_to_static_video,
    sample_frames,
    video_to_pixel_tensor,
)


def fake_image(seed, h, w):
    gen = np.random.Generator(np.random.Philox(seed))
    return RawImage(gen.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def main():
    # 1. tiling: a 2:3 image at tile size 448
    img = fake_image(0, 896, 1344)
    tiles, grid = dynamic_tile(img, 448, max_tiles=12)
    print(f"{img.pixels.shape[0]}x{img.pixels.shape[1]} image -> "
          f"{grid[0]}x{grid[1]} grid, {len(tiles)} tiles of 448x448")

    # 2. an image becomes a 4-frame static video
    video = image_to_static_video(tiles[0], 4)
    print(f"tile 0 repeated: {video.frame_count} frames")

    # 3. a long video is sampled uniformly, endpoints always kept
    long = RawVideo(frames=[fake_image(i, 64, 64) for i in range(50)])
    short = sample_frames(long, 16)
    picked = [next(i for i, f in enumerate(long.frames) if f is g)
              for g in short.frames]
    print(f"50 frames sampled to 16: indices {picked}")

    # 4. pixels stay 8-bit levels, with the table of their normalized values
    pixels = video_to_pixel_tensor(video)
    held_once = pixels.levels.strides[1] == 0
    print(f"pixel levels: shape {pixels.levels.shape} {pixels.levels.dtype}, "
          f"frame axis held once: {held_once}, "
          f"values in [{pixels.table.min():+.3f}, {pixels.table.max():+.3f}]")


if __name__ == "__main__":
    main()
