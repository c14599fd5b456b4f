"""Standardize visual inputs as videos.

Images are repeated into static videos; native videos are uniformly
subsampled; high-resolution images are split into fixed-size tiles by
aspect ratio. Pixels stay 8-bit RGB until `vit.patchify`:
`video_to_pixel_tensor` hands it a `PixelLevels`, the levels plus the
table of their normalised values and the one pixel format patchify
takes, and patchify looks each tile up straight into patch order, so
the float64 pixels are never built.

A static video (every frame equal, as an image repeated) is held once:
its one frame is broadcast to all T frames as a read-only view whose
frame axis has stride 0. `vit.patchify` and `vit.vit_forward` read that
stride and work on the one frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Array, tiles

# ImageNet channel statistics of [0,1]-scaled RGB, the default standardization
PIXEL_MEAN = (0.485, 0.456, 0.406)
PIXEL_STD = (0.229, 0.224, 0.225)

# Frame counts `pvc pipeline` accepts for a video unless told otherwise
FRAME_BOUNDS = (16, 96)


@dataclass
class RawImage:
    pixels: np.ndarray  # uint8 [H, W, 3]

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8 [H,W,3], got {p.shape} {p.dtype}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class RawVideo:
    frames: list[RawImage]

    def __post_init__(self):
        if not self.frames:
            raise ValueError("video needs at least one frame")
        h, w = self.frames[0].height, self.frames[0].width
        for f in self.frames:
            if (f.height, f.width) != (h, w):
                raise ValueError("all frames must share dimensions")

    @property
    def frame_count(self) -> int:
        return len(self.frames)


def read_ppm(path) -> RawImage:
    """Read a binary PPM (P6, maxval 255)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise IOError(f"{path}: not a P6 PPM")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        field = data[start:pos]
        if not field.isdigit() or int(field) == 0:
            raise IOError(f"{path}: bad PPM header field {field!r}")
        fields.append(int(field))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise IOError(f"{path}: only maxval 255 supported, got {maxval}")
    payload = data[pos:pos + 3 * w * h]
    if len(payload) != 3 * w * h:
        raise IOError(f"{path}: truncated pixel data")
    return RawImage(np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).copy())


def write_ppm(path, img: RawImage) -> None:
    with open(path, "wb") as f:
        f.write(f"P6\n{img.width} {img.height}\n255\n".encode())
        f.write(img.pixels.tobytes())


def image_to_static_video(img: RawImage, t_img: int) -> RawVideo:
    """Repeat one image t_img times into a static video; its frames are
    one copy of the image."""
    if t_img < 1:
        raise ValueError(f"t_img must be >= 1, got {t_img}")
    return RawVideo(frames=[RawImage(img.pixels.copy())] * t_img)


def sample_indices(l: int, t: int) -> list[int]:
    """The t of l frame indices that sample_frames keeps."""
    if t < 1:
        raise ValueError(f"frame count must be >= 1, got {t}")
    if t > l:
        raise ValueError(f"cannot sample {t} frames from a {l}-frame video")
    if t == 1:
        return [0]
    return [int(np.floor(i * (l - 1) / (t - 1) + 0.5)) for i in range(t)]


def sample_frames(v: RawVideo, t: int) -> RawVideo:
    """Uniformly sample t frames: idx_i = round(i*(L-1)/(t-1)), half up.

    Endpoints are always included for t >= 2. Asking for more frames than
    exist is an error; frames are never duplicated.
    """
    return RawVideo(frames=[v.frames[i] for i in sample_indices(v.frame_count, t)])


def select_tile_grid(width: int, height: int, max_tiles: int) -> tuple[int, int]:
    """Pick the (rows, cols) grid with r*c <= max_tiles whose aspect c/r is
    closest to the image's; ties go to fewer tiles, then wider grids."""
    if max_tiles < 1:
        raise ValueError(f"max_tiles must be >= 1, got {max_tiles}")
    aspect = width / height
    best = None
    for r in range(1, max_tiles + 1):
        cap, lo = max_tiles // r, width * r // height  # lo = floor(aspect * r)
        # for this r, the c/r closest to the aspect has c = lo or lo + 1, within [1, cap]
        for c in {max(min(lo, cap), 1), min(lo + 1, cap)}:
            key = (abs(c / r - aspect), r * c, -c)
            if best is None or key < best[0]:
                best = (key, (r, c))
        if cap * height <= width * r:
            # the cap binds: each later r has c/r <= cap'/r' < cap/r <= aspect, further off
            break
    return best[1]


def bilinear_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample uint8 [H,W,3] with half-pixel-centered sampling.

    The output is built in tiles of its rows (`tensor.tiles`): a tile
    resamples each source row it reads along x once, then blends two of
    those along y, so only a tile's rows are ever held in float64.
    """
    h, w, _ = pixels.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    out = np.empty((out_h, out_w, 3), np.uint8)
    # a tile reads up to two source rows per output row
    for (rows,) in tiles((out_h,), 2 * 3 * out_w):
        n = rows.stop - rows.start
        used, pos = np.unique(np.concatenate([y0[rows], y1[rows]]), return_inverse=True)
        # uint8 times float64 converts each level to float64 exactly
        src = pixels[used]
        line = src[:, x0] * (1 - wx)
        line += src[:, x1] * wx
        top = line[pos[:n]]
        top *= 1 - wy[rows]
        bottom = line[pos[n:]]
        bottom *= wy[rows]
        top += bottom
        out[rows] = np.clip(np.rint(top, out=top), 0, 255, out=top)
    return out


def dynamic_tile(img: RawImage, tile_px: int,
                 max_tiles: int) -> tuple[list[RawImage], tuple[int, int]]:
    """Resize to the chosen grid and split into tile_px-square tiles.

    Returns (tiles in row-major order, (rows, cols)). Stacking the tiles
    back on the grid reconstructs the resized image bitwise.
    """
    rows, cols = select_tile_grid(img.width, img.height, max_tiles)
    resized = bilinear_resize(img.pixels, rows * tile_px, cols * tile_px)
    tiles = []
    for r in range(rows):
        for c in range(cols):
            tiles.append(RawImage(resized[r * tile_px:(r + 1) * tile_px,
                                          c * tile_px:(c + 1) * tile_px].copy()))
    return tiles, (rows, cols)


@dataclass(frozen=True)
class PixelLevels:
    """Normalised pixels [B, T, H, W, 3] held as their 8-bit levels.

    `levels` is uint8 [B, T, H, W, 3] and `table` the float64 [256, 3]
    normalised value of each level per channel (`level_table`): pixel
    (b, t, y, x, c) is table[levels[b, t, y, x, c], c]. A static video
    keeps its stride-0 frame axis on `levels`. `vit.patchify` looks the
    values up a tile at a time, so they are never held whole.
    """
    levels: np.ndarray
    table: Array

    def __post_init__(self):
        lv, tb = self.levels, self.table
        if (lv.dtype != np.uint8 or lv.ndim != 5 or lv.shape[-1] != 3
                or tb.shape != (256, 3) or tb.dtype != np.float64):
            raise ValueError(f"need uint8 levels [B,T,H,W,3] and a float64 [256,3] table, "
                             f"got {lv.dtype} {lv.shape} and {tb.dtype} {tb.shape}")

    def values(self, levels: np.ndarray) -> Array:
        """The float64 values of `levels`, uint8 [..., M, 3] taken from
        `self.levels` in any order or strides (a tile, say), C-contiguous
        in the index order of `levels`.

        The lookup gathers from the flattened table at level*3 + channel;
        the channel offsets are added over whole [M, 3] rows, since a
        length-3 inner loop is several times slower.
        """
        idx = np.multiply(levels, 3, dtype=np.intp, order="C")
        rows = idx.reshape(-1, 3 * levels.shape[-2])  # a view: idx is contiguous
        rows += np.tile(np.arange(3), levels.shape[-2])
        # uint8 levels index at most 3 * 255 + 2, so no index is clipped
        return np.take(self.table.ravel(), idx, mode="clip")


def level_table(mean=PIXEL_MEAN, std=PIXEL_STD) -> Array:
    """float64 [256, 3]: each 8-bit level scaled to [0,1], then
    channel-standardized."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    return (np.arange(256.0)[:, None] / 255.0 - mean) / std


def video_to_pixel_tensor(v: RawVideo, mean=PIXEL_MEAN, std=PIXEL_STD) -> PixelLevels:
    """The [1, T, H, W, 3] normalised pixels of v for patchify, held as
    8-bit levels. When every frame's pixels equal frame 0's, frame 0's
    pixels broadcast to all T frames: a read-only view whose frame axis
    has stride 0. The comparison stops at the first frame that differs."""
    first = v.frames[0].pixels
    if all(np.array_equal(im.pixels, first) for im in v.frames[1:]):
        levels = np.broadcast_to(first, (len(v.frames), *first.shape))
    else:
        levels = np.stack([im.pixels for im in v.frames])
    return PixelLevels(levels[None], level_table(mean, std))
