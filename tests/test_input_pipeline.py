import tracemalloc

import numpy as np
import pytest

from pvc.input_pipeline import (
    PIXEL_MEAN,
    PIXEL_STD,
    PixelLevels,
    RawImage,
    RawVideo,
    bilinear_resize,
    dynamic_tile,
    image_to_static_video,
    level_table,
    read_ppm,
    sample_frames,
    sample_indices,
    select_tile_grid,
    video_to_pixel_tensor,
    write_ppm,
)
from pvc import tensor
from pvc.tensor import Rng


def rand_image(seed, h, w):
    gen = np.random.Generator(np.random.Philox(seed))
    return RawImage(gen.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def reference_resize(pixels, out_h, out_w):
    """Bilinear resize that blends four full-size gathers per output pixel."""
    h, w, _ = pixels.shape
    src = pixels.astype(np.float64)
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy, wx = (ys - y0)[:, None, None], (xs - x0)[None, :, None]
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    return np.clip(np.rint(top * (1 - wy) + bot * wy), 0, 255).astype(np.uint8)


def reference_normalize(pixels, mean, std):
    x = pixels.astype(np.float64) / 255.0
    return (x - np.asarray(mean, dtype=np.float64)) / np.asarray(std, dtype=np.float64)


class TestStaticVideo:
    def test_default_repeat(self):
        img = rand_image(1, 8, 8)
        v = image_to_static_video(img, 4)
        assert v.frame_count == 4
        # one copy of the image, not the caller's, holds every frame
        assert v.frames[0].pixels is not img.pixels
        assert np.array_equal(v.frames[0].pixels, img.pixels)
        assert all(f.pixels is v.frames[0].pixels for f in v.frames[1:])

    def test_singleton(self):
        v = image_to_static_video(rand_image(2, 4, 4), 1)
        assert v.frame_count == 1

    def test_zero_repeat_error(self):
        with pytest.raises(ValueError):
            image_to_static_video(rand_image(3, 4, 4), 0)


class TestSampleFrames:
    def _video(self, n):
        return RawVideo(frames=[rand_image(i, 4, 4) for i in range(n)])

    def test_all_frames(self):
        v = self._video(96)
        out = sample_frames(v, 96)
        for a, b in zip(out.frames, v.frames):
            assert a is b

    def test_rounding_convention(self):
        v = self._video(10)
        out = sample_frames(v, 5)
        picked = [id(f) for f in out.frames]
        expect = [id(v.frames[i]) for i in (0, 2, 5, 7, 9)]
        assert picked == expect

    def test_endpoints_included_and_increasing(self):
        v = self._video(17)
        by_id = {id(f): i for i, f in enumerate(v.frames)}
        for t in (2, 3, 7, 17):
            out = sample_frames(v, t)
            ids = [by_id[id(f)] for f in out.frames]
            assert ids[0] == 0 and ids[-1] == 16
            assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_one_frame_is_the_first(self):
        for length in (1, 2, 17):
            assert sample_indices(length, 1) == [0]

    def test_oversampling_is_error(self):
        with pytest.raises(ValueError):
            sample_frames(self._video(5), 6)
        with pytest.raises(ValueError):
            sample_frames(self._video(5), 0)


class TestDynamicTile:
    def test_square_image_single_tile(self):
        tiles, grid = dynamic_tile(rand_image(4, 448, 448), 448, 12)
        assert grid == (1, 1) and len(tiles) == 1

    def test_wide_image_two_tiles(self):
        tiles, grid = dynamic_tile(rand_image(5, 448, 896), 448, 12)
        assert grid == (1, 2) and len(tiles) == 2

    def test_aspect_1_5_six_tiles(self):
        tiles, grid = dynamic_tile(rand_image(6, 896, 1344), 448, 12)
        assert grid == (2, 3) and len(tiles) == 6

    def test_grid_enumeration_oracle(self):
        for (h, w) in [(448, 448), (448, 896), (896, 1344), (300, 1000),
                       (1000, 300), (500, 700)]:
            rows, cols = select_tile_grid(w, h, 12)
            assert rows * cols <= 12
            aspect = w / h
            best = min(((abs(c / r - aspect), r * c, -c), (r, c))
                       for r in range(1, 13) for c in range(1, 12 // r + 1))
            assert (rows, cols) == best[1]

    def test_reassembly_bitwise(self):
        img = rand_image(7, 300, 500)
        tiles, (rows, cols) = dynamic_tile(img, 64, 12)
        resized = bilinear_resize(img.pixels, rows * 64, cols * 64)
        rebuilt = np.vstack([
            np.hstack([tiles[r * cols + c].pixels for c in range(cols)])
            for r in range(rows)
        ])
        assert np.array_equal(rebuilt, resized)

    def test_never_exceeds_max_tiles(self):
        for mt in (1, 2, 5, 12):
            tiles, _ = dynamic_tile(rand_image(8, 123, 987), 32, mt)
            assert len(tiles) <= mt


@pytest.mark.parametrize("h, w, out_h, out_w", [
    (1, 1, 1, 1), (1, 1, 5, 7), (7, 3, 2, 9), (9, 13, 31, 1), (2, 2, 1, 1),
    (5, 5, 5, 5), (33, 17, 13, 29), (60, 80, 56, 56), (3, 101, 8, 7)])
def test_bilinear_resize_matches_reference_bitwise(h, w, out_h, out_w):
    pixels = rand_image(h * 131 + w, h, w).pixels
    out = bilinear_resize(pixels, out_h, out_w)
    assert out.shape == (out_h, out_w, 3) and out.dtype == np.uint8
    assert np.array_equal(out, reference_resize(pixels, out_h, out_w))


@pytest.mark.parametrize("chunk", [1, 1000])
@pytest.mark.parametrize("h, w, out_h, out_w", [
    (1, 1, 1, 1), (1, 1, 6, 5), (7, 3, 2, 9), (33, 17, 13, 29), (24, 40, 61, 37)])
def test_bilinear_resize_row_tiles_match_reference_bitwise(monkeypatch, chunk, h, w,
                                                           out_h, out_w):
    # one output row a tile, then a few (the default bound is one tile at these sizes)
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
    pixels = rand_image(h * 7 + w, h, w).pixels
    assert np.array_equal(bilinear_resize(pixels, out_h, out_w),
                          reference_resize(pixels, out_h, out_w))


def test_bilinear_resize_holds_its_output_and_a_few_tiles():
    # 640x480 into 12 tiles of 448 px: the uint8 output is 7.2 MB; the
    # whole-image float64 blend peaked at 201.6 MB
    pixels = rand_image(3, 480, 640).pixels
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = bilinear_resize(pixels, 3 * 448, 4 * 448)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert peak < out.nbytes + 3 * tensor.CHUNK_ELEMENTS * 8  # a tile blends 2 MB arrays


def looked_up(frames, mean=PIXEL_MEAN, std=PIXEL_STD):
    """`video_to_pixel_tensor` of uint8 frames [T, H, W, 3], and its float64
    pixels [T, H, W, 3] looked up whole."""
    pixels = video_to_pixel_tensor(RawVideo([RawImage(p) for p in frames]), mean, std)
    return pixels, pixels.values(pixels.levels)[0]


class TestNormalize:
    """Normalisation as `video_to_pixel_tensor`'s levels and table give it."""

    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (2, 7, 5, 3), (3, 13, 1, 3)])
    def test_matches_reference_bitwise(self, shape):
        gen = np.random.Generator(np.random.Philox(sum(shape)))
        pixels = gen.integers(0, 256, size=shape, dtype=np.uint8)
        pixels.flat[:2] = (0, 255)
        for mean, std in (((0.485, 0.456, 0.406), (0.229, 0.224, 0.225)),
                          ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))):
            _, out = looked_up(pixels, mean=mean, std=std)
            assert np.array_equal(out, reference_normalize(pixels, mean, std))

    def test_equal_frames_are_held_once(self):
        frame = rand_image(60, 7, 5).pixels
        pixels, out = looked_up([frame.copy() for _ in range(4)])
        assert pixels.levels.shape == (1, 4, 7, 5, 3)
        assert pixels.levels.strides[1] == 0 and not pixels.levels.flags.writeable
        want = reference_normalize(np.stack([frame] * 4), PIXEL_MEAN, PIXEL_STD)
        assert np.array_equal(out, want)

    def test_last_frame_differs_converts_every_frame(self):
        frames = np.stack([rand_image(61, 7, 5).pixels] * 4)
        frames[3, 6, 4, 2] ^= 1
        pixels, out = looked_up(frames)
        assert pixels.levels.strides[1] != 0 and pixels.levels.flags.writeable
        assert np.array_equal(pixels.levels[0], frames)
        assert np.array_equal(out, reference_normalize(frames, PIXEL_MEAN, PIXEL_STD))

    def test_rejects_non_uint8(self):
        # video_to_pixel_tensor reads RawImage frames, which hold only uint8 pixels
        with pytest.raises(ValueError, match="uint8"):
            RawImage(np.zeros((2, 2, 3)))

    def test_zero_pixel(self):
        _, out = looked_up(np.zeros((1, 1, 1, 3), dtype=np.uint8),
                           mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))
        assert np.allclose(out, -1.0)

    def test_full_pixel(self):
        _, out = looked_up(np.full((1, 1, 1, 3), 255, dtype=np.uint8),
                           mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))
        assert np.allclose(out, 1.0)


class TestPixelLevels:
    @pytest.mark.parametrize("static", [False, True])
    def test_holds_a_byte_per_pixel_channel(self, static):
        frames = [rand_image(70 + (0 if static else i), 24, 40) for i in range(6)]
        video = RawVideo(frames)
        tracemalloc.start()
        try:
            pixels = video_to_pixel_tensor(video)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pixels.levels.shape == (1, 6, 24, 40, 3)
        assert pixels.levels.dtype == np.uint8
        assert (pixels.levels.strides[1] == 0) == static
        # the float64 pixels would be 8 bytes per pixel channel
        assert held <= pixels.levels.size + pixels.table.nbytes + 4096

    @pytest.mark.parametrize("levels, table", [
        (np.zeros((1, 1, 2, 2, 3)), level_table()),                  # float levels
        (np.zeros((1, 1, 2, 2, 3), np.uint16), level_table()),       # levels past 255
        (np.zeros((1, 2, 2, 3), np.uint8), level_table()),           # no batch axis
        (np.zeros((1, 1, 2, 2, 3), np.uint8), level_table()[:, :2]),
        (np.zeros((1, 1, 2, 2, 3), np.uint8), level_table().astype(np.float32))])
    def test_rejects_what_patchify_cannot_look_up(self, levels, table):
        with pytest.raises(ValueError):
            PixelLevels(levels, table)


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = rand_image(10, 5, 7)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_comment_in_header(self, tmp_path):
        img = rand_image(11, 2, 2)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + img.pixels.tobytes())
        assert np.array_equal(read_ppm(path).pixels, img.pixels)

    @pytest.mark.parametrize("header", [b"P6\nabc 3\n255\n", b"P6\n2 ",
                                        b"P6\n0 2\n255\n", b"P6\n-2 2\n255\n",
                                        b"P6\n2 2\n65535\n"])
    def test_rejects_malformed_header(self, tmp_path, header):
        path = tmp_path / "img.ppm"
        path.write_bytes(header + b"\0" * 12)
        with pytest.raises(IOError, match="img.ppm"):
            read_ppm(path)

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 4)
        with pytest.raises(IOError):
            read_ppm(path)


class TestVideoInvariants:
    def test_mismatched_frames_rejected(self):
        with pytest.raises(ValueError):
            RawVideo(frames=[rand_image(1, 4, 4), rand_image(2, 4, 5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RawVideo(frames=[])
