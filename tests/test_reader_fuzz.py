"""Fuzz the file readers: any byte string is either read or rejected with
IOError (PvctError is one), which the CLI maps to exit 3."""
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvc import io
from pvc.input_pipeline import read_ppm

# the file is rewritten for every example, so one tmp_path per test is enough
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# PVCT headers that pass the magic check, with small or extreme extents
pvct_headers = st.builds(
    lambda version, extents, payload: (
        io.MAGIC + struct.pack(f"<II{len(extents)}Q", version, len(extents), *extents)
        + payload),
    st.sampled_from([io.VERSION, 0, 2]),
    st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1)), max_size=4),
    st.binary(max_size=64))


def _read_or_reject(reader, path, data: bytes):
    path.write_bytes(data)
    try:
        return reader(path)
    except IOError:
        return None


@FUZZ
@given(data=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=64).map(lambda b: io.MAGIC + b),
                      pvct_headers))
def test_read_tensor_any_bytes(tmp_path, data):
    out = _read_or_reject(io.read_tensor, tmp_path / "t.pvct", data)
    assert out is None or isinstance(out, np.ndarray)


@FUZZ
@given(data=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=64).map(lambda b: b"P6" + b),
                      st.builds(lambda w, h, tail: f"P6\n{w} {h}\n255\n".encode() + tail,
                                st.integers(0, 4), st.integers(0, 4),
                                st.binary(max_size=64))))
def test_read_ppm_any_bytes(tmp_path, data):
    out = _read_or_reject(read_ppm, tmp_path / "img.ppm", data)
    assert out is None or out.pixels.shape[2] == 3


@FUZZ
@given(data=st.one_of(st.binary(max_size=64),
                      st.text(max_size=64).map(str.encode)))
def test_read_manifest_any_bytes(tmp_path, data):
    out = _read_or_reject(io.read_manifest, tmp_path / "m.manifest", data)
    assert out is None or isinstance(out, dict)
