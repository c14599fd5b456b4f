"""Fuzz the file readers: any byte string is either read or rejected with
IOError (PvctError is one), which the CLI maps to exit 3."""
import dataclasses
import string
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvc import io
from pvc.input_pipeline import read_ppm
from pvc.model_store import load_model, save_model
from pvc.verification import toy_config
from pvc.vit import PvcConfig, init_model

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

# the integer config entries of a model manifest
# every config field, plus an entry no manifest may carry
CFG_KEYS = [f"cfg.{f.name}" for f in dataclasses.fields(PvcConfig)] + ["cfg.bogus"]


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


@pytest.fixture(scope="module")
def saved_toy_model(tmp_path_factory):
    return save_model(tmp_path_factory.mktemp("model"),
                      init_model(0, toy_config(layers=2, temporal_layers=1)))


@FUZZ
@given(changes=st.dictionaries(
    st.sampled_from(CFG_KEYS),
    st.one_of(st.integers(-2, 4).map(str),
              st.text(string.ascii_letters + " .-+_", max_size=8)),
    min_size=1))
def test_load_model_any_config_entries(saved_toy_model, changes):
    # the fuzzed manifest sits beside the saved one, so its weight paths resolve
    manifest = saved_toy_model.parent / "fuzz.manifest"
    io.write_manifest(manifest, {**io.read_manifest(saved_toy_model), **changes})
    try:
        model = load_model(manifest)
    except io.PvctError:
        return
    for key, value in changes.items():
        assert str(getattr(model.cfg, key.removeprefix("cfg."))) == value.strip()
