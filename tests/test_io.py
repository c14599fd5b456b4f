import re
import struct
import tracemalloc

import numpy as np
import pytest

from pvc import cli, io, model_store
from pvc.compression import CompressionParams, init_compression
from pvc.conditioning import init_adaln, init_temporal_embedding
from pvc.model_store import load_compression, load_model, save_compression, save_model
from pvc.tensor import Rng
from pvc.verification import toy_config
from pvc.vit import build_model, init_model, named_params


def test_round_trip_bitwise(tmp_path):
    x = Rng(1).normal((2, 3, 5))
    path = tmp_path / "t.pvct"
    io.write_tensor(path, x)
    assert np.array_equal(io.read_tensor(path), x)


def test_round_trip_scalar_and_1d(tmp_path):
    for x in (np.array(3.5), np.arange(7.0)):
        p = tmp_path / "x.pvct"
        io.write_tensor(p, x)
        back = io.read_tensor(p)
        assert back.shape == x.shape
        assert np.array_equal(back, x)


def test_header_layout(tmp_path):
    path = tmp_path / "t.pvct"
    io.write_tensor(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"PVCT"
    assert int.from_bytes(raw[4:8], "little") == 1       # version
    assert int.from_bytes(raw[8:12], "little") == 2      # ndim
    assert int.from_bytes(raw[12:20], "little") == 2     # extent 0
    assert int.from_bytes(raw[20:28], "little") == 3     # extent 1
    assert len(raw) == 28 + 8 * 6


def test_read_holds_the_payload_once(tmp_path):
    x = Rng(2).normal((1024, 1024))  # 8 MiB
    path = tmp_path / "t.pvct"
    io.write_tensor(path, x)
    tracemalloc.start()
    try:
        back = io.read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, x)
    assert peak <= 1.2 * x.nbytes


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.pvct"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(io.PvctError):
        io.read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.pvct"
    io.write_tensor(path, np.zeros(4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(io.PvctError):
        io.read_tensor(path)
    with pytest.raises(io.PvctError):  # the header alone is checked against the size
        io.read_tensor_shape(path)


@pytest.mark.parametrize("header", [
    b"PVCT\x01",                                                # cut off in the version
    b"PVCT" + struct.pack("<II2Q", 1, 2, 2 ** 40, 2 ** 40),    # element count overflows int64
    b"PVCT" + struct.pack("<II2Q", 1, 2, 0, 2 ** 62),          # empty, but too large to reshape
    b"PVCT" + struct.pack("<II2Q", 1, 3, 1, 1),                # ends after 2 of its 3 extents
])
def test_malformed_header(tmp_path, header):
    path = tmp_path / "bad.pvct"
    path.write_bytes(header)
    with pytest.raises(io.PvctError):
        io.read_tensor(path)


def test_model_round_trip_every_config_field(tmp_path):
    cfg = toy_config(layers=2, temporal_layers=1, t_img=3)
    model = init_model(3, cfg)
    back = load_model(save_model(tmp_path, model))
    assert back.cfg == cfg
    saved, loaded = dict(named_params(model)), dict(named_params(back))
    assert saved.keys() == loaded.keys()
    assert all(np.array_equal(loaded[k], v) for k, v in saved.items())


# eps, ts_scale, frame_bounds, pixel_mean and pixel_std were config fields
# before they became constants; their entries are refused like any other,
# at the old constant or not
@pytest.mark.parametrize("entry, value, message", [
    ("cfg.eps", "1e-06", "is not a field"),
    ("cfg.ts_scale", "1000.0", "is not a field"),
    ("cfg.frame_bounds", "16 96", "is not a field"),
    ("cfg.frame_bounds", "8 40", "is not a field"),
    ("cfg.pixel_mean", "0.485 0.456 0.406", "is not a field"),
    ("cfg.pixel_mean", "0.485 0.456 junk", "is not a field"),
    ("cfg.pixel_std", "0.229 0.224 0.225", "is not a field"),
    ("cfg.pixel_std", "0 0 0", "is not a field"),
    ("cfg.bogus", "1", "is not a field"),                 # never a field
    ("cfg.pixel_means", "0.1 0.2 0.3", "is not a field")])
def test_load_model_refuses_config_entries_that_are_not_fields(tmp_path, entry, value,
                                                               message):
    manifest = save_model(tmp_path, init_model(3, toy_config(layers=2, temporal_layers=1)))
    io.write_manifest(manifest, {**io.read_manifest(manifest), entry: value})
    with pytest.raises(io.PvctError, match=f"config entry {entry} .*{message}"):
        load_model(manifest)


def test_model_manifest_missing_config_entry(tmp_path):
    manifest = save_model(tmp_path, init_model(3, toy_config(layers=2, temporal_layers=1)))
    entries = io.read_manifest(manifest)
    del entries["cfg.t_img"]
    io.write_manifest(manifest, entries)
    with pytest.raises(io.PvctError, match="missing config entry 'cfg.t_img'"):
        load_model(manifest)


def test_load_model_draws_no_random_weights(tmp_path, monkeypatch):
    model = init_model(3, toy_config(layers=2, temporal_layers=1))
    manifest = save_model(tmp_path, model)

    def no_draws(self, shape, std=1.0):
        raise AssertionError(f"Rng.normal{tuple(shape)} called during load_model")

    monkeypatch.setattr(Rng, "normal", no_draws)
    back = load_model(manifest)
    assert all(np.array_equal(a, b) for (_, a), (_, b)
               in zip(named_params(model), named_params(back)))


def test_load_model_reads_each_weight_file_once(tmp_path, monkeypatch):
    # the config's extents are checked from headers, so no payload is read
    # before the template is built, and each weight file is read once
    model = init_model(3, toy_config(layers=2, temporal_layers=1))
    manifest = save_model(tmp_path, model)
    reads, events = [], []
    real_read, real_build = io.read_tensor, model_store.build_model

    def spy(path):
        reads.append(path.name)
        events.append("read")
        return real_read(path)

    def build(*args):
        events.append("build")
        return real_build(*args)

    monkeypatch.setattr(io, "read_tensor", spy)
    monkeypatch.setattr(model_store, "build_model", build)
    load_model(manifest)
    files = [v for k, v in io.read_manifest(manifest).items() if k.startswith("weight.")]
    assert sorted(reads) == sorted(files)
    assert len(reads) == len(list(named_params(model)))
    assert events.index("read") > max(i for i, e in enumerate(events) if e == "build")


def test_compression_round_trip(tmp_path):
    cfg = toy_config()
    comp = init_compression(Rng(4), cfg)
    save_compression(tmp_path, comp)
    back = load_compression(tmp_path / "comp.manifest", cfg)
    saved, loaded = dict(named_params(comp)), dict(named_params(back))
    assert saved.keys() == loaded.keys()
    assert all(np.array_equal(loaded[k], v) for k, v in saved.items())


def _narrow_compression(rng: Rng, adaln_hidden: int = 24) -> CompressionParams:
    """A compressor of k²C = 128, toy_config()'s, whose hidden widths all
    differ from the k²C/4 = 32 that toy_config() derives: AdaLN hidden 24,
    TE hidden 16, MLP 128 -> 40 -> 8."""
    return CompressionParams(
        adaln=init_adaln(rng, 128, hidden=adaln_hidden),
        te=init_temporal_embedding(rng, 128, hidden=16),
        w_in=rng.normal((128, 40)), b_in=rng.normal((40,)),
        w_out=rng.normal((40, 8)), b_out=rng.normal((8,)))


def test_narrow_compression_is_refused(tmp_path):
    # the widths follow from the config's k²C, not from the weight headers:
    # the first weight of another shape is named, and the CLI exits 3
    save_compression(tmp_path, _narrow_compression(Rng(5)))
    manifest = tmp_path / "comp.manifest"
    message = "weight adaln.w3 has shape (128, 24), expected (128, 32)"
    with pytest.raises(io.PvctError, match=re.escape(message)):
        load_compression(manifest, toy_config())
    io.write_tensor(tmp_path / "x.pvct", np.zeros((1, 2, 16, 32)))
    code = cli.main(["compress", "--kernel", "2", "--comp-manifest", str(manifest),
                     "--input", str(tmp_path / "x.pvct"), "--output", str(tmp_path / "o.pvct")])
    assert code == cli.EXIT_IO
    assert not (tmp_path / "o.pvct").exists()


def test_load_compression_refuses_a_second_adaln_hidden_width(tmp_path):
    # init_adaln gives its scale and shift branches one hidden width, so a
    # w5/w6 pair of hidden 12 beside a w3/w4 pair of hidden 32 is refused
    cfg = toy_config()
    save_compression(tmp_path, init_compression(Rng(5), cfg))
    other = dict(named_params(_narrow_compression(Rng(6), adaln_hidden=12)))
    manifest = tmp_path / "comp.manifest"
    for name in ("adaln.w5", "adaln.w6"):
        io.write_tensor(tmp_path / io.read_manifest(manifest)[f"weight.{name}"], other[name])
    with pytest.raises(io.PvctError,
                       match=r"weight adaln\.w5 has shape \(128, 12\), expected \(128, 32\)"):
        load_compression(manifest, cfg)


def test_check_manifest_reads_only_headers(tmp_path, monkeypatch):
    cfg = toy_config()
    save_compression(tmp_path, init_compression(Rng(4), cfg))
    model = save_model(tmp_path / "model", init_model(3, cfg))
    monkeypatch.setattr(io, "read_tensor", None)  # no payload is read
    for build, manifest in [(lambda draws: init_compression(draws, cfg),
                             tmp_path / "comp.manifest"),
                            (lambda draws: build_model(draws, cfg), model)]:
        paths = model_store.check_manifest(build, manifest)
        assert {f"weight.{name}": path.name for name, path in paths.items()} == {
            k: v for k, v in io.read_manifest(manifest).items() if k.startswith("weight.")}


@pytest.mark.parametrize("name, shape", [
    ("adaln.w4", (5, 128)), ("adaln.w3", (128,)), ("adaln.w6", (32, 7)),
    ("te.w1", (255, 32)), ("te.w2", (32, 64)), ("w_in", (128,)),
    ("b_in", (31,)), ("w_out", (31, 32)), ("b_out", (33,))])
def test_load_compression_rejects_disagreeing_shapes(tmp_path, name, shape):
    cfg = toy_config()  # k²C = 128, every other width 32
    save_compression(tmp_path, init_compression(Rng(4), cfg))
    manifest = tmp_path / "comp.manifest"
    io.write_tensor(tmp_path / io.read_manifest(manifest)[f"weight.{name}"],
                    np.zeros(shape))
    with pytest.raises(io.PvctError, match=f"weight {name} has shape"):
        load_compression(manifest, cfg)


def test_named_params_names_are_manifest_entries():
    # these names are the weight entries of saved manifests: renaming one
    # makes older models unloadable
    model = init_model(3, toy_config(layers=2, temporal_layers=1))
    assert [name for name, _ in named_params(model)] == [
        "patch.weight", "patch.bias", "patch.pos",
        "layer00.ln1_gamma", "layer00.ln1_beta", "layer00.ln2_gamma", "layer00.ln2_beta",
        "layer00.ffn_w_in", "layer00.ffn_b_in", "layer00.ffn_w_out", "layer00.ffn_b_out",
        "layer00.smha.wq", "layer00.smha.wk", "layer00.smha.wv", "layer00.smha.wo",
        "layer00.smha.bq", "layer00.smha.bk", "layer00.smha.bv", "layer00.smha.bo",
        "layer01.ln1_gamma", "layer01.ln1_beta", "layer01.ln2_gamma", "layer01.ln2_beta",
        "layer01.ffn_w_in", "layer01.ffn_b_in", "layer01.ffn_w_out", "layer01.ffn_b_out",
        "layer01.smha.wq", "layer01.smha.wk", "layer01.smha.wv", "layer01.smha.wo",
        "layer01.smha.bq", "layer01.smha.bk", "layer01.smha.bv", "layer01.smha.bo",
        "layer01.tmha.wq", "layer01.tmha.wk", "layer01.tmha.wv", "layer01.tmha.wo",
        "layer01.tmha.bq", "layer01.tmha.bk", "layer01.tmha.bv", "layer01.tmha.bo",
        "layer01.adaln.w3", "layer01.adaln.w4", "layer01.adaln.w5", "layer01.adaln.w6",
        "layer01.te.w1", "layer01.te.w2", "layer01.gate_alpha",
    ]


@pytest.mark.parametrize("entry, value", [
    ("image_size", "abc"),          # not a number
    ("image_size", "50"),           # not a multiple of patch_size
    ("pixel_mean", "0.5 0.5"),      # a former field, now a constant
    ("t_img", "4.0"),               # not an int
])
def test_model_manifest_bad_config(tmp_path, entry, value):
    manifest = save_model(tmp_path, init_model(3, toy_config(layers=2, temporal_layers=1)))
    entries = io.read_manifest(manifest)
    entries[f"cfg.{entry}"] = value
    io.write_manifest(manifest, entries)
    with pytest.raises(io.PvctError):
        load_model(manifest)


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.manifest"
    io.write_manifest(path, {"a": 1, "b.c": "hello world"})
    assert io.read_manifest(path) == {"a": "1", "b.c": "hello world"}


def test_manifest_comments_and_blanks(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("# header\n\nkey = value  # trailing\n")
    assert io.read_manifest(path) == {"key": "value"}


def test_manifest_not_utf8(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_bytes(b"key = \xff\xfe\n")
    with pytest.raises(io.PvctError, match="m.manifest"):
        io.read_manifest(path)


def test_manifest_malformed(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("not a pair\n")
    with pytest.raises(io.PvctError):
        io.read_manifest(path)


def test_manifest_repeated_key(tmp_path):
    # the last of two values must not win unnoticed
    manifest = save_model(tmp_path, init_model(3, toy_config(layers=2, temporal_layers=1)))
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([*lines, "cfg.t_img = 7"]) + "\n")
    with pytest.raises(io.PvctError,
                       match=f"{manifest}:{len(lines) + 1}: repeated key 'cfg.t_img'"):
        load_model(manifest)


@pytest.mark.parametrize("entry, value", [
    ("cfg.temporal_layers", "0"),                 # drops layers 4-7's temporal weights
    ("weight.bogus", "layer00_ln1_gamma.pvct"),   # names no weight of the model
])
def test_load_model_rejects_weight_entries_it_does_not_use(tmp_path, entry, value):
    manifest = save_model(tmp_path, init_model(3, toy_config()))  # last 4 of 8 temporal
    io.write_manifest(manifest, {**io.read_manifest(manifest), entry: value})
    with pytest.raises(io.PvctError, match=r"weight entry weight\.\S+ is not a weight"):
        load_model(manifest)


@pytest.mark.parametrize("entry, value, weight", [
    ("image_size", "2800000", "patch.pos"),       # a 9.31 TiB position table
    ("layers", str(10 ** 9), None),
    ("channels", str(2 ** 40), "patch.weight"),
    ("ffn_dim", str(2 ** 40), "layer00.ffn_w_in"),
    ("patch_size", "28", "patch.weight"),
])
def test_load_model_checks_extents_before_building(tmp_path, monkeypatch,
                                                   entry, value, weight):
    manifest = save_model(tmp_path, init_model(3, toy_config(layers=2, temporal_layers=1)))
    io.write_manifest(manifest, {**io.read_manifest(manifest), f"cfg.{entry}": value})

    real_build = model_store.build_model

    def build(draws, cfg):  # the template of extents alone, which allocates nothing
        assert isinstance(draws, model_store._NoMemory), \
            "the model was built from an unchecked config"
        return real_build(draws, cfg)

    monkeypatch.setattr(model_store, "build_model", build)
    message = (f"weight {weight} has shape" if weight
               else f"cfg.layers = {value}, but the manifest has weights for 2 layers")
    tracemalloc.start()
    try:
        with pytest.raises(io.PvctError, match=message):
            load_model(manifest)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_load_compression_rejects_other_weight_entries(tmp_path):
    save_compression(tmp_path, init_compression(Rng(4), toy_config()))
    manifest = tmp_path / "comp.manifest"
    entries = io.read_manifest(manifest)
    io.write_manifest(manifest, {**entries, "weight.te.w3": entries["weight.te.w2"]})
    with pytest.raises(io.PvctError, match=r"weight entry weight\.te\.w3 is not"):
        load_compression(manifest, toy_config())
