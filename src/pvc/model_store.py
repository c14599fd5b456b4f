"""Save/load model weights as PVCT files plus a flat manifest.

The manifest records the architectural constants and one `weight.<name>`
entry per tensor pointing at its PVCT file, so a saved model is fully
described by a directory plus one text file.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import io
from .compression import CompressionParams
from .conditioning import SINUSOID_DIM, AdaLnParams, TemporalEmbeddingParams
from .vit import ModelParams, PvcConfig, build_model, named_params


def _config_from_entries(entries: dict, manifest_path) -> PvcConfig:
    """Every PvcConfig field is a required int entry, and any other `cfg.*`
    entry is refused."""
    names = {f"cfg.{f.name}": f.name for f in dataclasses.fields(PvcConfig)}
    kwargs = {}
    for key, value in entries.items():
        if key in names:
            try:
                kwargs[names[key]] = int(value)
            except ValueError as e:
                raise io.PvctError(f"{manifest_path}: bad config entry {key} = "
                                   f"{value!r}: {e}") from e
        elif key.startswith("cfg."):
            raise io.PvctError(f"{manifest_path}: config entry {key} is not a "
                               f"field of PvcConfig")
    for key, name in names.items():
        if name not in kwargs:
            raise io.PvctError(f"{manifest_path}: missing config entry {key!r}")
    try:
        return PvcConfig(**kwargs)
    except ValueError as e:
        raise io.PvctError(f"{manifest_path}: {e}") from e


# Extents a compressor's weights must share: a letter is bound by the
# first weight that has it, and every later weight must agree with it.
_COMPRESSION_SHAPES = {
    "w_in": ("D", "F"), "b_in": ("F",), "w_out": ("F", "O"), "b_out": ("O",),
    "adaln.w3": ("D", "A"), "adaln.w4": ("A", "D"),
    "adaln.w5": ("D", "S"), "adaln.w6": ("S", "D"),
    "te.w1": (SINUSOID_DIM, "H"), "te.w2": ("H", "D"),
}


class _NoDraws:
    """Stands in for Rng where every drawn weight is overwritten: the
    weights come back uninitialised and no random number is drawn."""

    @staticmethod
    def normal(shape, std: float = 1.0):
        return np.empty(shape)


def _weight(entries: dict, manifest_path: Path, name: str):
    key = f"weight.{name}"
    if key not in entries:
        raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
    return io.read_tensor(manifest_path.parent / entries[key])


def _check_shape(manifest_path: Path, name: str, shape: tuple, expected: tuple) -> None:
    if shape != expected:
        raise io.PvctError(f"{manifest_path}: weight {name} has shape {shape}, "
                           f"expected ({', '.join(map(str, expected))})")


def _check_no_other_weights(entries: dict, names, manifest_path: Path) -> None:
    """Refuse a weight entry the loaded parameters have no place for."""
    for key in entries:
        if key.startswith("weight.") and key.removeprefix("weight.") not in names:
            raise io.PvctError(f"{manifest_path}: weight entry {key} is not a "
                               f"weight of this model")


def _check_extents(cfg: PvcConfig, entries: dict, manifest_path: Path) -> dict:
    """Check the config's layer count and extents against the manifest's
    layer entries and the weight files, before anything of the config's
    size is allocated. Returns the weights it read, by name."""
    layers = {k.split(".")[1] for k in entries if k.startswith("weight.layer")}
    if len(layers) != cfg.layers:
        raise io.PvctError(f"{manifest_path}: cfg.layers = {cfg.layers}, but the "
                           f"manifest has weights for {len(layers)} layers")
    c = cfg.channels
    read = {}
    for name, expected in (("patch.weight", (cfg.patch_size ** 2 * 3, c)),
                           ("patch.pos", (cfg.tokens_per_frame, c)),
                           ("layer00.ffn_w_in", (c, cfg.ffn_dim))):
        read[name] = _weight(entries, manifest_path, name)
        _check_shape(manifest_path, name, read[name].shape, expected)
    return read


def _save_tensors(directory, params, entries: dict, prefix: str = "") -> dict:
    """Write each named array of `params` as a PVCT file; add its manifest entry."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in named_params(params):
        fname = prefix + name.replace(".", "_") + ".pvct"
        io.write_tensor(directory / fname, arr)
        entries[f"weight.{name}"] = fname
    return entries


def save_model(directory, model: ModelParams) -> Path:
    """Write all weights and the manifest; returns the manifest path."""
    manifest = Path(directory) / "model.manifest"
    entries = {f"cfg.{k}": v for k, v in dataclasses.asdict(model.cfg).items()}
    io.write_manifest(manifest, _save_tensors(directory, model, entries))
    return manifest


def load_model(manifest_path) -> ModelParams:
    """Rebuild a ModelParams from a manifest written by save_model.

    The config is checked against the weight files, the model is built for
    it without drawing its weights, then every weight is filled from its
    file; a missing or extra weight entry, or a shape other than the
    config's, raises PvctError.
    """
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    cfg = _config_from_entries(entries, manifest_path)
    read = _check_extents(cfg, entries, manifest_path)
    model = build_model(_NoDraws(), cfg)
    weights = dict(named_params(model))
    _check_no_other_weights(entries, weights, manifest_path)
    for name, arr in weights.items():
        loaded = read.pop(name) if name in read else _weight(entries, manifest_path, name)
        _check_shape(manifest_path, name, loaded.shape, arr.shape)
        arr[...] = loaded
    return model


def save_compression(directory, p: CompressionParams) -> None:
    """Write the compressor's weights and `comp.manifest` into `directory`."""
    io.write_manifest(Path(directory) / "comp.manifest",
                      _save_tensors(directory, p, {}, "comp_"))


def compression_width(manifest_path) -> int:
    """The k²C width of a manifest written by save_compression, from the
    header of its w_in file alone: cheap enough to check before a forward
    whose output the compressor is to take."""
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    if "weight.w_in" not in entries:
        raise io.PvctError(f"{manifest_path}: missing weight entry w_in")
    shape = io.read_tensor_shape(manifest_path.parent / entries["weight.w_in"])
    if len(shape) != 2:
        _check_shape(manifest_path, "w_in", shape, _COMPRESSION_SHAPES["w_in"])
    return shape[0]


def load_compression(manifest_path) -> CompressionParams:
    """Rebuild a CompressionParams from a manifest written by save_compression.

    A missing or extra entry, or a weight whose shape disagrees with the
    others (see _COMPRESSION_SHAPES), raises PvctError naming the weight.
    """
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    _check_no_other_weights(entries, _COMPRESSION_SHAPES, manifest_path)
    extents, w = {}, {}
    for name, dims in _COMPRESSION_SHAPES.items():
        arr = w[name] = _weight(entries, manifest_path, name)
        if arr.ndim == len(dims):
            for d, n in zip(dims, arr.shape):
                if isinstance(d, str):
                    extents.setdefault(d, n)
        _check_shape(manifest_path, name, arr.shape,
                     tuple(extents.get(d, d) for d in dims))
    return CompressionParams(
        adaln=AdaLnParams(w3=w["adaln.w3"], w4=w["adaln.w4"],
                          w5=w["adaln.w5"], w6=w["adaln.w6"]),
        te=TemporalEmbeddingParams(w1=w["te.w1"], w2=w["te.w2"]),
        w_in=w["w_in"], b_in=w["b_in"], w_out=w["w_out"], b_out=w["b_out"],
    )
