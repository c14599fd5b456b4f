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
from .conditioning import init_adaln, init_temporal_embedding
from .vit import ModelParams, PvcConfig, build_model, named_params


def load_config(manifest_path) -> PvcConfig:
    """The PvcConfig of a manifest written by save_model, read before any weight:
    every field is a required int entry, and any other `cfg.*` entry is refused."""
    manifest_path = Path(manifest_path)
    names = {f"cfg.{f.name}": f.name for f in dataclasses.fields(PvcConfig)}
    kwargs = {}
    for key, value in io.read_manifest(manifest_path).items():
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


class _NoDraws:
    """Stands in for Rng where every drawn weight is overwritten: the
    weights come back uninitialised and no random number is drawn."""

    @staticmethod
    def normal(shape, std: float = 1.0):
        return np.empty(shape)


def _weight(entries: dict, manifest_path: Path, name: str, header_only: bool = False):
    """The array in weight `name`'s file, or with header_only its extents."""
    key = f"weight.{name}"
    if key not in entries:
        raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
    path = manifest_path.parent / entries[key]
    return io.read_tensor_shape(path) if header_only else io.read_tensor(path)


def _matrix_shape(entries: dict, manifest_path: Path, name: str) -> tuple[int, int]:
    """The extents of a 2-D weight, from its file's header alone."""
    shape = _weight(entries, manifest_path, name, header_only=True)
    if len(shape) != 2:
        raise io.PvctError(f"{manifest_path}: weight {name} has shape {shape}, "
                           f"expected a matrix")
    return shape


def _check_shape(manifest_path: Path, name: str, shape: tuple, expected: tuple) -> None:
    if shape != expected:
        raise io.PvctError(f"{manifest_path}: weight {name} has shape {shape}, "
                           f"expected ({', '.join(map(str, expected))})")


def _fill(params, entries: dict, manifest_path: Path, read=None):
    """Fill every named array of `params` from its weight file, or from
    `read` (weights already read, by name), and return `params`. A missing
    or extra weight entry, or a shape other than the template's, raises."""
    weights = dict(named_params(params))
    for key in entries:
        if key.startswith("weight.") and key.removeprefix("weight.") not in weights:
            raise io.PvctError(f"{manifest_path}: weight entry {key} is not a "
                               f"weight of this model")
    read = read or {}
    for name, arr in weights.items():
        loaded = read.pop(name) if name in read else _weight(entries, manifest_path, name)
        _check_shape(manifest_path, name, loaded.shape, arr.shape)
        arr[...] = loaded
    return params


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

    The config is checked against the weight files, then a model built for
    it without drawing its weights is filled by _fill.
    """
    manifest_path = Path(manifest_path)
    cfg = load_config(manifest_path)
    entries = io.read_manifest(manifest_path)
    read = _check_extents(cfg, entries, manifest_path)
    return _fill(build_model(_NoDraws(), cfg), entries, manifest_path, read)


def save_compression(directory, p: CompressionParams) -> None:
    """Write the compressor's weights and `comp.manifest` into `directory`."""
    io.write_manifest(Path(directory) / "comp.manifest",
                      _save_tensors(directory, p, {}, "comp_"))


def compression_width(manifest_path) -> int:
    """The k²C width of a manifest written by save_compression, from the
    header of its w_in file alone (no payload is read): cheap enough to
    check before a forward whose output the compressor is to take."""
    manifest_path = Path(manifest_path)
    return _matrix_shape(io.read_manifest(manifest_path), manifest_path, "w_in")[0]


def load_compression(manifest_path) -> CompressionParams:
    """Rebuild a CompressionParams from a manifest written by save_compression.

    The widths come from the headers of w_in, w_out, adaln.w3 and te.w1,
    each of which must be a matrix; a compressor of those widths, shaped
    by init_adaln and init_temporal_embedding, is then filled by _fill.
    """
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    (d, f), (_, o), (_, a), (_, h) = (_matrix_shape(entries, manifest_path, name)
                                      for name in ("w_in", "w_out", "adaln.w3", "te.w1"))
    template = CompressionParams(
        adaln=init_adaln(_NoDraws(), d, hidden=a),
        te=init_temporal_embedding(_NoDraws(), d, hidden=h),
        w_in=np.empty((d, f)), b_in=np.empty(f), w_out=np.empty((f, o)), b_out=np.empty(o))
    return _fill(template, entries, manifest_path)
