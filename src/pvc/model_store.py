"""Save/load model weights as PVCT files plus a flat manifest.

The manifest records the architectural constants and one `weight.<name>`
entry per tensor pointing at its PVCT file, so a saved model is fully
described by a directory plus one text file. A compressor's manifest holds
weight entries alone: its shapes follow from the config it is loaded for.

`check_manifest` is the one pre-flight: it checks a manifest's weight
entries and every weight file's header against a template built for the
config, which holds no array, and reads no payload. Either loader runs it
first, then fills a template of real arrays, reading each payload once.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import io
from .compression import CompressionParams, check_shuffled_width, init_compression
from .vit import ModelParams, PvcConfig, build_model, named_params


def load_config(manifest_path) -> PvcConfig:
    """The PvcConfig of a manifest written by save_model, read before any weight:
    every field is a required int entry, any other `cfg.*` entry is refused,
    and cfg.layers must count the manifest's `weight.layerNN.*` layers."""
    manifest_path = Path(manifest_path)
    names = {f"cfg.{f.name}": f.name for f in dataclasses.fields(PvcConfig)}
    entries = io.read_manifest(manifest_path)
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
        cfg = PvcConfig(**kwargs)
    except ValueError as e:
        raise io.PvctError(f"{manifest_path}: {e}") from e
    layers = {k.split(".")[1] for k in entries if k.startswith("weight.layer")}
    if len(layers) != cfg.layers:  # before a template of cfg.layers layers is built
        raise io.PvctError(f"{manifest_path}: cfg.layers = {cfg.layers}, but the "
                           f"manifest has weights for {len(layers)} layers")
    return cfg


class _NoDraws:
    """Stands in for Rng where every array is overwritten: the weights, zeros
    and ones come back uninitialised and no random number is drawn."""
    empty = staticmethod(np.empty)

    def normal(self, shape, std: float = 1.0):
        return self.empty(shape)

    zeros = ones = normal


class _NoMemory(_NoDraws):
    """A _NoDraws for a template whose shapes alone are read: each array is
    a namespace holding its shape, so no extent is too large to stand for."""
    empty = staticmethod(lambda shape: SimpleNamespace(
        shape=(shape,) if np.ndim(shape) == 0 else tuple(shape)))


def check_manifest(build, manifest_path) -> dict:
    """The pre-flight of a manifest: its weight entries and every weight
    file's header against the template build(_NoMemory()), reading no
    payload; returns each weight's path by name. A missing or extra entry,
    or a header unreadable or of another shape, raises PvctError. A
    compressor's w_in rows are compared before any shape: another k²C than
    the template's is the caller's mismatch, a ValueError."""
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    template = build(_NoMemory())
    shapes = {name: arr.shape for name, arr in named_params(template)}
    for key in entries:
        if key.startswith("weight.") and key.removeprefix("weight.") not in shapes:
            raise io.PvctError(f"{manifest_path}: weight entry {key} is not a "
                               f"weight of this model")
    paths = {}
    for name in shapes:
        if f"weight.{name}" not in entries:
            raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
        paths[name] = manifest_path.parent / entries[f"weight.{name}"]
    if isinstance(template, CompressionParams):
        w_in = io.read_tensor_shape(paths["w_in"])
        if len(w_in) == 2:
            check_shuffled_width(template.wide_dim, w_in[0])
    for name, expected in shapes.items():
        shape = io.read_tensor_shape(paths[name])
        if shape != expected:
            raise io.PvctError(f"{manifest_path}: weight {name} has shape {shape}, "
                               f"expected ({', '.join(map(str, expected))})")
    return paths


def _fill(build, manifest_path):
    """Build the template `build(draws)` once check_manifest passes, and fill
    each of its named arrays from its weight file, read once."""
    paths = check_manifest(build, manifest_path)
    params = build(_NoDraws())
    for name, arr in named_params(params):
        arr[...] = io.read_tensor(paths[name])
    return params


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
    """Rebuild a ModelParams from a manifest written by save_model: the
    model built for its config without drawing a weight, filled by _fill."""
    cfg = load_config(manifest_path)
    return _fill(lambda draws: build_model(draws, cfg), manifest_path)


def save_compression(directory, p: CompressionParams) -> None:
    """Write the compressor's weights and `comp.manifest` into `directory`."""
    io.write_manifest(Path(directory) / "comp.manifest",
                      _save_tensors(directory, p, {}, "comp_"))


def load_compression(manifest_path, cfg: PvcConfig) -> CompressionParams:
    """Rebuild the compressor for cfg from a manifest written by
    save_compression: _fill fills the template init_compression builds
    for cfg, so a compressor of other widths is refused."""
    return _fill(lambda draws: init_compression(draws, cfg), manifest_path)
