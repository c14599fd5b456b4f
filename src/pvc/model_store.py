"""Save/load model weights as PVCT files plus a flat manifest.

The manifest records the architectural constants and one `weight.<name>`
entry per tensor pointing at its PVCT file, so a saved model is fully
described by a directory plus one text file. A compressor's manifest holds
weight entries alone: its shapes follow from the config it is loaded for.
Either loader fills a template built for its config, and refuses a weight
of any other shape.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import io
from .compression import CompressionParams, init_compression
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
    empty = staticmethod(np.empty)

    def normal(self, shape, std: float = 1.0):
        return self.empty(shape)


class _NoMemory(_NoDraws):
    """A _NoDraws for a template whose shapes alone are read: its arrays
    are zero-stride views that take no memory."""
    empty = staticmethod(lambda shape: np.broadcast_to(0.0, shape))


def _weight(entries: dict, manifest_path: Path, name: str, header_only: bool = False):
    """The array in weight `name`'s file, or with header_only its extents."""
    key = f"weight.{name}"
    if key not in entries:
        raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
    path = manifest_path.parent / entries[key]
    return io.read_tensor_shape(path) if header_only else io.read_tensor(path)


def _check_header(entries: dict, manifest_path: Path, name: str, expected: tuple) -> None:
    shape = _weight(entries, manifest_path, name, header_only=True)
    if shape != expected:
        raise io.PvctError(f"{manifest_path}: weight {name} has shape {shape}, "
                           f"expected ({', '.join(map(str, expected))})")


def _fill(build, entries: dict, manifest_path: Path):
    """Build the template `build(draws)` and fill each of its named arrays
    from its weight file, read once. The weight entries and every file's
    header are checked first, against a template built on _NoMemory, so
    nothing is allocated that the files do not hold: a missing or extra
    weight entry, or a shape other than the template's, raises."""
    shapes = {name: arr.shape for name, arr in named_params(build(_NoMemory()))}
    for key in entries:
        if key.startswith("weight.") and key.removeprefix("weight.") not in shapes:
            raise io.PvctError(f"{manifest_path}: weight entry {key} is not a "
                               f"weight of this model")
    for name, shape in shapes.items():
        _check_header(entries, manifest_path, name, shape)
    params = build(_NoDraws())
    for name, arr in named_params(params):
        arr[...] = _weight(entries, manifest_path, name)
    return params


def _check_extents(cfg: PvcConfig, entries: dict, manifest_path: Path) -> None:
    """Check the config's layer count against the manifest's layer entries,
    and its extents against three weight files' headers, before anything
    of the config's size is allocated; no payload is read."""
    layers = {k.split(".")[1] for k in entries if k.startswith("weight.layer")}
    if len(layers) != cfg.layers:
        raise io.PvctError(f"{manifest_path}: cfg.layers = {cfg.layers}, but the "
                           f"manifest has weights for {len(layers)} layers")
    c = cfg.channels
    for name, expected in (("patch.weight", (cfg.patch_size ** 2 * 3, c)),
                           ("patch.pos", (cfg.tokens_per_frame, c)),
                           ("layer00.ffn_w_in", (c, cfg.ffn_dim))):
        _check_header(entries, manifest_path, name, expected)


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

    The config is checked against the weight files' headers, then a model
    built for it without drawing its weights is filled by _fill.
    """
    manifest_path = Path(manifest_path)
    cfg = load_config(manifest_path)
    entries = io.read_manifest(manifest_path)
    _check_extents(cfg, entries, manifest_path)
    return _fill(lambda draws: build_model(draws, cfg), entries, manifest_path)


def save_compression(directory, p: CompressionParams) -> None:
    """Write the compressor's weights and `comp.manifest` into `directory`."""
    io.write_manifest(Path(directory) / "comp.manifest",
                      _save_tensors(directory, p, {}, "comp_"))


def compression_width(manifest_path) -> int:
    """The k²C width of a manifest written by save_compression, from the
    header of its w_in file alone (no payload is read): cheap enough to
    check before a forward whose output the compressor is to take."""
    manifest_path = Path(manifest_path)
    shape = _weight(io.read_manifest(manifest_path), manifest_path, "w_in", header_only=True)
    if len(shape) != 2:
        raise io.PvctError(f"{manifest_path}: weight w_in has shape {shape}, "
                           f"expected a matrix")
    return shape[0]


def load_compression(manifest_path, cfg: PvcConfig) -> CompressionParams:
    """Rebuild the compressor for cfg from a manifest written by
    save_compression: _fill fills the template init_compression builds
    for cfg, so a compressor of other widths is refused."""
    manifest_path = Path(manifest_path)
    return _fill(lambda draws: init_compression(draws, cfg),
                 io.read_manifest(manifest_path), manifest_path)
