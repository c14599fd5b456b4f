"""Save/load model weights as PVCT files plus a flat manifest.

The manifest records the architectural constants and one `weight.<name>`
entry per tensor pointing at its PVCT file, so a saved model is fully
described by a directory plus one text file.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

from . import io
from .compression import CompressionParams
from .conditioning import AdaLnParams, TemporalEmbeddingParams
from .vit import ModelParams, PvcConfig, init_model, named_params

# Config entries a manifest must carry; the others fall back to their
# defaults, as in manifests written before they were saved.
_CFG_KEYS = ("image_size", "patch_size", "channels", "heads", "ffn_dim",
             "layers", "temporal_layers", "shuffle_kernel", "t_img")


def _config_entries(cfg: PvcConfig) -> dict:
    """One `cfg.<field>` entry per PvcConfig field; tuples space-separated."""
    entries = {}
    for f in dataclasses.fields(PvcConfig):
        value = getattr(cfg, f.name)
        entries[f"cfg.{f.name}"] = (" ".join(map(str, value))
                                    if isinstance(value, tuple) else value)
    return entries


def _config_from_entries(entries: dict, manifest_path) -> PvcConfig:
    kwargs = {}
    for f in dataclasses.fields(PvcConfig):
        key = f"cfg.{f.name}"
        if key not in entries:
            if f.name in _CFG_KEYS:
                raise io.PvctError(f"{manifest_path}: missing config entry {key!r}")
            continue
        try:
            if isinstance(f.default, tuple):
                parts = entries[key].split()
                if len(parts) != len(f.default):
                    raise ValueError(f"expected {len(f.default)} values")
                kwargs[f.name] = tuple(type(d)(s) for d, s in zip(f.default, parts))
            else:
                kwargs[f.name] = type(f.default)(entries[key])
        except ValueError as e:
            raise io.PvctError(f"{manifest_path}: bad config entry {key} = "
                               f"{entries[key]!r}: {e}") from e
    try:
        return PvcConfig(**kwargs)
    except ValueError as e:
        raise io.PvctError(f"{manifest_path}: {e}") from e


def _weight(entries: dict, manifest_path: Path, name: str):
    key = f"weight.{name}"
    if key not in entries:
        raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
    return io.read_tensor(manifest_path.parent / entries[key])


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
    io.write_manifest(manifest, _save_tensors(directory, model,
                                              _config_entries(model.cfg)))
    return manifest


def load_model(manifest_path) -> ModelParams:
    """Rebuild a ModelParams from a manifest written by save_model.

    The model is built for the manifest's config, then every weight is
    filled from its file; a missing entry or a shape other than the
    config's raises PvctError.
    """
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    model = init_model(0, _config_from_entries(entries, manifest_path))
    for name, arr in named_params(model):
        loaded = _weight(entries, manifest_path, name)
        if loaded.shape != arr.shape:
            raise io.PvctError(f"{manifest_path}: weight {name} has shape "
                               f"{loaded.shape}, expected {arr.shape}")
        arr[...] = loaded
    return model


def save_compression(directory, p: CompressionParams, prefix: str = "comp") -> None:
    io.write_manifest(Path(directory) / f"{prefix}.manifest",
                      _save_tensors(directory, p, {}, f"{prefix}_"))


def load_compression(manifest_path) -> CompressionParams:
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)

    def tensor(name):
        return _weight(entries, manifest_path, name)

    return CompressionParams(
        adaln=AdaLnParams(w3=tensor("adaln.w3"), w4=tensor("adaln.w4"),
                          w5=tensor("adaln.w5"), w6=tensor("adaln.w6")),
        te=TemporalEmbeddingParams(w1=tensor("te.w1"), w2=tensor("te.w2")),
        w_in=tensor("w_in"), b_in=tensor("b_in"),
        w_out=tensor("w_out"), b_out=tensor("b_out"),
    )
