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
from .vit import AttentionParams, LayerParams, ModelParams, PatchEmbedParams, PvcConfig

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


def _model_tensors(model: ModelParams) -> dict:
    out = {"patch.weight": model.patch.weight,
           "patch.bias": model.patch.bias,
           "patch.pos": model.patch.pos}
    for i, p in enumerate(model.layers):
        pref = f"layer{i:02d}"
        out[f"{pref}.ln1_gamma"] = p.ln1_gamma
        out[f"{pref}.ln1_beta"] = p.ln1_beta
        out[f"{pref}.ln2_gamma"] = p.ln2_gamma
        out[f"{pref}.ln2_beta"] = p.ln2_beta
        out[f"{pref}.ffn_w_in"] = p.ffn_w_in
        out[f"{pref}.ffn_b_in"] = p.ffn_b_in
        out[f"{pref}.ffn_w_out"] = p.ffn_w_out
        out[f"{pref}.ffn_b_out"] = p.ffn_b_out
        for aname, attn in (("smha", p.smha), ("tmha", p.tmha)):
            if attn is None:
                continue
            for k in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo"):
                out[f"{pref}.{aname}.{k}"] = getattr(attn, k)
        if p.adaln is not None:
            for k in ("w3", "w4", "w5", "w6"):
                out[f"{pref}.adaln.{k}"] = getattr(p.adaln, k)
        if p.te is not None:
            out[f"{pref}.te.w1"] = p.te.w1
            out[f"{pref}.te.w2"] = p.te.w2
        if p.gate_alpha is not None:
            out[f"{pref}.gate_alpha"] = p.gate_alpha
    return out


def save_model(directory, model: ModelParams) -> Path:
    """Write all weights and the manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = _config_entries(model.cfg)
    for name, arr in _model_tensors(model).items():
        fname = name.replace(".", "_") + ".pvct"
        io.write_tensor(directory / fname, arr)
        entries[f"weight.{name}"] = fname
    manifest = directory / "model.manifest"
    io.write_manifest(manifest, entries)
    return manifest


def load_model(manifest_path) -> ModelParams:
    """Rebuild a ModelParams from a manifest written by save_model."""
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    base = manifest_path.parent
    cfg = _config_from_entries(entries, manifest_path)

    def tensor(name, shape=None):
        key = f"weight.{name}"
        if key not in entries:
            raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
        arr = io.read_tensor(base / entries[key])
        if shape is not None and arr.shape != tuple(shape):
            raise io.PvctError(f"{manifest_path}: weight {name} has shape "
                               f"{arr.shape}, expected {tuple(shape)}")
        return arr

    c, n = cfg.channels, cfg.tokens_per_frame
    patch = PatchEmbedParams(
        weight=tensor("patch.weight", (cfg.patch_size ** 2 * 3, c)),
        bias=tensor("patch.bias", (c,)),
        pos=tensor("patch.pos", (n, c)),
    )
    plain = cfg.layers - cfg.temporal_layers
    layers = []
    for i in range(cfg.layers):
        pref = f"layer{i:02d}"
        p = LayerParams(
            ln1_gamma=tensor(f"{pref}.ln1_gamma", (c,)),
            ln1_beta=tensor(f"{pref}.ln1_beta", (c,)),
            smha=_load_attention(tensor, f"{pref}.smha", c, cfg.heads),
            ln2_gamma=tensor(f"{pref}.ln2_gamma", (c,)),
            ln2_beta=tensor(f"{pref}.ln2_beta", (c,)),
            ffn_w_in=tensor(f"{pref}.ffn_w_in", (c, cfg.ffn_dim)),
            ffn_b_in=tensor(f"{pref}.ffn_b_in", (cfg.ffn_dim,)),
            ffn_w_out=tensor(f"{pref}.ffn_w_out", (cfg.ffn_dim, c)),
            ffn_b_out=tensor(f"{pref}.ffn_b_out", (c,)),
        )
        if i >= plain:
            p.tmha = _load_attention(tensor, f"{pref}.tmha", c, cfg.heads)
            p.adaln = AdaLnParams(w3=tensor(f"{pref}.adaln.w3"),
                                  w4=tensor(f"{pref}.adaln.w4"),
                                  w5=tensor(f"{pref}.adaln.w5"),
                                  w6=tensor(f"{pref}.adaln.w6"))
            p.te = TemporalEmbeddingParams(w1=tensor(f"{pref}.te.w1"),
                                           w2=tensor(f"{pref}.te.w2"))
            p.gate_alpha = tensor(f"{pref}.gate_alpha", (c,))
        layers.append(p)
    return ModelParams(cfg=cfg, patch=patch, layers=layers)


def _load_attention(tensor, prefix: str, c: int, heads: int) -> AttentionParams:
    return AttentionParams(
        heads=heads,
        wq=tensor(f"{prefix}.wq", (c, c)), wk=tensor(f"{prefix}.wk", (c, c)),
        wv=tensor(f"{prefix}.wv", (c, c)), wo=tensor(f"{prefix}.wo", (c, c)),
        bq=tensor(f"{prefix}.bq", (c,)), bk=tensor(f"{prefix}.bk", (c,)),
        bv=tensor(f"{prefix}.bv", (c,)), bo=tensor(f"{prefix}.bo", (c,)),
    )


def save_compression(directory, p: CompressionParams, prefix: str = "comp") -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = {"adaln.w3": p.adaln.w3, "adaln.w4": p.adaln.w4,
               "adaln.w5": p.adaln.w5, "adaln.w6": p.adaln.w6,
               "te.w1": p.te.w1, "te.w2": p.te.w2,
               "w_in": p.w_in, "b_in": p.b_in,
               "w_out": p.w_out, "b_out": p.b_out}
    entries = {}
    for name, arr in tensors.items():
        fname = f"{prefix}_{name.replace('.', '_')}.pvct"
        io.write_tensor(directory / fname, arr)
        entries[f"weight.{name}"] = fname
    io.write_manifest(directory / f"{prefix}.manifest", entries)


def load_compression(manifest_path) -> CompressionParams:
    manifest_path = Path(manifest_path)
    entries = io.read_manifest(manifest_path)
    base = manifest_path.parent

    def tensor(name):
        key = f"weight.{name}"
        if key not in entries:
            raise io.PvctError(f"{manifest_path}: missing weight entry {name}")
        return io.read_tensor(base / entries[key])

    return CompressionParams(
        adaln=AdaLnParams(w3=tensor("adaln.w3"), w4=tensor("adaln.w4"),
                          w5=tensor("adaln.w5"), w6=tensor("adaln.w6")),
        te=TemporalEmbeddingParams(w1=tensor("te.w1"), w2=tensor("te.w2")),
        w_in=tensor("w_in"), b_in=tensor("b_in"),
        w_out=tensor("w_out"), b_out=tensor("b_out"),
    )
