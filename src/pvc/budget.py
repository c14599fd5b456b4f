"""Token and FLOPs accounting for (ViT, compression, LLM) stacks.

The cost model is the standard analytic transformer count per layer over
a token stream of length s with width d and FFN width f:

    attention projections   4 * s * d^2   MACs
    attention scores/values 2 * s^2 * d   MACs (per attended sequence)
    FFN                     2 * s * d * f MACs

multiplied by `flops_per_mac` (2 by default: one multiply plus one add).
The table4 presets use a factor of 1, matching the convention of the
profiler-style numbers they reproduce; see the preset docstrings.

Patch embedding is not counted: `vit.patchify`'s projection, tokens x
3p^2 x d MACs (4096 x 588 x 1024 = 2.47 GMAC for one full-scale 4-frame
tile), is in no stage and no total.

With `reuse` enabled on a static (repeated-image) workload, the repeats
stay identical until the first temporal layer adds its timestamp
embedding: the plain ViT layers, that layer's LN1/S-MHA and AdaLN's
x-side GEMMs (x @ W3, x @ W5) run once per tile, and the rest run per
repeat. `vit.vit_forward` makes exactly this saving on a static video
held once, whose frame axis has stride 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class VitSpec:
    layers: int = 24
    temporal_layers: int = 0
    hidden: int = 1024
    heads: int = 16
    ffn: int = 4096
    patch: int = 14
    image_size: int = 448
    adaln_hidden: int = 1024   # hidden width of the AdaLN MLPs (0 = none)
    te_hidden: int = 1024

    @property
    def tokens_per_frame(self) -> int:
        return (self.image_size // self.patch) ** 2


@dataclass
class CompressionSpec:
    kernel: int = 4
    mlp_hidden: int = 4096
    out_dim: int = 4096
    adaln_hidden: int = 0      # 0 = plain pixel-shuffle MLP (no AdaLN)
    te_hidden: int = 0


@dataclass
class LlmSpec:
    layers: int = 32
    hidden: int = 4096
    ffn: int = 11008
    heads: int = 32


@dataclass
class ArchSpec:
    vit: VitSpec = field(default_factory=VitSpec)
    compression: CompressionSpec = field(default_factory=CompressionSpec)
    llm: LlmSpec = field(default_factory=LlmSpec)
    flops_per_mac: float = 2.0


@dataclass
class WorkloadSpec:
    kind: str = "image"        # "image" | "video"
    t_img: int = 1
    tiles: int = 1
    frames: int = 1            # native video frame count after sampling
    text_tokens: int = 2048

    def validate(self) -> None:
        if self.kind not in ("image", "video"):
            raise ValueError(f"workload kind must be image|video, got {self.kind!r}")
        if min(self.t_img, self.tiles, self.frames, self.text_tokens) < 1:
            raise ValueError("workload counts must be positive")


@dataclass
class BudgetReport:
    workload: WorkloadSpec
    tokens_per_frame: int      # visual tokens per frame-tile after compression
    visual_tokens: int
    stages: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(sum(self.stages.values()))

    def format_text(self) -> str:
        lines = [f"workload.kind = {self.workload.kind}",
                 f"visual_tokens = {self.visual_tokens}"]
        for name, flops in self.stages.items():
            lines.append(f"flops.{name} = {flops:.6e}")
        lines.append(f"flops.total = {self.total:.6e}")
        return "\n".join(lines)


def _streams(w: WorkloadSpec) -> tuple[int, int]:
    """(frame-tiles entering the ViT, temporal sequence length)."""
    if w.kind == "image":
        return w.t_img * w.tiles, w.t_img
    return w.frames, w.frames


def _layer_macs(tokens: int, seq_sq_sum: int, d: int, f: int) -> float:
    """One transformer layer: projections + scores over given sequences."""
    return 4.0 * tokens * d * d + 2.0 * seq_sq_sum * d + 2.0 * tokens * d * f


def estimate_flops(w: WorkloadSpec, a: ArchSpec, reuse: bool = False) -> BudgetReport:
    """Per-stage FLOPs, and the visual tokens handed to the LLM, for one
    sample of the workload."""
    w.validate()
    vit, comp, llm = a.vit, a.compression, a.llm
    n = vit.tokens_per_frame
    k2 = comp.kernel ** 2
    if n % k2 != 0:
        raise ValueError(f"kernel^2={k2} does not divide tokens/frame {n}")
    d = vit.hidden
    streams, t_seq = _streams(w)
    out_tokens = streams * (n // k2)
    # image repeats are identical up to the first temporal layer's S-MHA and
    # AdaLN x-side, so with reuse that prefix runs once per tile, not per repeat
    can_reuse = reuse and w.kind == "image"
    shared_streams = w.tiles if can_reuse else streams

    plain_layers = vit.layers - vit.temporal_layers
    plain = plain_layers * _layer_macs(shared_streams * n, shared_streams * n * n,
                                      d, vit.ffn)

    temporal = 0.0
    if vit.temporal_layers:
        tokens = streams * n
        per_layer = _layer_macs(tokens, streams * n * n, d, vit.ffn)   # S-MHA + FFN
        per_layer += 4.0 * tokens * d * d                              # T-MHA proj
        per_layer += 2.0 * (streams // t_seq) * n * t_seq * t_seq * d  # T-MHA scores
        per_layer += 4.0 * tokens * d * vit.adaln_hidden               # AdaLN MLPs
        per_layer += t_seq * (256.0 * vit.te_hidden + vit.te_hidden * d  # TE MLP
                              + 2.0 * d * vit.adaln_hidden)              # te @ W3, W5
        temporal = vit.temporal_layers * per_layer
        temporal -= (streams - shared_streams) * (4.0 * n * d * d + 2.0 * n * n * d
                                                  + 2.0 * n * d * vit.adaln_hidden)

    wide = k2 * d
    compression = out_tokens * (wide * comp.mlp_hidden
                                + comp.mlp_hidden * comp.out_dim)
    if comp.adaln_hidden:
        # x through all four AdaLN weights per token, te through W3 and W5 per frame
        compression += (4.0 * out_tokens + 2.0 * t_seq) * wide * comp.adaln_hidden
    if comp.te_hidden:
        compression += t_seq * (256.0 * comp.te_hidden + comp.te_hidden * wide)

    s = w.text_tokens + out_tokens
    prefill = llm.layers * _layer_macs(s, s * s, llm.hidden, llm.ffn)

    fac = a.flops_per_mac
    return BudgetReport(
        workload=w,
        tokens_per_frame=n // k2,
        visual_tokens=out_tokens,
        stages={"vit_plain": fac * plain,
                "vit_temporal": fac * temporal,
                "compression": fac * compression,
                "llm_prefill": fac * prefill},
    )


@dataclass
class Comparison:
    names: list
    stages: list            # stage names
    absolute: np.ndarray    # [report, stage]
    delta_vs_first: list    # relative total deltas, first entry 0.0

    def format_text(self) -> str:
        lines = []
        for i, name in enumerate(self.names):
            for j, stage in enumerate(self.stages):
                lines.append(f"{name}.flops.{stage} = {self.absolute[i, j]:.6e}")
            lines.append(f"{name}.flops.total = {self.absolute[i].sum():.6e}")
            lines.append(f"{name}.delta_vs_{self.names[0]} = "
                         f"{self.delta_vs_first[i] * 100:+.2f}%")
        return "\n".join(lines)


def compare_strategies(reports: list[BudgetReport],
                       names: list[str] | None = None) -> Comparison:
    """Align >= 2 reports of the same workload; deltas are vs the first."""
    if len(reports) < 2:
        raise ValueError("need at least two reports to compare")
    ref = reports[0].workload
    for r in reports[1:]:
        if (r.workload.kind, r.workload.text_tokens) != (ref.kind, ref.text_tokens):
            raise ValueError("reports describe different workloads")
    names = names or [f"report{i}" for i in range(len(reports))]
    stages = list(reports[0].stages.keys())
    absolute = np.array([[r.stages[s] for s in stages] for r in reports])
    base = reports[0].total
    deltas = [(r.total - base) / base for r in reports]
    return Comparison(names=names, stages=stages, absolute=absolute,
                      delta_vs_first=deltas)


# ---------------------------------------------------------------------------
# presets reproducing the published speed-comparison workload: one 448x448
# image plus 2048 text tokens through an 8B-class stack. Dimensions are
# documented assumptions (ViT-L geometry, 32x4096 LLM with 11008 FFN);
# flops_per_mac=1 because the reference numbers follow the common
# profiler convention of reporting MACs as FLOPs.

def preset(name: str) -> tuple[ArchSpec, WorkloadSpec, bool]:
    """Returns (arch, workload, reuse) for a named preset."""
    if name == "table4-baseline":
        arch = ArchSpec(
            vit=VitSpec(layers=24, temporal_layers=0, adaln_hidden=0, te_hidden=0),
            compression=CompressionSpec(kernel=2, mlp_hidden=4096, out_dim=4096),
            llm=LlmSpec(),
            flops_per_mac=1.0,
        )
        work = WorkloadSpec(kind="image", t_img=1, tiles=1, text_tokens=2048)
        return arch, work, False
    if name == "table4-pvc":
        arch = ArchSpec(
            vit=VitSpec(layers=24, temporal_layers=8,
                        adaln_hidden=1024, te_hidden=1024),
            compression=CompressionSpec(kernel=4, mlp_hidden=4096, out_dim=4096,
                                        adaln_hidden=4096, te_hidden=4096),
            llm=LlmSpec(),
            flops_per_mac=1.0,
        )
        work = WorkloadSpec(kind="image", t_img=4, tiles=1, text_tokens=2048)
        return arch, work, True
    raise ValueError(f"unknown preset {name!r}; "
                     "available: table4-baseline, table4-pvc")


PRESET_NAMES = ("table4-baseline", "table4-pvc")


# ---------------------------------------------------------------------------
# flat config-file loading (key = value, dotted section prefixes)

# Spec fields that may be 0 (no AdaLN, no TE, no temporal layers); every
# other spec field and every workload count is an extent and must be at
# least 1.
_MAY_BE_ZERO = ("adaln_hidden", "te_hidden", "temporal_layers")


def _parse(key: str, value: str, kind: type):
    """kind(value), or a ValueError that starts with the key and the value."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} = {value}: not {what}") from None


def specs_from_entries(entries: dict) -> tuple[ArchSpec, WorkloadSpec]:
    """Build specs from manifest-style entries like `vit.layers = 24`.

    A count or number that does not parse or is out of range is refused
    with a ValueError whose message starts with its key and value.
    """
    arch = ArchSpec()
    work = WorkloadSpec()
    sections = {"workload": work, "vit": arch.vit, "compression": arch.compression,
                "llm": arch.llm}
    for key, value in entries.items():
        section, _, fld = key.partition(".")
        if key == "workload.kind":
            work.kind = value
        elif key == "arch.flops_per_mac":
            arch.flops_per_mac = _parse(key, value, float)
            if not (np.isfinite(arch.flops_per_mac) and arch.flops_per_mac > 0):
                raise ValueError(f"{key} = {value}: must be finite and positive")
        elif section in sections:
            target = sections[section]
            if fld not in target.__dataclass_fields__:
                raise ValueError(f"unknown {section} field {fld!r}")
            n, least = _parse(key, value, int), 0 if fld in _MAY_BE_ZERO else 1
            if n < least:
                raise ValueError(f"{key} = {n}: must be at least {least}")
            setattr(target, fld, n)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if arch.vit.temporal_layers > arch.vit.layers:
        raise ValueError(f"vit.temporal_layers = {arch.vit.temporal_layers} exceeds "
                         f"vit.layers = {arch.vit.layers}")
    if arch.vit.tokens_per_frame < 1:
        raise ValueError(f"vit.image_size = {arch.vit.image_size} is smaller than "
                         f"vit.patch = {arch.vit.patch}: no tokens")
    return arch, work
