"""Progressive visual token compression at desk scale.

A numpy-backed implementation of the progressive-encoding ViT, the
adaptive token compression head, the input-standardization pipeline, a
gradient/causality verification harness, and an analytic token/FLOPs
budget model.
"""
from .budget import ArchSpec, BudgetReport, WorkloadSpec, estimate_flops
from .compression import CompressionParams, compress, init_compression, pixel_shuffle, pixel_unshuffle
from .conditioning import (
    AdaLnCondition,
    AdaLnParams,
    TemporalEmbeddingParams,
    ada_ln,
    adaln_condition,
    relative_timestamps,
    sinusoidal_embed,
    temporal_embedding,
)
from .tensor import Rng, layer_norm, linear, silu
from .verification import (
    check_causality,
    check_init_identity,
    finite_diff_grad,
    run_grad_check,
    toy_config,
)
from .vit import (
    LayerParams,
    ModelParams,
    PvcConfig,
    init_model,
    patchify,
    progressive_layer_forward,
    spatial_mha,
    temporal_mha_causal,
    vit_forward,
)

__version__ = "0.1.0"
