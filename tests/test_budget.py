import dataclasses

import numpy as np
import pytest

from pvc import compression, conditioning, tensor, vit
from pvc.budget import (
    ArchSpec,
    CompressionSpec,
    LlmSpec,
    VitSpec,
    WorkloadSpec,
    compare_strategies,
    estimate_flops,
    preset,
    specs_from_entries,
)
from pvc.verification import toy_config


def default_arch(**kw):
    return ArchSpec(**kw)


class TestCountTokens:
    def test_image_default_budget(self):
        arch = ArchSpec(compression=CompressionSpec(kernel=4))
        w = WorkloadSpec(kind="image", t_img=4, tiles=1)
        report = estimate_flops(w, arch)
        assert report.tokens_per_frame == 64
        assert report.visual_tokens == 256

    def test_video_64_frames(self):
        arch = ArchSpec(compression=CompressionSpec(kernel=4))
        w = WorkloadSpec(kind="video", frames=64)
        assert estimate_flops(w, arch).visual_tokens == 4096

    def test_zero_frames_error(self):
        arch = ArchSpec()
        with pytest.raises(ValueError):
            estimate_flops(WorkloadSpec(kind="video", frames=0), arch)

    def test_token_budget_equivalence(self):
        # 4 repeats at ratio 16 == 1 image at ratio 4: both 256 tokens
        a16 = ArchSpec(compression=CompressionSpec(kernel=4))
        a4 = ArchSpec(compression=CompressionSpec(kernel=2))
        t16 = estimate_flops(WorkloadSpec(kind="image", t_img=4), a16)
        t4 = estimate_flops(WorkloadSpec(kind="image", t_img=1), a4)
        assert t16.visual_tokens == t4.visual_tokens == 256


class TestEstimateFlops:
    def test_table4_baseline(self):
        arch, work = preset("table4-baseline")
        report = estimate_flops(work, arch)
        assert abs(report.total - 13.3e12) / 13.3e12 < 0.15
        assert report.visual_tokens == 256

    def test_table4_pvc(self):
        arch, work = preset("table4-pvc")
        report = estimate_flops(work, arch, reuse=True)
        assert abs(report.total - 14.1e12) / 14.1e12 < 0.15
        assert report.visual_tokens == 256

    def test_zero_layers_zero_flops(self):
        arch = ArchSpec(vit=VitSpec(layers=0, temporal_layers=0),
                        compression=CompressionSpec(mlp_hidden=0, out_dim=0),
                        llm=LlmSpec(layers=0))
        report = estimate_flops(WorkloadSpec(), arch)
        assert report.total == 0.0

    def test_totals_are_stage_sums(self):
        arch, work = preset("table4-pvc")
        report = estimate_flops(work, arch, reuse=True)
        assert report.total == sum(report.stages.values())

    def test_monotonicity(self):
        base_arch, work = preset("table4-baseline")
        base = estimate_flops(work, base_arch).total
        for change in ({"llm": LlmSpec(layers=40)},
                       {"llm": LlmSpec(hidden=8192)},
                       {"vit": VitSpec(layers=30, temporal_layers=0,
                                       adaln_hidden=0, te_hidden=0)}):
            arch = dataclasses.replace(base_arch, **change)
            assert estimate_flops(work, arch).total >= base
        more_tokens = dataclasses.replace(work, text_tokens=4096)
        assert estimate_flops(more_tokens, base_arch).total >= base

    def test_reuse_saves_exactly_repeat_factor_on_plain_layers(self):
        arch, work = preset("table4-pvc")
        with_reuse = estimate_flops(work, arch, reuse=True)
        without = estimate_flops(work, arch, reuse=False)
        assert without.stages["vit_plain"] == \
            work.t_img * with_reuse.stages["vit_plain"]
        # the first temporal layer's S-MHA and AdaLN x-side GEMMs run once
        # per tile, not per repeat
        n, d, a = arch.vit.tokens_per_frame, arch.vit.hidden, arch.vit.adaln_hidden
        held = arch.flops_per_mac * (4 * n * d * d + 2 * n * n * d + 2 * n * d * a)
        assert without.stages["vit_temporal"] - with_reuse.stages["vit_temporal"] \
            == (work.t_img - 1) * work.tiles * held
        assert without.stages["compression"] == with_reuse.stages["compression"]

    def test_invalid_workload_kind(self):
        with pytest.raises(ValueError):
            estimate_flops(WorkloadSpec(kind="audio"), ArchSpec())


def executed_macs(monkeypatch, run) -> int:
    """The MACs of run(): every GEMM through `linear`, plus 2·S·L²·C for the
    scores and values of each attention input [S, L, C]."""
    macs = [0]

    def count(real):
        def linear(a, w, *args, **kwargs):
            macs[0] += a.size // a.shape[-1] * w.shape[0] * w.shape[1]
            return real(a, w, *args, **kwargs)
        return linear

    def attention(real):
        def attend(a, p, cache=None):
            macs[0] += 2 * a.shape[0] * a.shape[1] ** 2 * a.shape[2]
            return real(a, p, cache)
        return attend

    with monkeypatch.context() as m:
        for module in (tensor, vit, conditioning):  # every namespace `linear` is called through
            m.setattr(module, "linear", count(module.linear))
        for name in ("spatial_mha", "temporal_mha_causal"):
            m.setattr(vit, name, attention(getattr(vit, name)))
        run()
    return macs[0]


def toy_arch(cfg, compression: CompressionSpec | None = None) -> ArchSpec:
    """The budget's specs of a toy PvcConfig, counted in MACs."""
    c = cfg.channels
    return ArchSpec(vit=VitSpec(layers=cfg.layers, temporal_layers=cfg.temporal_layers,
                                hidden=c, heads=cfg.heads, ffn=cfg.ffn_dim,
                                patch=cfg.patch_size, image_size=cfg.image_size,
                                adaln_hidden=c, te_hidden=c),
                    compression=compression or CompressionSpec(kernel=cfg.shuffle_kernel),
                    flops_per_mac=1.0)


class TestBudgetMatchesForward:
    # tiles ride the batch axis, each a video of t_img frames
    B, T = 2, 4

    def test_static_saving_equals_the_macs_the_forward_skips(self, monkeypatch):
        cfg, b, t = toy_config(), self.B, self.T
        model = vit.init_model(70, cfg)
        frame = tensor.Rng(71).normal((b, 1, cfg.tokens_per_frame, cfg.channels))
        held = np.broadcast_to(frame, (b, t, *frame.shape[2:]))
        skipped = (executed_macs(monkeypatch, lambda: vit.vit_forward(held.copy(), cfg, model))
                   - executed_macs(monkeypatch, lambda: vit.vit_forward(held, cfg, model)))
        work = WorkloadSpec(kind="image", t_img=t, tiles=b)
        full, reused = (estimate_flops(work, toy_arch(cfg), reuse=r).stages
                        for r in (False, True))
        saved = sum(full[s] - reused[s] for s in ("vit_plain", "vit_temporal"))
        assert skipped > 0 and saved == skipped

    def test_moving_forward_executes_the_vit_stages(self, monkeypatch):
        cfg, b, t = toy_config(), self.B, self.T
        model = vit.init_model(70, cfg)
        x = tensor.Rng(72).normal((b, t, cfg.tokens_per_frame, cfg.channels))
        stages = estimate_flops(WorkloadSpec(kind="image", t_img=t, tiles=b),
                                toy_arch(cfg)).stages
        assert (executed_macs(monkeypatch, lambda: vit.vit_forward(x, cfg, model))
                == stages["vit_plain"] + stages["vit_temporal"])

    def test_compress_executes_the_compression_stage(self, monkeypatch):
        # k = 3 and C = 32: C, k²C = 288 and the derived width 72 all differ
        cfg, b, t = toy_config(image_size=84, shuffle_kernel=3), self.B, self.T
        p = compression.init_compression(tensor.Rng(73), cfg)
        x = tensor.Rng(74).normal((b, t, cfg.tokens_per_frame, cfg.channels))
        spec = CompressionSpec(kernel=cfg.shuffle_kernel, mlp_hidden=p.w_in.shape[1],
                               out_dim=p.w_out.shape[1], adaln_hidden=p.adaln.w3.shape[1],
                               te_hidden=p.te.w1.shape[1])
        stages = estimate_flops(WorkloadSpec(kind="image", t_img=t, tiles=b),
                                toy_arch(cfg, spec)).stages
        assert (executed_macs(monkeypatch, lambda: compression.compress(x, p, cfg))
                == stages["compression"])


class TestCompare:
    def test_identical_reports_zero_delta(self):
        arch, work = preset("table4-baseline")
        r = estimate_flops(work, arch)
        cmp = compare_strategies([r, r])
        assert cmp.delta_vs_first == [0.0, 0.0]

    def test_table4_pair_delta(self):
        b_arch, b_work = preset("table4-baseline")
        p_arch, p_work = preset("table4-pvc")
        base = estimate_flops(b_work, b_arch)
        pvc = estimate_flops(p_work, p_arch, reuse=True)
        cmp = compare_strategies([base, pvc], names=["baseline", "pvc"])
        assert abs(cmp.delta_vs_first[1] - 0.06) < 0.02
        assert "baseline.flops.total" in cmp.format_text()

    def test_three_reports_multiplicative_consistency(self):
        arch, work = preset("table4-baseline")
        a = estimate_flops(work, arch)
        arch2 = dataclasses.replace(arch, llm=LlmSpec(layers=36))
        b = estimate_flops(work, arch2)
        arch3 = dataclasses.replace(arch, llm=LlmSpec(layers=40))
        c = estimate_flops(work, arch3)
        d_ab = 1.0 + compare_strategies([a, b]).delta_vs_first[1]
        d_bc = 1.0 + compare_strategies([b, c]).delta_vs_first[1]
        d_ac = 1.0 + compare_strategies([a, c]).delta_vs_first[1]
        assert abs(d_ab * d_bc - d_ac) < 1e-12

    def test_single_report_rejected(self):
        arch, work = preset("table4-baseline")
        with pytest.raises(ValueError):
            compare_strategies([estimate_flops(work, arch)])

    def test_workload_mismatch_rejected(self):
        arch, work = preset("table4-baseline")
        a = estimate_flops(work, arch)
        b = estimate_flops(dataclasses.replace(work, kind="video", frames=8), arch)
        with pytest.raises(ValueError):
            compare_strategies([a, b])


class TestConfigEntries:
    def test_round_trip_fields(self):
        arch, work = specs_from_entries({
            "vit.layers": "12", "vit.hidden": "512",
            "compression.kernel": "2", "llm.layers": "8",
            "workload.kind": "video", "workload.frames": "16",
            "workload.text_tokens": "100", "arch.flops_per_mac": "1",
        })
        assert arch.vit.layers == 12 and arch.vit.hidden == 512
        assert arch.compression.kernel == 2 and arch.llm.layers == 8
        assert arch.flops_per_mac == 1.0
        assert work.kind == "video" and work.frames == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            specs_from_entries({"nope.field": "1"})
        # no FLOPs term reads the LLM's head count, so it is no field
        with pytest.raises(ValueError, match="unknown llm field 'heads'"):
            specs_from_entries({"llm.heads": "32"})

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("table9")
