import numpy as np
import pytest

from pvc import verification
from pvc.compression import compress, init_compression
from pvc.conditioning import (
    ada_ln,
    adaln_condition,
    init_adaln,
    init_temporal_embedding,
    relative_timestamps,
    sinusoidal_embed,
    temporal_embedding,
)
from pvc.tensor import Rng, layer_norm, silu, silu_mlp
from pvc.verification import (
    CHECKED_MODULES,
    check_causality,
    check_init_identity,
    finite_diff_grad,
    run_grad_check,
    stack_input_gradient,
    toy_config,
    randomize_gates,
)
from pvc.vit import (
    init_attention,
    init_layer,
    init_model,
    layer_te,
    named_params,
    progressive_layer_forward,
    spatial_mha,
    temporal_mha_causal,
    vit_forward,
)

ATTENTION_ENTRIES = ["wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo"]


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-6

    def test_linear_exact(self):
        g = finite_diff_grad(lambda x: float(np.sum(x)), Rng(1).normal((5,)))
        assert np.allclose(g, 1.0, atol=1e-10)

    def test_silu_derivative_at_zero(self):
        g = finite_diff_grad(lambda x: float(silu(x)[0]), np.array([0.0]))
        assert abs(g[0] - 0.5) < 1e-9

    def test_non_finite_raises(self):
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda x: float("nan"), np.zeros(1))


class TestGradCheckRunner:
    @pytest.mark.parametrize("module", ["adaln", "temporal_embedding"])
    def test_passes(self, module):
        report = run_grad_check(module, seed=7)
        assert report.passed
        assert all(e.max_rel_err < 1e-6 for e in report.entries)

    def test_deterministic(self):
        a = run_grad_check("adaln", seed=3)
        b = run_grad_check("adaln", seed=3)
        assert [e.max_rel_err for e in a.entries] == [e.max_rel_err for e in b.entries]

    def test_unsatisfiable_tolerance_fails(self):
        report = run_grad_check("adaln", seed=7, tol=1e-30)
        assert not report.passed
        assert "FAIL" in report.format_text()

    def test_unknown_module(self):
        with pytest.raises(ValueError):
            run_grad_check("nope", seed=0)

    def test_report_lists_every_tensor(self, grad_check_sweep):
        # the report order is the probe inputs, then named_params order; the
        # names do not depend on the seed, so the shared seed-0 sweep serves
        expected = {
            "adaln": ["x", "te", "w3", "w4", "w5", "w6"],
            "temporal_embedding": ["t_tilde", "w1", "w2"],
            "tmha_causal": ["x", *ATTENTION_ENTRIES],
            "progressive_layer": [
                "x", "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta",
                "ffn_w_in", "ffn_b_in", "ffn_w_out", "ffn_b_out",
                *(f"smha.{k}" for k in ATTENTION_ENTRIES),
                *(f"tmha.{k}" for k in ATTENTION_ENTRIES),
                "adaln.w3", "adaln.w4", "adaln.w5", "adaln.w6",
                "te.w1", "te.w2", "gate_alpha"],
            "compression": ["x", "adaln.w3", "adaln.w4", "adaln.w5", "adaln.w6",
                            "te.w1", "te.w2", "w_in", "b_in", "w_out", "b_out"],
        }
        assert set(expected) == set(CHECKED_MODULES)
        reports, _ = grad_check_sweep
        for module, names in expected.items():
            assert [e.name for e in reports[module].entries] == names, module

    def test_runs_the_forward_once_before_finite_differences(self, monkeypatch):
        # one forward fills the cache the backward reads, then two per
        # probed coordinate
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return progressive_layer_forward(*args, **kwargs)

        monkeypatch.setattr(verification, "progressive_layer_forward", spy)
        report = run_grad_check("progressive_layer", 0)
        probed = sum(int(np.prod(e.shape)) for e in report.entries)
        assert len(calls) == 1 + 2 * probed == 6721

    @pytest.mark.parametrize("module", CHECKED_MODULES)
    def test_every_analytic_gradient_has_its_tensors_shape(self, module):
        # _rel_err broadcasts, so a (1, C) gradient checked against a (C,)
        # tensor would pass the comparison unnoticed
        inputs, params, forward, backward = verification._probe(module, 0)
        cache = {}
        out = forward(cache)
        *input_grads, param_grads = backward(np.ones_like(out), cache)
        assert type(param_grads) is type(params)
        assert [g.shape for g in input_grads] == [x.shape for x in inputs.values()]
        assert ([(name, g.shape) for name, g in named_params(param_grads)]
                == [(name, a.shape) for name, a in named_params(params)])


def _cache_forwards():
    """(name, forward taking a cache keyword) for every forward that fills one."""
    cfg = toy_config(channels=8, heads=2, ffn_dim=16, image_size=28,
                     temporal_layers=1, layers=1)
    rng = Rng(41)
    layer = init_layer(rng, cfg, temporal=True)
    layer.gate_alpha[...] = rng.normal(layer.gate_alpha.shape, 0.5)
    plain = init_layer(rng, cfg, temporal=False)
    tokens = rng.normal((2, 3, cfg.tokens_per_frame, 8))
    x = rng.normal((2, 3, 8))
    x4, te_rows = rng.normal((2, 3, 4, 8)), rng.normal((3, 8))
    adaln, te = init_adaln(rng, 8), init_temporal_embedding(rng, 8)
    attn = init_attention(rng, 8, 2)
    comp_cfg = toy_config(image_size=42, channels=3, heads=1, ffn_dim=6, layers=1,
                          temporal_layers=0, shuffle_kernel=3)
    comp = init_compression(rng, comp_cfg)
    comp_tokens = rng.normal((1, 2, comp_cfg.tokens_per_frame, 3))
    t_tilde = sinusoidal_embed(relative_timestamps(3))
    return [
        ("layer_norm", lambda cache: layer_norm(x, gamma=layer.ln1_gamma + 0.5,
                                                beta=layer.ln1_beta + 0.1, cache=cache)),
        ("silu_mlp", lambda cache: silu_mlp(x, layer.ffn_w_in, layer.ffn_w_out,
                                            layer.ffn_b_in, layer.ffn_b_out, cache)),
        ("temporal_embedding", lambda cache: temporal_embedding(t_tilde, te, cache)),
        ("layer_te", lambda cache: layer_te(3, layer, cache)),
        ("ada_ln", lambda cache: ada_ln(x4, adaln_condition(te_rows, adaln), adaln,
                                            cache=cache)),
        ("spatial_mha", lambda cache: spatial_mha(x, attn, cache)),
        ("temporal_mha_causal", lambda cache: temporal_mha_causal(x, attn, cache)),
        ("progressive_layer_forward", lambda cache: progressive_layer_forward(
            tokens, 3, layer, cache)),
        ("plain_layer_forward", lambda cache: progressive_layer_forward(
            tokens, 3, plain, cache)),
        ("compress", lambda cache: compress(comp_tokens, comp, comp_cfg, cache)),
    ]


CACHE_FORWARDS = _cache_forwards()


@pytest.mark.parametrize("name, forward", CACHE_FORWARDS,
                         ids=[name for name, _ in CACHE_FORWARDS])
def test_cache_leaves_forward_output_unchanged(name, forward):
    cache = {}
    filled = forward(cache)
    assert cache, f"{name} recorded nothing"
    assert np.array_equal(filled, forward(None))


class TestProgressiveLayerBackward:
    def _setup(self, seed):
        cfg = toy_config(channels=8, heads=2, ffn_dim=16,
                         image_size=28, temporal_layers=1, layers=1)
        rng = Rng(seed)
        p = init_layer(rng, cfg, temporal=True)
        p.gate_alpha[...] = rng.normal(p.gate_alpha.shape, 0.5)
        x = rng.normal((1, 3, cfg.tokens_per_frame, 8))
        return cfg, p, x

    def test_zero_upstream_zero_grads(self):
        cfg, p, x = self._setup(42)
        cache = {}
        progressive_layer_forward(x, 3, p, cache)
        dx, grads = verification._layer_bwd(np.zeros_like(x), p, cache)
        for g in [dx, *(g for _, g in named_params(grads))]:
            assert np.array_equal(g, np.zeros_like(g))

    def test_zero_gate_alpha_grad_vs_finite_difference(self):
        # with alpha = 0 the temporal branch contributes nothing forward,
        # yet d(loss)/d(alpha) is nonzero: sum of upstream * T-MHA output
        cfg, p, x = self._setup(43)
        p.gate_alpha[...] = 0.0
        g_up = Rng(44).normal(x.shape)
        g_up *= 1e-4 / float(np.sum(np.abs(g_up)))
        cache = {}
        progressive_layer_forward(x, 3, p, cache)
        _, grads = verification._layer_bwd(g_up, p, cache)
        assert np.max(np.abs(grads.gate_alpha)) > 0.0

        def loss(alpha):
            p.gate_alpha[...] = alpha
            out = progressive_layer_forward(x, 3, p)
            return float(np.sum(out * g_up))

        fd = finite_diff_grad(loss, np.zeros_like(p.gate_alpha))
        p.gate_alpha[...] = 0.0
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grads.gate_alpha - fd) / denom) < 1e-6

    def test_gradient_causality_exact(self):
        cfg, p, x = self._setup(45)
        t = x.shape[1]
        cache = {}
        progressive_layer_forward(x, t, p, cache)
        for j in range(t - 1):
            up = np.zeros_like(x)
            up[:, j] = Rng(46 + j).normal(up[:, j].shape)
            g = verification._layer_bwd(up, p, cache)[0]
            assert np.max(np.abs(g[:, j + 1:])) == 0.0
            assert np.max(np.abs(g[:, j])) > 0.0


class TestStackChecks:
    def test_init_identity(self):
        ok, diff = check_init_identity(5)
        assert ok and diff < 1e-15

    def test_causality(self):
        ok, details = check_causality(5)
        assert ok
        assert details["grad_leak"] == 0.0

    def test_stack_gradient_runs_each_layer_forward_once(self, monkeypatch):
        cfg = toy_config(layers=3, temporal_layers=2, channels=8, heads=2,
                         ffn_dim=16, image_size=28)
        model = init_model(49, cfg)
        x = Rng(50).normal((1, 2, cfg.tokens_per_frame, 8))
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return progressive_layer_forward(*args, **kwargs)

        monkeypatch.setattr(verification, "progressive_layer_forward", spy)
        stack_input_gradient(x, model, np.ones_like(x))
        assert len(calls) == cfg.layers

    def test_stack_gradient_matches_finite_difference_probe(self):
        cfg = toy_config(layers=2, temporal_layers=1, channels=8, heads=2,
                         ffn_dim=16, image_size=28)
        model = init_model(47, cfg)
        rng = Rng(48)
        randomize_gates(model, rng)
        x = rng.normal((1, 2, cfg.tokens_per_frame, 8))
        g_up = rng.normal(x.shape)
        g_up *= 1e-4 / float(np.sum(np.abs(g_up)))
        g = stack_input_gradient(x, model, g_up)

        # probe a handful of coordinates against central differences
        h = 1e-5
        for idx in [(0, 0, 0, 0), (0, 1, 1, 3), (0, 0, 3, 7)]:
            orig = x[idx]
            x[idx] = orig + h
            fp = float(np.sum(vit_forward(x, cfg, model) * g_up))
            x[idx] = orig - h
            fm = float(np.sum(vit_forward(x, cfg, model) * g_up))
            x[idx] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(g[idx] - fd) / max(abs(fd), 1e-8) < 1e-6
