"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite doubles as a
human-readable report when run with `pytest -v -s tests/test_acceptance.py`.
"""
import time

import numpy as np

from pvc import io
from pvc.budget import WorkloadSpec, compare_strategies, estimate_flops, preset
from pvc.compression import compress, init_compression, pixel_shuffle, pixel_unshuffle
from pvc.tensor import Rng
from pvc.verification import (
    CHECKED_MODULES,
    check_causality,
    check_init_identity,
    toy_config,
)
from pvc.vit import PvcConfig, init_model, vit_forward


def _verdict(label, ok, detail=""):
    line = f"{label}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_zero_gate_stack_matches_plain_vit():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        ok, diff = check_init_identity(seed)
        worst = max(worst, diff)
        assert ok
    elapsed = time.monotonic() - start
    _verdict("zero-gate init identity (20 seeds)",
             worst <= 1e-15 and elapsed < 10.0,
             f"max diff {worst:.2e}, {elapsed:.1f}s")


def test_02_frame_causality_forward_and_gradient():
    start = time.monotonic()
    ok, details = check_causality(seed=0)
    elapsed = time.monotonic() - start
    _verdict("frame causality (forward and gradient)",
             ok and details["forward_leak"] <= 1e-12
             and details["grad_leak"] == 0.0 and elapsed < 30.0,
             f"forward leak {details['forward_leak']:.2e}, "
             f"grad leak {details['grad_leak']:.2e}, {elapsed:.1f}s")


def test_03_gradient_checks_all_modules(grad_check_sweep):
    reports, elapsed = grad_check_sweep
    worst = {}
    for module in CHECKED_MODULES:
        report = reports[module]
        worst[module] = max(e.max_rel_err for e in report.entries)
        assert report.passed
    top = max(worst.values())
    _verdict(f"gradient checks ({len(CHECKED_MODULES)} modules)",
             top < 1e-6 and elapsed < 120.0,
             f"max rel err {top:.2e}, {elapsed:.1f}s")


def test_04_pixel_shuffle_oracle_and_inverse():
    def oracle(x, k):
        b, t, n, c = x.shape
        side = int(round(np.sqrt(n)))
        m = side // k
        out = np.zeros((b, t, m * m, k * k * c))
        for bi in range(b):
            for ti in range(t):
                for br in range(m):
                    for bc in range(m):
                        parts = [x[bi, ti, (br * k + rk) * side + (bc * k + ck)]
                                 for rk in range(k) for ck in range(k)]
                        out[bi, ti, br * m + bc] = np.concatenate(parts)
        return out

    gen = np.random.Generator(np.random.Philox(123))
    ok = True
    for _ in range(100):
        k = gen.integers(1, 5)
        m = gen.integers(1, 16 // k + 1)
        side = m * k
        c = gen.integers(1, 4)
        x = gen.standard_normal((1, 2, side * side, c))
        out = pixel_shuffle(x, k)
        ok = ok and np.array_equal(out, oracle(x, k))
        ok = ok and np.array_equal(pixel_unshuffle(out, k), x)
    _verdict("pixel shuffle vs brute-force oracle (100 trials, bitwise)", ok)


def test_05_token_arithmetic():
    cfg = PvcConfig()
    per_frame = cfg.tokens_per_frame // cfg.shuffle_kernel ** 2
    arch, work = preset("table4-pvc")
    image = estimate_flops(work, arch)
    video = estimate_flops(WorkloadSpec(kind="video", frames=64), arch)
    ok = (cfg.tokens_per_frame == 1024 and per_frame == 64
          and image.visual_tokens == 256 and video.visual_tokens == 4096)
    _verdict("token arithmetic 1024 -> 64/frame, 256/image, 4096/64-frame video",
             ok)


def test_06_flops_budget():
    start = time.monotonic()
    b_arch, b_work = preset("table4-baseline")
    p_arch, p_work = preset("table4-pvc")
    base = estimate_flops(b_work, b_arch)
    pvc = estimate_flops(p_work, p_arch, reuse=True)
    delta = compare_strategies([base, pvc]).delta_vs_first[1]
    elapsed = time.monotonic() - start
    ok = (abs(base.total - 13.3e12) / 13.3e12 < 0.15
          and abs(pvc.total - 14.1e12) / 14.1e12 < 0.15
          and abs(delta - 0.06) < 0.02
          and elapsed < 1.0)
    _verdict("flops budget",
             ok,
             f"baseline {base.total / 1e12:.2f}T, pvc {pvc.total / 1e12:.2f}T, "
             f"delta {delta * 100:+.2f}%")


def test_07_static_frames_distinct_iff_conditioned():
    cfg = toy_config()
    min_dist = np.inf
    for seed in range(20):
        rng = Rng(1000 + seed)
        params = init_compression(rng, cfg)
        frame = rng.normal((1, 1, cfg.tokens_per_frame, cfg.channels))
        out = compress(np.repeat(frame, 4, axis=1), params, cfg)
        for a in range(4):
            for b in range(a + 1, 4):
                min_dist = min(min_dist,
                               float(np.linalg.norm(out[0, a] - out[0, b])))

    rng = Rng(2000)
    params = init_compression(rng, cfg)
    for w in (params.adaln.w3, params.adaln.w4, params.adaln.w5,
              params.adaln.w6):
        w[...] = 0.0
    frame = rng.normal((1, 1, cfg.tokens_per_frame, cfg.channels))
    out = compress(np.repeat(frame, 4, axis=1), params, cfg)
    identical = all(np.array_equal(out[:, 0], out[:, j]) for j in range(1, 4))

    _verdict("static frames distinct iff conditioned",
             min_dist > 1e-6 and identical,
             f"min pairwise L2 {min_dist:.2e} conditioned, "
             f"bitwise identical unconditioned: {identical}")


def test_08_determinism_and_lossless_serialization(tmp_path):
    cfg = toy_config()
    outputs = []
    for _ in range(2):
        model = init_model(7, cfg)
        rng = Rng(8)
        x = rng.normal((1, 3, cfg.tokens_per_frame, cfg.channels))
        y = vit_forward(x, cfg, model)
        comp = init_compression(Rng(9), cfg)
        z = compress(y, comp, cfg)
        outputs.append((y, z))
    deterministic = (np.array_equal(outputs[0][0], outputs[1][0])
                     and np.array_equal(outputs[0][1], outputs[1][1]))

    lossless = True
    for i, arr in enumerate(outputs[0]):
        path = tmp_path / f"artifact{i}.pvct"
        io.write_tensor(path, arr)
        lossless = lossless and np.array_equal(io.read_tensor(path), arr)

    _verdict("determinism and lossless tensor round trip",
             deterministic and lossless)
