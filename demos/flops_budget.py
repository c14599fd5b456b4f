"""Analytic token and FLOPs accounting.

Compares two ways to spend a fixed budget of 256 visual tokens on one
448x448 image: a single lightly-compressed frame versus four strongly
compressed repeats of the same frame. The repeats cost only a little
more because identical frames share the plain encoder layers and the
first temporal layer's spatial attention.
"""
from pvc.budget import compare_strategies, count_tokens, estimate_flops, preset


def main():
    b_arch, b_work, b_reuse = preset("table4-baseline")
    p_arch, p_work, p_reuse = preset("table4-pvc")

    for name, (arch, work, reuse) in (("baseline", (b_arch, b_work, b_reuse)),
                                      ("progressive", (p_arch, p_work, p_reuse))):
        tokens = count_tokens(work, arch)
        print(f"{name}: kernel {arch.compression.kernel}, "
              f"{tokens.per_frame} tokens/frame x {tokens.streams} frame(s) "
              f"= {tokens.visual_total} visual tokens")

    base = estimate_flops(b_work, b_arch, reuse=b_reuse)
    prog = estimate_flops(p_work, p_arch, reuse=p_reuse)
    print()
    print(compare_strategies([base, prog],
                             names=["baseline", "progressive"]).format_text())

    # what the reuse modeling buys: without it, the plain layers and the
    # first temporal layer's S-MHA run once per repeated frame, not per tile
    no_reuse = estimate_flops(p_work, p_arch, reuse=False)
    saved = no_reuse.total - prog.total
    print(f"\nencoder reuse saves {saved / 1e12:.2f} TFLOPs "
          f"({saved / no_reuse.total * 100:.1f}% of the no-reuse total)")


if __name__ == "__main__":
    main()
