"""Walk through the progressive encoder on a toy model.

The stack starts as a plain per-frame ViT: every temporal branch is
gated by a per-channel multiplier that is zero at initialization. This
script shows that identity, then opens the gates and shows how frames
start to see their predecessors (and only their predecessors).
"""
import numpy as np

from pvc.tensor import Rng
from pvc.verification import randomize_gates, toy_config
from pvc.vit import init_model, plain_vit_forward, vit_forward


def main():
    cfg = toy_config()
    print(f"toy config: {cfg.layers} layers ({cfg.temporal_layers} temporal), "
          f"{cfg.tokens_per_frame} tokens/frame, {cfg.channels} channels")

    model = init_model(seed=0, cfg=cfg)
    rng = Rng(1)
    x = rng.normal((1, 4, cfg.tokens_per_frame, cfg.channels))

    # 1. at init the gates are zero, so the stack is the plain ViT
    out = vit_forward(x, cfg, model)
    ref = plain_vit_forward(x, model)
    print(f"\nzero-gate vs plain per-frame ViT: "
          f"max |diff| = {np.max(np.abs(out - ref)):.3e}")

    # 2. open the gates: frames now interact through temporal attention
    randomize_gates(model, Rng(2))
    out = vit_forward(x, cfg, model)
    print(f"after opening gates:              "
          f"max |diff| = {np.max(np.abs(out - ref)):.3e}")

    # 3. but only backwards in time. Perturb frame 2 and watch which
    #    frames move.
    xp = x.copy()
    xp[:, 2] += rng.normal(xp[:, 2].shape)
    moved = vit_forward(xp, cfg, model)
    print("\nperturbing frame 2:")
    for t in range(4):
        d = np.max(np.abs(moved[:, t] - out[:, t]))
        print(f"  frame {t}: max |change| = {d:.3e}"
              + ("  (unaffected)" if d == 0.0 else ""))


if __name__ == "__main__":
    main()
