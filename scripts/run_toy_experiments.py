#!/usr/bin/env python3
"""Paired toy-training study: consistency loss on/off, both phi variants.

For each seed, trains the tiny segmentation head with and without the
category consistent loss and reports final pixel accuracy, intra-class
feature variance, and inter-class center distance, plus aggregate success
rates per phi variant.
"""

import argparse
import math

from crisscross.losses import CCLConfig
from crisscross.toytrain import gen_toy, train_toy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--h", type=int, default=12)
    ap.add_argument("--w", type=int, default=12)
    ap.add_argument("--k", type=int, default=3, help="number of classes")
    args = ap.parse_args()

    header = ("seed variant ccl ok pixel_acc intra_var inter_dist").split()
    print(",".join(header))
    success = {"piecewise": 0, "quadratic": 0}
    ccl_wins = 0
    for seed in range(args.seeds):
        task = gen_toy(seed, n=2, h=args.h, w=args.w, k=args.k)
        finals = {}
        for variant in ("piecewise", "quadratic"):
            cfg = CCLConfig(phi_variant=variant)
            for use_ccl in (True, False):
                if variant == "quadratic" and not use_ccl:
                    continue  # the no-CCL baseline is variant-independent
                res = train_toy(task, init_seed=seed + 1000,
                                epochs=args.epochs, use_ccl=use_ccl, cfg=cfg)
                # the last recorded epoch; a run that fails at epoch 0 has none
                last = res.metrics[-1] if res.metrics else None
                acc, intra, inter = ((last.pixel_acc, last.intra_var, last.inter_dist)
                                     if last else (math.nan,) * 3)
                print(f"{seed},{variant},{'on' if use_ccl else 'off'},"
                      f"{not res.failed},{acc:.4f},{intra:.4f},{inter:.4f}")
                if use_ccl and not res.failed:
                    success[variant] += 1
                finals[(variant, use_ccl)] = (res.failed, intra)
        on = finals[("piecewise", True)]
        off = finals[("piecewise", False)]
        if not on[0] and not off[0] and on[1] <= off[1]:
            ccl_wins += 1

    print(f"# success piecewise {success['piecewise']}/{args.seeds}, "
          f"quadratic {success['quadratic']}/{args.seeds}; "
          f"CCL lowers intra-class variance on {ccl_wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
