#!/usr/bin/env python3
"""Gap statistics over random Slater-satisfying box programs; every instance
whose dual status is not "optimal" is printed and counted."""
import argparse
import time

import numpy as np

from conegen.duality import duality_gap_report, random_box_program


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    t0 = time.time()
    gaps = []
    dual_failures = 0
    for k in range(args.instances):
        prog, e = random_box_program(rng, kind="qp" if k % 2 == 0 else "lp")
        rep = duality_gap_report(prog, e)
        if rep.dual_status != "optimal":
            dual_failures += 1
            print(f"instance {k}: dual_status={rep.dual_status}")
        if rep.primal_status != "optimal" or not rep.slater.satisfied:
            print(f"instance {k}: status={rep.primal_status} "
                  f"slater={rep.slater.satisfied}")
            continue
        gaps.append(abs(rep.gap))
        if not rep.gap_ok:
            print(f"instance {k}: gap {rep.gap} exceeded the asserted bound")
    gaps = np.array(gaps)
    print(f"{args.instances} instances in {time.time() - t0:.2f}s")
    print(f"gap: median {np.median(gaps):.2e} max {gaps.max():.2e}")
    print(f"dual status not optimal: {dual_failures}")


if __name__ == "__main__":
    main()
