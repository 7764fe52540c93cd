#!/usr/bin/env python3
"""Edge counts of random bar layouts and weights of greedy pattern avoiders.

Part one samples random layouts and reports how close their edge counts get
to the (2s+3)n ceiling.  Part two grows greedy maximal avoiders of the
(r, s) pattern family and compares their weights with the closed-form
bound (3s+3+r)n + (r-1)(2s+3)(n-r), printing the observed ratio.

Usage:
    python3 scripts/visibility_experiment.py [--trials 200] [--seed 1] [--max-n 14]
"""

import argparse
import random

from exmat import avoider_weight_bound, sweep_edges
from exmat.patterns import TrsParams, generate_T
from exmat.verify import greedy_avoider, random_layout


def edge_density(trials, seed, max_n):
    rng = random.Random(seed)
    print("== edge counts vs (2s+3)n ==")
    print("s,n,edges,bound,ratio")
    best = {}
    for _ in range(trials):
        n = rng.randint(4, max_n * 3)
        s = rng.randint(0, 3)
        lay = random_layout(rng, n, s)
        edges = len(sweep_edges(lay))
        bound = (2 * s + 3) * n
        key = s
        if key not in best or edges / bound > best[key][2] / best[key][3]:
            best[key] = (s, n, edges, bound)
    for s in sorted(best):
        s_, n, e, b = best[s]
        print(f"{s_},{n},{e},{b},{e / b:.3f}")


def avoider_weights(seed, max_n):
    rng = random.Random(seed)
    print("== greedy avoider weight vs closed-form bound ==")
    print("r,s,n,weight,bound,ratio")
    for r, s in ((1, 0), (2, 0), (1, 1), (3, 1)):
        fam = generate_T(TrsParams(r, s))
        for n in range(max(4, r + s + 2), max_n + 1, 3):
            mat = greedy_avoider(rng, n, n, fam)
            weight, bound = mat.weight, avoider_weight_bound(n, r, s)
            print(f"{r},{s},{n},{weight},{bound},{weight / bound:.3f}")
            assert weight <= bound


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=14)
    args = ap.parse_args()
    edge_density(args.trials, args.seed, args.max_n)
    avoider_weights(args.seed, args.max_n)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
