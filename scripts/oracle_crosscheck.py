"""Cross-validate the closed-form distribution against the 3-qubit oracle.

Samples random direction profiles, reports the worst entrywise disagreement
between the analytic probabilities and the brute-force Hilbert-space
computation, and tallies how often the distribution factorizes into
independent mixed strategies (it essentially never does for random profiles).

Run:  python scripts/oracle_crosscheck.py [--profiles N] [--rng-seed S]
"""

import argparse
import math

import numpy as np

from ghzgames import game, ghz, oracle, random_direction
from ghzgames.core import OUTCOMES, DirectionProfile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", type=int, default=2000)
    parser.add_argument("--rng-seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.rng_seed)
    worst_diff = 0.0
    worst_sum = 0.0
    worst_marginal = 0.0
    consistent = 0
    for _ in range(args.profiles):
        profile = DirectionProfile(random_direction(rng), random_direction(rng), random_direction(rng))
        analytic = ghz.joint_distribution(profile)
        reference = oracle.joint_distribution_oracle(profile)
        worst_diff = max(worst_diff, max(abs(analytic[o] - reference[o]) for o in OUTCOMES))
        worst_sum = max(worst_sum, abs(math.fsum(analytic[o] for o in OUTCOMES) - 1.0))
        plus, minus = ghz.marginal_single(profile, "A")
        worst_marginal = max(worst_marginal, abs(plus - 0.5), abs(minus - 0.5))
        if game.factorize(profile).consistent:
            consistent += 1

    print(f"profiles sampled:            {args.profiles}")
    print(f"max |analytic - oracle|:     {worst_diff:.3e}")
    print(f"max |sum - 1|:               {worst_sum:.3e}")
    print(f"max single-marginal dev:     {worst_marginal:.3e}")
    print(f"factorizable profiles:       {consistent}")
    print()
    print("The joint distribution is inherently non-factorizable away from")
    print("the measure-zero set where all pairwise third-component products")
    print("and the three-way correlation vanish; there the unique product")
    print("solution is (1/2, 1/2, 1/2).")


if __name__ == "__main__":
    main()
