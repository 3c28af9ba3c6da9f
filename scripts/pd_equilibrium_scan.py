"""Equilibrium structure of the canonical three-player dilemma.

Prints the game invariants, the verdicts for the landmark profiles, and the
fixed points reached by best-response dynamics from random starts.  The found
fixed points for these payoffs lie on a two-surface: in-plane azimuths summing
to zero (mod 2*pi) paired with third components on za+zb+zc+za*zb*zc = 0.

Run:  python scripts/pd_equilibrium_scan.py [--seeds N] [--rng-seed S]
"""

import argparse
import math

from ghzgames import nash
from ghzgames.core import Direction, DirectionProfile, SymmetricGame, X_AXIS, Z_AXIS

PD = SymmetricGame(alpha=7, beta=9, delta=3, epsilon=0, theta=5, omega=1)


def azimuth(d: Direction) -> float:
    return math.atan2(d.a2, d.a1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--rng-seed", type=int, default=0)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.rng_seed < 0:
        parser.error("--rng-seed must be >= 0")

    print(f"payoff constants: {PD.constants()}")
    print(f"dilemma gate: {nash.check_pd(PD)}")
    print(f"invariants: {nash.gammas(PD)}")
    print()

    minus_z = Direction(0, 0, -1)
    landmarks = {
        "all-x": DirectionProfile(X_AXIS, X_AXIS, X_AXIS),
        "all-z": DirectionProfile(Z_AXIS, Z_AXIS, Z_AXIS),
        "(z, z, -z)": DirectionProfile(Z_AXIS, Z_AXIS, minus_z),
    }
    for name, profile in landmarks.items():
        report = nash.verify_ne(PD, profile)
        line = f"{name:12} -> {report.verdict}"
        if report.witness is not None:
            w = report.witness
            line += (f"  (player {w.player} deviates to "
                     f"({w.direction.a1:+.3f}, {w.direction.a2:+.3f}, {w.direction.a3:+.3f})"
                     f" for gain {w.gain})")
        print(line)
    print()

    for phi in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
        d = Direction(math.cos(phi), math.sin(phi), 0.0)
        profile = DirectionProfile(d, d, d)
        print(f"symmetric in-plane profile at azimuth {phi:.4f} -> "
              f"{nash.verify_ne(PD, profile).verdict}")
    print()

    result = nash.find_ne(PD, args.seeds, args.rng_seed)
    print(f"best-response search: {args.seeds} seeds (rng {args.rng_seed}) -> "
          f"{len(result.equilibria)} fixed points, {len(result.non_converged)} non-converged")
    header = f"{'verdict':8} {'azimuth sum':>12} {'z-surface':>12}  profile z-components"
    print(header)
    for eq in result.equilibria[:16]:
        p = eq.profile
        az_sum = (azimuth(p.a) + azimuth(p.b) + azimuth(p.c)) % (2 * math.pi)
        az_sum = min(az_sum, 2 * math.pi - az_sum)
        za, zb, zc = p.a.a3, p.b.a3, p.c.a3
        surface = za + zb + zc + za * zb * zc
        print(f"{eq.report.verdict:8} {az_sum:12.3e} {surface:12.3e}  "
              f"({za:+.4f}, {zb:+.4f}, {zc:+.4f})")
    if len(result.equilibria) > 16:
        print(f"... and {len(result.equilibria) - 16} more")
    print()
    print("Every converged start is its own equilibrium: the deviation")
    print("inequalities admit a continuum of strict fixed points for these")
    print("payoffs, with the all-x and 120/240-degree symmetric profiles as")
    print("special members.")


if __name__ == "__main__":
    main()
