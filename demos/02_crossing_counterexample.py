"""The instance that shows why both certificate conditions matter.

The two-qubit operator -2 XI + IX + IZ - 2 XX has a unique, strictly
positive ground state, so condition (1) holds and a phase gauge exists.
But four rotated off-diagonal entries come out at +1 instead of <= 0, so
condition (2) fails -- and this is not a false alarm: interpolating
toward diag(0, 2, 6, 8) the two lowest levels genuinely cross near
s = 1/2.  A failed certificate is inconclusive on its own; the sweep is
what settles it.
"""

import numpy as np

from gapcert import (
    CaseParams,
    build_case,
    certify,
    export_svg,
    gap_sweep,
    render_text,
    summarize_profile,
)


def main():
    instance = build_case(CaseParams("counterexample", 2))

    print("certificate:")
    report = certify(instance)
    print(render_text(report))

    print("sweeping 1001 grid points...")
    profile = gap_sweep(instance, grid_points=1001)
    print(summarize_profile(profile))
    for c in profile.crossings:
        print(
            f"  crossing bracketed in [{c.s_lo:.6f}, {c.s_hi:.6f}], "
            f"refined to s* = {c.s_star:.12f} with gap {c.gap_star:.3e}"
        )
    print(f"  (crossing threshold here: {profile.crossing_tolerance:.3e})")

    # the two lowest levels around the crossing
    grid = profile.grid
    window = (grid > 0.47) & (grid < 0.53)
    print("\n     s        eps0      eps1      gap")
    for s, row, g in zip(
        grid[window], profile.levels[window], profile.gap1[window]
    ):
        marker = "  <-- pinch" if g == profile.gap1[window].min() else ""
        print(f"  {s:.4f}  {row[0]:9.5f} {row[1]:9.5f}  {g:.2e}{marker}")

    with open("counterexample_levels.svg", "w") as handle:
        handle.write(export_svg(profile))
    print("\nwrote counterexample_levels.svg")


if __name__ == "__main__":
    main()
