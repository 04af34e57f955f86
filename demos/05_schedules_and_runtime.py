"""Schedules beyond the straight line, and what the gap buys you.

A tabulated schedule (a(t), b(t)) traces the same family of operators as
the linear path, just at a different speed: a(t) H_i + b(t) H_p equals
(a+b) times the linear interpolation at sigma = b / (a+b).  Gap profiles
therefore rescale onto each other -- monotone reparameterization cannot
rescue an instance whose linear path has a crossing.  For crossing-free
profiles the worst adiabatic ratio |<psi_m| dH |psi_0>| / gap^2 suggests
a total runtime.
"""

import numpy as np

from gapcert import (
    DiagonalSpec,
    InstanceSpec,
    ProjectorSpec,
    ScheduleSpec,
    estimate_runtime,
    export_profile,
    gap_sweep,
    schedule_sweep,
    summarize_profile,
)


def main():
    # the d = 2 search pair with the closed-form gap sqrt(s^2 + (1-s)^2)
    instance = InstanceSpec(
        1, ProjectorSpec.uniform(1), DiagonalSpec.from_values(1, [0.0, 1.0])
    )

    linear = gap_sweep(instance, grid_points=501)
    print("linear path:   ", summarize_profile(linear))

    slow_middle = ScheduleSpec(
        "tabulated",
        (
            (0.0, 1.0, 0.0),
            (0.2, 0.6, 0.4),
            (0.8, 0.4, 0.6),
            (1.0, 0.0, 1.0),
        ),
    )
    tabulated = schedule_sweep(
        instance, schedule=slow_middle, grid_points=501
    )
    print("slow-middle:   ", summarize_profile(tabulated))

    # verify the rescaling identity at a few sample times
    a, b = slow_middle.coefficients(tabulated.grid)
    sigma = b / (a + b)
    print("\n   t/T    sigma    gap_t    (a+b)*gap_lin(sigma)")
    for idx in range(0, 501, 100):
        lin_gap = float(np.sqrt(sigma[idx] ** 2 + (1 - sigma[idx]) ** 2))
        print(
            f"  {tabulated.grid[idx]:5.2f}  {sigma[idx]:6.3f}  "
            f"{tabulated.gap1[idx]:8.5f}  {(a[idx]+b[idx]) * lin_gap:8.5f}"
        )

    for label, profile in (("linear", linear), ("slow-middle", tabulated)):
        estimate = estimate_runtime(profile, target_epsilon=0.1)
        print(
            f"\n{label}: worst ratio {estimate.worst_ratio:.4f} at "
            f"t/T = {estimate.worst_s:.3f} (level {estimate.worst_level}) "
            f"-> suggested T = {estimate.suggested_T:.2f}"
        )

    with open("search_profile.csv", "w") as handle:
        handle.write(export_profile(linear))
    print("\nwrote search_profile.csv (s, eps0, eps1, gap1; 17 digits)")


if __name__ == "__main__":
    main()
