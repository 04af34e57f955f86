"""Certify one instance of every family, per weight block where needed.

The hopping families conserve Hamming weight, so their interpolations
split into independent fixed-weight sectors.  The certificate is applied
to each block; the full-space spectrum is just the union of the blocks.
"""

import numpy as np

from gapcert import (
    CaseParams,
    DiagonalSpec,
    build_case,
    certify,
    certify_block,
    block_pair,
    schedule_sweep,
    sweep_pair,
    weight_blocks,
)

rng = np.random.default_rng(7)


def certify_plain(params):
    d = 1 << params.n_qubits
    h_p = DiagonalSpec.from_values(params.n_qubits, rng.uniform(0, 10, size=d))
    instance = build_case(params, h_p)
    report = certify(instance)
    profile = schedule_sweep(instance, grid_points=501)
    print(
        f"{params.family:22s} n={params.n_qubits}  verdict={report.overall:13s} "
        f"min_gap={profile.min_gap.value:.4f} at s={profile.min_gap.s:.3f}  "
        f"crossings={len(profile.crossings)}"
    )


def certify_blocky(params):
    d = 1 << params.n_qubits
    h_p = DiagonalSpec.from_values(params.n_qubits, rng.uniform(0, 10, size=d))
    instance = build_case(params, h_p)
    blocks = weight_blocks(instance.h_i_matrix(), params.n_qubits)
    print(f"{params.family} n={params.n_qubits}, {len(blocks)} weight blocks:")
    for block in blocks:
        report = certify_block(instance, block.k)
        line = (
            f"  block k={block.k} (dim {len(block.basis_indices):2d}): "
            f"{report.overall}"
        )
        if len(block.basis_indices) >= 2:
            h_i_block, diag = block_pair(instance, block.k)
            profile = sweep_pair(h_i_block, diag, grid_points=501, m_levels=2)
            line += (
                f", block min_gap {profile.min_gap.value:.4f}"
                f", crossings {len(profile.crossings)}"
            )
        print(line)


def main():
    certify_plain(CaseParams("bit_rotation", 4, ai=tuple(-rng.uniform(0.2, 1.5, 4))))
    certify_plain(CaseParams("projector_uniform", 4))
    certify_plain(CaseParams("transverse_positive", 4, g=0.9))
    print()
    certify_blocky(CaseParams("xy_hopping", 4))
    certify_blocky(
        CaseParams(
            "heisenberg", 4,
            aij=((0, 1, -1.0), (1, 2, -0.7), (2, 3, -0.4), (0, 3, -0.2)),
        )
    )


if __name__ == "__main__":
    main()
