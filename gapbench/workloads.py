"""Seeded instance generation, operation lists and independent references.

One pass of a workload is a fixed list of CLI operations over instance
files that this module writes itself (it does not use gapcert's
serializer, so the inputs do not move when the program changes).  The seed
and the pass index change the coefficients, final diagonals, couplings and
schedules, never the number or kind of operations, so runs with different
seeds stay comparable.

The references here are built from Kronecker products of 2x2 Pauli
matrices with numpy alone; they share no code with gapcert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

WORKLOADS = {
    "small_corpus": (
        "criterion-2 families at d <= 64 plus the counterexample, every "
        "subcommand: per-call overhead (parsing, validation, Python loops, "
        "graph code, rendering) dominates and BLAS does little"
    ),
    "dense_sweep": (
        "values-only sweeps and certify at n = 8 (d = 256): large "
        "dense eigensolves dominate"
    ),
}

CORPUS_FAMILIES = (
    "bit_rotation",
    "heisenberg",
    "xy_hopping",
    "projector_uniform",
    "transverse_positive",
)
BLOCK_FAMILIES = ("xy_hopping", "heisenberg")

# Operation flags per workload.  Grid sizes are chosen so that one pass
# over a workload takes a few seconds on one core.
SMALL_QUBITS = (2, 3, 4, 5, 6)
SMALL_SWEEP_GRID = 101
SMALL_CHAIN_GRID = 21
SMALL_ESTIMATE_GRID = 101
DENSE_QUBITS = 8
DENSE_SWEEP_GRID = 17
DENSE_LEVELS = 4
DENSE_PER_FAMILY = 1
ESTIMATE_EPS = 0.1

_SALT = {"small_corpus": 1, "dense_sweep": 2}

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1j], [1j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


@dataclass(frozen=True, eq=False)
class Instance:
    """One generated instance: what the file says and what it should give.

    ``terms`` is a list of ``(coefficient, PAULISTRING)`` pairs, or
    ``None`` for the uniform projector complement; ``schedule`` lists
    tabulated ``(t, a, b)`` samples, or ``None`` for linear.  ``certified`` says
    whether the full-space certificate holds (true for the plain certified
    families, false for the weight-conserving ones and the counterexample).
    """

    name: str
    family: str
    n: int
    terms: tuple[tuple[float, str], ...] | None
    hp: np.ndarray
    schedule: tuple[tuple[float, float, float], ...] | None = None
    path: str = ""

    @property
    def certified(self) -> bool:
        return self.family not in BLOCK_FAMILIES + ("counterexample",)

    def text(self) -> str:
        lines = [f"qubits = {self.n}", "[Hi]"]
        if self.terms is None:
            lines.append("projector-uniform")
        else:
            lines.append(
                "terms = " + ", ".join(f"{c!r} {axes}" for c, axes in self.terms)
            )
        lines += ["[Hp]", "diagonal = " + ", ".join(repr(float(v)) for v in self.hp)]
        if self.schedule is not None:
            lines += ["[schedule]", "kind = tabulated"]
            lines += [f"sample = {t!r}, {a!r}, {b!r}" for t, a, b in self.schedule]
        return "\n".join(lines) + "\n"

    def h_i_reference(self) -> np.ndarray:
        """Dense H_i from Kronecker products (real: every family is real)."""
        d = 1 << self.n
        if self.terms is None:
            return np.eye(d) - np.full((d, d), 1.0 / d)
        out = np.zeros((d, d), dtype=complex)
        for coefficient, axes in self.terms:
            term = np.array([[1.0]])
            for axis in axes:
                term = np.kron(term, _PAULI[axis])
            out += coefficient * term
        if np.max(np.abs(out.imag)) > 1e-12:
            raise ValueError(f"{self.name}: reference H_i is not real")
        return out.real

    def schedule_coefficients(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.schedule is None:
            return 1.0 - tau, tau
        ts, a, b = (np.array(column) for column in zip(*self.schedule))
        return np.interp(tau, ts, a), np.interp(tau, ts, b)

    def reference_levels(self, grid_points: int, rows, m: int) -> np.ndarray:
        """Lowest ``m`` levels of a(t) H_i + b(t) H_p at the given grid rows."""
        tau = sweep_grid(grid_points)[list(rows)]
        a, b = self.schedule_coefficients(tau)
        h_i = self.h_i_reference()
        return np.array(
            [
                np.linalg.eigvalsh(a[k] * h_i + np.diag(b[k] * self.hp))[:m]
                for k in range(tau.size)
            ]
        )

    def reference_gap_at(self, tau: float, h_i: np.ndarray | None = None) -> float:
        """First gap of H(tau), off the grid."""
        if h_i is None:
            h_i = self.h_i_reference()
        a, b = self.schedule_coefficients(np.array([tau]))
        w = np.linalg.eigvalsh(a[0] * h_i + np.diag(b[0] * self.hp))
        return float(w[1] - w[0])

    def reference_min_gap(self, grid_points: int) -> tuple[float, float]:
        """Smallest first gap on the sweep grid, refined off-grid around the
        three lowest grid gaps, and the width of the two lowest levels."""
        levels = self.reference_levels(grid_points, range(grid_points), 2)
        gaps = levels[:, 1] - levels[:, 0]
        grid = sweep_grid(grid_points)
        h_i = self.h_i_reference()

        def gap_at(tau: float) -> float:
            return self.reference_gap_at(tau, h_i)

        best = float(gaps.min())
        for k in np.argsort(gaps)[:3]:
            bounds = (grid[max(k - 1, 0)], grid[min(k + 1, grid_points - 1)])
            result = minimize_scalar(
                gap_at, bounds=bounds, method="bounded", options={"xatol": 1e-12}
            )
            best = min(best, float(result.fun))
        return best, float(levels.max() - levels.min())


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``points`` counts sweep/estimate grid points and
    ``samples`` proof-chain samples, for the throughput metrics."""

    label: str
    kind: str
    argv: tuple[str, ...]
    instance: Instance
    out_path: str | None = None
    points: int = 0
    samples: int = 0
    grid: int = 0
    levels: int = 0


@dataclass
class Workload:
    instances: list[Instance]
    ops: list[Op]


def sweep_grid(points: int) -> np.ndarray:
    """The CLI's documented grid: uniform on [0, 1 - 1/points]."""
    return np.linspace(0.0, 1.0 - 1.0 / points, points)


def _axes_with(n: int, placements: dict[int, str]) -> str:
    letters = ["I"] * n
    for q, axis in placements.items():
        letters[q] = axis
    return "".join(letters)


def _connected_couplings(rng, n):
    # A random spanning tree keeps every weight block irreducible.
    nodes = list(range(n))
    rng.shuffle(nodes)
    pairs = [tuple(sorted((a, b))) for a, b in zip(nodes, nodes[1:])]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in pairs and rng.random() < 0.3:
                pairs.append((i, j))
    return [(i, j, float(-rng.uniform(0.1, 2.0))) for i, j in sorted(pairs)]


def family_terms(family: str, n: int, rng, ai_range=(0.1, 2.0)):
    """Pauli terms of a family with criterion-2 style random coefficients."""
    if family == "bit_rotation":
        a0 = float(rng.uniform(-2.0, 2.0))
        terms = [(a0, "I" * n)]
        terms += [(float(-rng.uniform(*ai_range)), _axes_with(n, {q: "X"})) for q in range(n)]
        return tuple(terms)
    if family == "transverse_positive":
        g = float(rng.uniform(0.1, 2.0))
        return tuple((g, _axes_with(n, {q: "X"})) for q in range(n))
    if family == "xy_hopping":
        return tuple(
            (-0.5, _axes_with(n, {i: axis, j: axis}))
            for i in range(n)
            for j in range(i + 1, n)
            for axis in "XY"
        )
    if family == "heisenberg":
        terms = [(float(rng.uniform(-2.0, 2.0)), "I" * n)]
        for i, j, value in _connected_couplings(rng, n):
            terms += [(value, _axes_with(n, {i: axis, j: axis})) for axis in "XYZ"]
        return tuple(terms)
    if family == "projector_uniform":
        return None
    if family == "counterexample":
        return ((-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX"))
    raise ValueError(f"unknown family {family!r}")


def _monotone_schedule(rng):
    """Random tabulated schedule with a > 0 and b > 0 strictly inside (0, 1)."""
    k = 5
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k - 2)), [1.0]])
    rise_a = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, size=k - 1))])
    rise_b = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, size=k - 1))])
    a = 1.0 - rise_a / rise_a[-1]
    b = rise_b / rise_b[-1]
    a[-1], b[-1] = 0.0, 1.0
    return tuple((float(t), float(x), float(y)) for t, x, y in zip(ts, a, b))


def _instance(name, family, n, rng, ai_range=(0.1, 2.0)):
    terms = family_terms(family, n, rng, ai_range)
    hp = rng.uniform(0.0, 10.0, size=1 << n)
    return Instance(name, family, n, terms, hp)


def _counterexample(name: str) -> Instance:
    return Instance(
        name, "counterexample", 2,
        family_terms("counterexample", 2, None), np.array([0.0, 2.0, 6.0, 8.0]),
    )


def generate_instances(
    workload: str, seed: int, pass_index: int = 0, tiny: bool = False
) -> list[Instance]:
    """The instances of one pass.  Each pass draws fresh instances from the
    seed, so a run averages over many; ``tiny`` gives a warm-up set with
    the same families and operations at n = 2."""
    rng = np.random.default_rng([seed, _SALT[workload], pass_index])
    tag = f"p{pass_index}"
    if workload == "small_corpus":
        # Each certified instance also gets a twin on a random tabulated
        # schedule, for estimate: the eigenvector and schedule path.
        out = []
        for family in CORPUS_FAMILIES:
            for n in (2,) if tiny else SMALL_QUBITS:
                inst = _instance(f"{tag}-{family}-n{n}", family, n, rng)
                out.append(inst)
                if inst.certified:
                    out.append(replace(
                        inst, name=f"{inst.name}-sched", schedule=_monotone_schedule(rng)
                    ))
        return out + [_counterexample(f"{tag}-counterexample")]
    if workload == "dense_sweep":
        n = 2 if tiny else DENSE_QUBITS
        return [
            _instance(f"{tag}-{family}-n{n}-{i}", family, n, rng, ai_range=(0.5, 1.5))
            for family in ("bit_rotation", "transverse_positive")
            for i in range(DENSE_PER_FAMILY)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _ops_for(workload: str, inst: Instance, work_dir: str) -> list[Op]:
    f = inst.path
    if workload == "small_corpus" and inst.schedule is not None:
        return [
            Op(
                f"estimate:{inst.name}", "estimate",
                ("estimate", f, "--grid", str(SMALL_ESTIMATE_GRID), "--eps",
                 repr(ESTIMATE_EPS), "--format", "structured"),
                inst, points=SMALL_ESTIMATE_GRID, grid=SMALL_ESTIMATE_GRID,
                levels=min(4, 1 << inst.n),
            )
        ]
    if workload == "small_corpus":
        ops = [
            Op(f"certify:{inst.name}", "certify", ("certify", f), inst),
            Op(
                f"sweep:{inst.name}", "sweep",
                ("sweep", f, "--grid", str(SMALL_SWEEP_GRID), "--levels", "2",
                 "--format", "structured"),
                inst, points=SMALL_SWEEP_GRID, grid=SMALL_SWEEP_GRID, levels=2,
            ),
            Op(
                f"verify-proof:{inst.name}", "verify-proof",
                ("verify-proof", f, "--grid", str(SMALL_CHAIN_GRID)),
                inst, samples=SMALL_CHAIN_GRID if inst.certified else 0,
                grid=SMALL_CHAIN_GRID,
            ),
        ]
        if inst.family in BLOCK_FAMILIES:
            ops.append(Op(f"blocks:{inst.name}", "blocks", ("blocks", f), inst))
        return ops
    out = os.path.join(work_dir, f"{inst.name}.csv")
    return [
        Op(f"certify:{inst.name}", "certify", ("certify", f), inst),
        Op(
            f"sweep:{inst.name}", "sweep",
            ("sweep", f, "--grid", str(DENSE_SWEEP_GRID), "--levels",
             str(DENSE_LEVELS), "--format", "csv", "--out", out),
            inst, out_path=out, points=DENSE_SWEEP_GRID,
            grid=DENSE_SWEEP_GRID, levels=DENSE_LEVELS,
        ),
    ]


def build_workload(
    workload: str, seed: int, work_dir: str, pass_index: int = 0, tiny: bool = False
) -> Workload:
    """Write one pass's instance files under ``work_dir`` and list its ops."""
    os.makedirs(work_dir, exist_ok=True)
    instances = []
    for inst in generate_instances(workload, seed, pass_index, tiny):
        path = os.path.join(work_dir, f"{inst.name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inst.text())
        instances.append(replace(inst, path=path))
    ops = [op for inst in instances for op in _ops_for(workload, inst, work_dir)]
    return Workload(instances, ops)
