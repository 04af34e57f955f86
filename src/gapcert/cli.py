"""Command-line front end.

Subcommands: certify, sweep, case, blocks, estimate, verify-proof.
Exit codes: 0 success / certified, 2 not certified, 1 any error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .cases import FAMILIES, CaseParams, build_case, weight_blocks
from .certifier import certify, certify_pair, render_structured, render_text
from .paulialg import MAX_QUBITS, DiagonalSpec, diagonal_values
from .perron import default_chain_grid, render_chain_text, verify_proof_chain
from .specfile import InstanceSpec, parse_instance, serialize_instance
from .sweep import (
    CrossingPresent,
    check_target_epsilon,
    estimate_runtime,
    export_profile,
    schedule_sweep,
    summarize_profile,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Accept numeric lists like '-1,-0.5' or '-1;0,1,-0.5' as option
        # values rather than mistaking them for flags.
        self._negative_number_matcher = re.compile(r"^-\d+(\.\d+)?([,;].*)?$|^-\.?\d")

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _load_instance(path: str) -> InstanceSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_certify(args) -> int:
    instance = _load_instance(args.file)
    report = certify(instance)
    rendered = (
        render_structured(report) if args.format == "structured" else render_text(report)
    )
    _write_output(rendered, args.out)
    return 0 if report.is_certified else 2


def _sweep_structured(profile) -> str:
    lines = [
        f"min_gap.value = {profile.min_gap.value:.17g}",
        f"min_gap.s = {profile.min_gap.s:.17g}",
        f"spectral_width = {profile.spectral_width:.17g}",
        f"crossings.count = {len(profile.crossings)}",
    ]
    for k, c in enumerate(profile.crossings):
        lines.append(
            f"crossings.{k} = {c.s_lo:.17g} {c.s_hi:.17g} {c.s_star:.17g} "
            f"{c.gap_star:.17g}"
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    instance = _load_instance(args.file)
    profile = schedule_sweep(instance, grid_points=args.grid, m_levels=args.levels)
    summary = summarize_profile(profile)
    if args.format == "text":
        _write_output(summary + "\n", args.out)
        return 0
    if args.format == "structured":
        _write_output(_sweep_structured(profile), args.out)
        return 0
    csv = export_profile(profile)
    if args.out is not None:
        _write_output(csv, args.out)
        print(summary)
    else:
        sys.stdout.write(csv)
        print(summary, file=sys.stderr)
    return 0


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"bad {what} list {text!r}") from None


def _parse_aij(text: str, n: int) -> tuple[tuple[int, int, float], ...]:
    # Either one value for every pair, or explicit 'i,j,v;i,j,v;...'.
    if ";" not in text and text.count(",") == 0:
        try:
            value = float(text)
        except ValueError:
            raise _UsageError(f"bad --aij value {text!r}") from None
        return tuple(
            (i, j, value) for i in range(n) for j in range(i + 1, n)
        )
    entries = []
    for chunk in text.split(";"):
        fields = chunk.split(",")
        if len(fields) != 3:
            raise _UsageError(f"bad --aij entry {chunk!r}; expected 'i,j,value'")
        try:
            entries.append((int(fields[0]), int(fields[1]), float(fields[2])))
        except ValueError:
            raise _UsageError(f"bad --aij entry {chunk!r}") from None
    return tuple(entries)


def _cmd_case(args) -> int:
    family = args.family.replace("-", "_")
    if family not in FAMILIES:
        raise _UsageError(
            f"unknown family {args.family!r}; choices: "
            + ", ".join(f.replace("_", "-") for f in FAMILIES)
        )
    n = args.n if args.n is not None else (2 if family == "counterexample" else None)
    if n is None:
        raise _UsageError("--n is required for this family")
    if n > MAX_QUBITS:  # before --aij expands to all n**2 / 2 pairs
        raise _UsageError(f"--n {n} exceeds MAX_QUBITS = {MAX_QUBITS}")
    kwargs = {}
    if args.a0 is not None:
        kwargs["a0"] = args.a0
    if args.ai is not None:
        kwargs["ai"] = _parse_float_list(args.ai, "--ai")
    if args.aij is not None:
        kwargs["aij"] = _parse_aij(args.aij, n)
    if args.g is not None:
        kwargs["g"] = args.g
    params = CaseParams(family=family, n_qubits=n, **kwargs)
    h_p = None
    if args.hp is not None:
        h_p = DiagonalSpec.from_values(n, _parse_float_list(args.hp, "--hp"))
    instance = build_case(params, h_p)
    _write_output(serialize_instance(instance), args.out)
    return 0


def _cmd_blocks(args) -> int:
    instance = _load_instance(args.file)
    blocks = weight_blocks(instance.h_i_matrix(), instance.n_qubits)
    hp = diagonal_values(instance.h_p, 1 << instance.n_qubits)
    lines = []
    structured = args.format == "structured"
    if structured:
        lines.append(f"blocks.count = {len(blocks)}")
    for block in blocks:
        verdict = certify_pair(block.block_matrix, hp[list(block.basis_indices)]).overall
        if structured:
            lines.append(f"blocks.{block.k}.dim = {len(block.basis_indices)}")
            lines.append(f"blocks.{block.k}.verdict = {verdict}")
        else:
            lines.append(
                f"block k={block.k}: dim {len(block.basis_indices)}, "
                f"verdict {verdict}"
            )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_estimate(args) -> int:
    instance = _load_instance(args.file)
    check_target_epsilon(args.eps)  # before the sweep pays for every grid solve
    profile = schedule_sweep(instance, grid_points=args.grid, m_levels=args.levels)
    estimate = estimate_runtime(profile, target_epsilon=args.eps)
    if args.format == "structured":
        text = (
            f"worst_ratio = {estimate.worst_ratio:.17g}\n"
            f"suggested_T = {estimate.suggested_T:.17g}\n"
            f"target_epsilon = {estimate.target_epsilon:.17g}\n"
            f"worst_s = {estimate.worst_s:.17g}\n"
            f"worst_level = {estimate.worst_level}\n"
        )
    else:
        text = (
            f"worst adiabatic ratio {estimate.worst_ratio:.6g} "
            f"(level {estimate.worst_level} at s = {estimate.worst_s:.6g}); "
            f"suggested T = {estimate.suggested_T:.6g} for target epsilon "
            f"{estimate.target_epsilon:.6g}\n"
        )
    _write_output(text, args.out)
    return 0


def _cmd_verify_proof(args) -> int:
    grid = default_chain_grid(args.grid)
    instance = _load_instance(args.file)
    report = certify(instance)
    if not report.is_certified:
        _write_output(render_text(report), args.out)
        print(
            "proof chain not run: the instance is not certified "
            "(conditions (1)-(2) must hold first)",
            file=sys.stderr,
        )
        return 2
    chain = verify_proof_chain(instance, report.gauge, grid)
    _write_output(render_chain_text(chain), args.out)
    return 0 if chain.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gapcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="text", formats=("text", "structured")):
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument(
            "--format", choices=formats, default=default_format, help="output format"
        )

    p = sub.add_parser("certify", help="check the two sufficient conditions")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="sweep the low spectrum over the interpolation")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=1001, help="grid points (default 1001)")
    p.add_argument(
        "--levels", type=int, default=None,
        help="levels to track (default 4, clamped to the dimension)",
    )
    add_common(p, default_format="csv", formats=("csv", "text", "structured"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("case", help="emit an instance file for a named family")
    p.add_argument("family")
    p.add_argument("--n", type=int, default=None, help="qubit count")
    p.add_argument("--a0", type=float, default=None, help="identity coefficient")
    p.add_argument("--ai", default=None, help="per-qubit coefficients, e.g. '-1,-0.5'")
    p.add_argument(
        "--aij",
        default=None,
        help="pair couplings: one value for all pairs or 'i,j,v;i,j,v;...'",
    )
    p.add_argument("--g", type=float, default=None, help="transverse strength")
    p.add_argument("--hp", default=None, help="final diagonal values (default: ramp)")
    p.add_argument("--out", default=None, help="write the instance file here")
    p.set_defaults(func=_cmd_case)

    p = sub.add_parser("blocks", help="fixed-weight blocks and per-block verdicts")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("estimate", help="worst-case adiabatic ratio and suggested T")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.1, help="target error budget")
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "verify-proof", help="re-check the gap argument numerically on a grid"
    )
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=101, help="sample count (default 101)")
    p.add_argument("--out", default=None, help="write output to this file")
    p.set_defaults(func=_cmd_verify_proof)

    return parser


def main(argv=None) -> int:
    # ParseError and NotWeightSymmetric are ValueErrors; CrossingPresent is
    # estimate's refusal of a profile with a closing gap.
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, TypeError, OSError, CrossingPresent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
