"""Span tracing at gapcert's module boundaries, from outside the program.

``install(tracer, package)`` wraps the public functions named in
``TARGETS`` and rebinds every name under which a gapcert module looks one
up (``gapcert.sweep.low_spectrum`` is ``gapcert.spectral.low_spectrum``,
so both are patched).  Spans hold name, start, end, parent and operation
id, stay in memory, and are written out when the benchmark ends.

A span's self time is its duration minus the part of its interval that its
child spans cover, so the self times of one operation's spans add up to
the duration of its root span.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("cli", "specfile", "paulialg", "spectral", "certifier", "sweep", "perron", "cases")

# (module, attribute, span name).  ``attribute`` may be "Class.method".
# Rendering lives in several modules but is one layer: cli.render.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_sweep_structured", "cli.render"),
    ("certifier", "render_text", "cli.render"),
    ("certifier", "render_structured", "cli.render"),
    ("perron", "render_chain_text", "cli.render"),
    ("sweep", "export_profile", "cli.render"),
    ("sweep", "summarize_profile", "cli.render"),
    ("specfile", "parse_instance", "specfile.parse_instance"),
    ("paulialg", "to_matrix", "paulialg.to_matrix"),
    ("paulialg", "build_pauli", "paulialg.build_pauli"),
    ("paulialg", "build_diagonal", "paulialg.build_diagonal"),
    ("paulialg", "interpolate", "paulialg.interpolate"),
    ("paulialg", "HermitianMatrix.__post_init__", "paulialg.HermitianMatrix"),
    ("spectral", "eigensystem", "spectral.eigensystem"),
    ("spectral", "ground_state", "spectral.ground_state"),
    ("spectral", "low_spectrum", "spectral.low_spectrum"),
    ("certifier", "certify", "certifier.certify"),
    ("certifier", "certify_pair", "certifier.certify_pair"),
    ("certifier", "extract_gauge", "certifier.extract_gauge"),
    ("certifier", "check_condition2", "certifier.check_condition2"),
    ("sweep", "schedule_sweep", "sweep.schedule_sweep"),
    ("sweep", "sweep_pair", "sweep.sweep_pair"),
    ("sweep", "minimize_scalar", "sweep.refine"),
    ("sweep", "estimate_runtime", "sweep.estimate_runtime"),
    ("perron", "verify_proof_chain", "perron.verify_proof_chain"),
    ("perron", "verify_proof_chain_pair", "perron.verify_proof_chain_pair"),
    ("perron", "auxiliary_f", "perron.auxiliary_f"),
    ("perron", "primitivity", "perron.primitivity"),
    ("cases", "weight_blocks", "cases.weight_blocks"),
    ("cases", "block_pair", "cases.block_pair"),
    ("cases", "certify_block", "cases.certify_block"),
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """In-memory span recorder.  Set ``op`` before each operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op))
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced


def _count_refine(counts, result) -> None:
    counts["sweep.refine.evals"] += int(getattr(result, "nfev", 0))


def _count_crossings(counts, profile) -> None:
    counts["sweep.crossings"] += len(profile.crossings)


_ON_RESULT = {"sweep.refine": _count_refine, "sweep.sweep_pair": _count_crossings}


def install(tracer: Tracer, package):
    """Patch every target in every gapcert module; return an undo function."""
    modules = [package] + [getattr(package, name) for name in MODULES]
    undo = []
    for module_name, attribute, span_name in TARGETS:
        owner = getattr(package, module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(span_name, original))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attribute)
        wrapped = tracer.wrap(span_name, original, _ON_RESULT.get(span_name))
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
                    undo.append((module, name, original))

    def restore() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: duration minus the union of its children's
    intervals clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[int, float]]:
    """Per-name calls and self seconds, per-layer self seconds, and for each
    operation the defect between its summed self times and its root span."""
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    per_op_self: dict[int, float] = defaultdict(float)
    per_op_root: dict[int, float] = defaultdict(float)
    for span in spans:
        value = selfs[span.sid]
        by_name[f"{span.name}.calls"] += 1
        by_name[f"{span.name}.self_s"] += value
        by_layer[layer_of(span.name)] += value
        per_op_self[span.op] += value
        if span.parent is None:
            per_op_root[span.op] += span.end - span.start
    defects = {
        op: abs(per_op_self[op] - per_op_root[op]) / max(per_op_root[op], 1e-300)
        for op in per_op_self
    }
    return dict(by_name), dict(by_layer), defects
