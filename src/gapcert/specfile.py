"""Text format for interpolation problem instances.

A file names the qubit count, the initial operator, the diagonal final
operator and optionally an interpolation schedule::

    # two-qubit example
    qubits = 2
    [Hi]
    terms = -2 XI, 1 IX, 1 IZ, -2 XX
    [Hp]
    diagonal = 0, 2, 6, 8
    [schedule]
    kind = linear

``[Hi]`` accepts exactly one of ``terms = <coef> <STRING>, ...`` (or
``terms = none`` for the zero operator), ``diagonal = <reals>``, or the
bare word ``projector-uniform``.  ``[Hp]`` accepts ``diagonal = <reals>``
or a bare ``costfn`` marker followed by ``<bitstring> <value>`` lines
(unlisted bitstrings default to 0).  ``[schedule]`` accepts
``kind = linear`` or ``kind = tabulated`` followed by ``sample = t, a, b``
lines; it may be omitted entirely, defaulting to linear.  Comment lines
start with ``#``; whitespace around ``=`` and ``,`` is ignored.

Serialization is canonical: Pauli terms are sorted lexicographically with
duplicate strings merged, and a cost table is emitted as its equivalent
``diagonal`` line, so ``parse . serialize`` is the identity on canonical
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .paulialg import (
    MAX_NORM_BOUND,
    MAX_QUBITS,
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    PauliString,
    ProjectorSpec,
    norm_bound,
    to_matrix,
)

_SECTIONS = ("Hi", "Hp", "schedule")


class ParseError(ValueError):
    """Malformed instance text, with 1-based line/column position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class ScheduleSpec:
    """Interpolation coefficients a(t/T), b(t/T).

    ``linear`` means ``a = 1 - t/T, b = t/T``.  A tabulated schedule lists
    ``(t/T, a, b)`` samples with strictly increasing t/T covering [0, 1],
    a monotone nonincreasing from 1 to 0 and b monotone nondecreasing
    from 0 to 1; values between samples are linearly interpolated.
    """

    kind: str
    samples: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if self.samples is not None:
                raise ValueError("a linear schedule takes no samples")
            return
        if self.kind != "tabulated":
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        samples = self.samples
        if not samples or len(samples) < 2:
            raise ValueError("a tabulated schedule needs at least two samples")
        ts = [t for t, _, _ in samples]
        a = [x for _, x, _ in samples]
        b = [x for _, _, x in samples]
        for v in ts + a + b:
            if not math.isfinite(v):
                raise ValueError("schedule samples must be finite")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("schedule sample times must be strictly increasing")
        if ts[0] != 0.0 or ts[-1] != 1.0:
            raise ValueError("schedule samples must start at t/T = 0 and end at 1")
        if a[0] != 1.0 or a[-1] != 0.0 or any(y > x for x, y in zip(a, a[1:])):
            raise ValueError("coefficient a must decrease monotonically from 1 to 0")
        if b[0] != 0.0 or b[-1] != 1.0 or any(y < x for x, y in zip(b, b[1:])):
            raise ValueError("coefficient b must increase monotonically from 0 to 1")

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tabulated samples' t/T, a and b, as three arrays."""
        ts, a, b = zip(*self.samples)
        return np.array(ts), np.array(a), np.array(b)

    def coefficients(self, tau) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (a, b) at scaled times ``tau`` in [0, 1]."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "linear":
            return 1.0 - tau, tau.copy()
        ts, a, b = self._columns()
        return np.interp(tau, ts, a), np.interp(tau, ts, b)

    def slopes(self, tau) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives (da/dt, db/dt) at scaled times ``tau`` in [0, 1): at a
        sample time, those of the segment that starts there."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "linear":
            return np.full(tau.shape, -1.0), np.full(tau.shape, 1.0)
        ts, a, b = self._columns()
        segment = np.clip(np.searchsorted(ts, tau, side="right") - 1, 0, ts.size - 2)
        dt = np.diff(ts)
        return (np.diff(a) / dt)[segment], (np.diff(b) / dt)[segment]


LINEAR = ScheduleSpec("linear")


@dataclass(frozen=True)
class InstanceSpec:
    """A full problem instance: initial operator, diagonal final operator,
    schedule, and the qubit count all of them must agree on."""

    n_qubits: int
    h_i: PauliExpression | DiagonalSpec | ProjectorSpec | HermitianMatrix
    h_p: DiagonalSpec
    schedule: ScheduleSpec = field(default=LINEAR)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        h_i = self.h_i
        if isinstance(h_i, (PauliExpression, DiagonalSpec, ProjectorSpec)):
            if h_i.n_qubits != self.n_qubits:
                raise ValueError(
                    f"h_i is declared on {h_i.n_qubits} qubits, instance on "
                    f"{self.n_qubits}"
                )
        elif isinstance(h_i, HermitianMatrix):
            if h_i.dim != 1 << self.n_qubits:
                raise ValueError(
                    f"h_i matrix dimension {h_i.dim} does not match "
                    f"2**{self.n_qubits}"
                )
        else:
            raise TypeError(f"unsupported h_i description: {type(h_i).__name__}")
        if not isinstance(self.h_p, DiagonalSpec):
            raise TypeError("h_p must be a DiagonalSpec (diagonal in the "
                            "computational basis)")
        if self.h_p.n_qubits != self.n_qubits:
            raise ValueError(
                f"h_p is declared on {self.h_p.n_qubits} qubits, instance on "
                f"{self.n_qubits}"
            )
        if not isinstance(self.schedule, ScheduleSpec):
            raise TypeError("schedule must be a ScheduleSpec")
        bound = norm_bound(h_i) + norm_bound(self.h_p)
        if not bound <= MAX_NORM_BOUND:
            raise ValueError(
                f"h_i and h_p have norm bound {bound:.3e}, above {MAX_NORM_BOUND:.0e}: "
                "products of their entries would overflow float64; rescale the instance"
            )

    def h_i_matrix(self) -> HermitianMatrix:
        """``h_i`` as a dense matrix, built on the first call and kept: the
        spec is immutable, so every caller can share one read-only copy."""
        built = self.__dict__.get("_h_i_matrix")
        if built is None:
            built = to_matrix(self.h_i)
            object.__setattr__(self, "_h_i_matrix", built)
        return built


def _split_csv(payload: str, line_no: int, col0: int):
    """Yield (chunk, line, column) for comma-separated fields of a payload."""
    cursor = col0
    for raw in payload.split(","):
        stripped = raw.strip()
        lead = len(raw) - len(raw.lstrip())
        yield stripped, line_no, cursor + lead + 1
        cursor += len(raw) + 1


def _parse_float(token: str, what: str, line: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line, col) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line, col)
    return value


def _parse_terms(payload: str, n_qubits: int, line_no: int, col0: int) -> PauliExpression:
    if payload.strip() == "none":
        return PauliExpression(n_qubits, ())
    terms = []
    for chunk, ln, col in _split_csv(payload, line_no, col0):
        if not chunk:
            raise ParseError("empty term in terms list", ln, col)
        fields = chunk.split()
        if len(fields) != 2:
            raise ParseError(
                f"term {chunk!r} must be '<coefficient> <string>'", ln, col
            )
        coefficient = _parse_float(fields[0], "coefficient", ln, col)
        axes = fields[1]
        bad = set(axes) - set("IXYZ")
        if bad:
            raise ParseError(
                f"term string {axes!r} contains invalid axes {sorted(bad)}", ln, col
            )
        if len(axes) != n_qubits:
            raise ParseError(
                f"term string {axes!r} covers {len(axes)} qubits, expected "
                f"{n_qubits}",
                ln,
                col,
            )
        terms.append((coefficient, PauliString(axes)))
    return PauliExpression(n_qubits, tuple(terms))


def _parse_reals(payload: str, line_no: int, col0: int) -> list[float]:
    values = []
    for chunk, ln, col in _split_csv(payload, line_no, col0):
        if not chunk:
            raise ParseError("empty value in list", ln, col)
        values.append(_parse_float(chunk, "value", ln, col))
    return values


def parse_instance(source) -> InstanceSpec:
    """Parse instance text (a string or readable file object).

    Raises :class:`ParseError` with line/column on malformed input.
    """
    text = source.read() if hasattr(source, "read") else source
    n_qubits = None
    section = None
    section_lines: dict[str, int] = {}
    h_i = None
    hp_values: list[float] | None = None
    cost_table: dict[int, float] | None = None
    cost_seen: dict[str, int] = {}
    schedule_kind = None
    schedule_samples: list[tuple[float, float, float]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue

        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _SECTIONS:
                raise ParseError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    line_no,
                    raw.index("[") + 1,
                )
            if name in section_lines:
                raise ParseError(f"duplicate section [{name}]", line_no, 1)
            if n_qubits is None:
                raise ParseError(
                    "'qubits = <n>' must appear before any section", line_no, 1
                )
            section_lines[name] = line_no
            section = name
            continue

        if "=" in line:
            key, _, payload = raw.partition("=")
            key_name = key.strip()
            col0 = len(key) + 1  # 0-based offset of payload within raw
            if section is None:
                if key_name != "qubits":
                    raise ParseError(
                        f"unexpected key {key_name!r} before any section "
                        "(only 'qubits' may appear here)",
                        line_no,
                        1,
                    )
                if n_qubits is not None:
                    raise ParseError("duplicate 'qubits' declaration", line_no, 1)
                token = payload.strip()
                try:
                    n_qubits = int(token)
                except ValueError:
                    raise ParseError(f"bad qubit count {token!r}", line_no, col0 + 1) from None
                if not 1 <= n_qubits <= MAX_QUBITS:
                    raise ParseError(
                        f"qubit count must lie in 1..{MAX_QUBITS}", line_no, col0 + 1
                    )
                continue

            if section == "Hi":
                if key_name == "terms":
                    if h_i is not None:
                        raise ParseError("section [Hi] already has an operator", line_no, 1)
                    h_i = _parse_terms(payload, n_qubits, line_no, col0)
                elif key_name == "diagonal":
                    if h_i is not None:
                        raise ParseError("section [Hi] already has an operator", line_no, 1)
                    values = _parse_reals(payload, line_no, col0)
                    if len(values) != 1 << n_qubits:
                        raise ParseError(
                            f"[Hi] diagonal has {len(values)} values, expected "
                            f"2**{n_qubits} = {1 << n_qubits}",
                            line_no,
                            col0 + 1,
                        )
                    h_i = DiagonalSpec.from_values(n_qubits, values)
                else:
                    raise ParseError(
                        f"unknown key {key_name!r} in [Hi]; expected 'terms', "
                        "'diagonal' or a bare 'projector-uniform'",
                        line_no,
                        1,
                    )
            elif section == "Hp":
                if key_name == "diagonal":
                    if hp_values is not None or cost_table is not None:
                        raise ParseError("section [Hp] already has an operator", line_no, 1)
                    values = _parse_reals(payload, line_no, col0)
                    if len(values) != 1 << n_qubits:
                        raise ParseError(
                            f"[Hp] diagonal has {len(values)} values, expected "
                            f"2**{n_qubits} = {1 << n_qubits}",
                            line_no,
                            col0 + 1,
                        )
                    hp_values = values
                elif key_name == "terms":
                    raise ParseError(
                        "[Hp] must be diagonal in the computational basis: only "
                        "'diagonal = ...' or a 'costfn' table is accepted",
                        line_no,
                        1,
                    )
                else:
                    raise ParseError(
                        f"unknown key {key_name!r} in [Hp]; expected 'diagonal' "
                        "or a 'costfn' table",
                        line_no,
                        1,
                    )
            elif section == "schedule":
                if key_name == "kind":
                    if schedule_kind is not None:
                        raise ParseError("duplicate 'kind' in [schedule]", line_no, 1)
                    schedule_kind = payload.strip()
                    if schedule_kind not in ("linear", "tabulated"):
                        raise ParseError(
                            f"unknown schedule kind {schedule_kind!r}",
                            line_no,
                            col0 + 1,
                        )
                elif key_name == "sample":
                    if schedule_kind != "tabulated":
                        raise ParseError(
                            "'sample' lines require 'kind = tabulated' first",
                            line_no,
                            1,
                        )
                    values = _parse_reals(payload, line_no, col0)
                    if len(values) != 3:
                        raise ParseError(
                            "a schedule sample is 't, a, b' (three values)",
                            line_no,
                            col0 + 1,
                        )
                    if schedule_samples and values[0] <= schedule_samples[-1][0]:
                        raise ParseError(
                            "schedule sample times must be strictly increasing",
                            line_no,
                            col0 + 1,
                        )
                    schedule_samples.append((values[0], values[1], values[2]))
                else:
                    raise ParseError(
                        f"unknown key {key_name!r} in [schedule]", line_no, 1
                    )
            continue

        # Bare (key-less) directive lines.
        if section == "Hi" and line == "projector-uniform":
            if h_i is not None:
                raise ParseError("section [Hi] already has an operator", line_no, 1)
            h_i = ProjectorSpec.uniform(n_qubits)
            continue
        if section == "Hp" and line == "costfn":
            if hp_values is not None or cost_table is not None:
                raise ParseError("section [Hp] already has an operator", line_no, 1)
            cost_table = {}
            continue
        if section == "Hp" and cost_table is not None:
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(
                    f"cost table entry {line!r} must be '<bitstring> <value>'",
                    line_no,
                    1,
                )
            bits, value_token = fields
            if set(bits) - {"0", "1"} or len(bits) != n_qubits:
                raise ParseError(
                    f"bitstring {bits!r} must be {n_qubits} characters of 0/1",
                    line_no,
                    1,
                )
            if bits in cost_seen:
                raise ParseError(
                    f"duplicate cost entry for {bits!r} (first at line "
                    f"{cost_seen[bits]})",
                    line_no,
                    1,
                )
            cost_seen[bits] = line_no
            cost_table[int(bits, 2)] = _parse_float(
                value_token, "cost value", line_no, len(bits) + 2
            )
            continue
        raise ParseError(f"unrecognized line {line!r}", line_no, 1)

    if n_qubits is None:
        raise ParseError("missing 'qubits = <n>' declaration")
    if "Hi" not in section_lines or h_i is None:
        raise ParseError("missing [Hi] section with an operator")
    if "Hp" not in section_lines:
        raise ParseError("missing [Hp] section")
    if cost_table is not None:
        hp_values = [0.0] * (1 << n_qubits)
        for index, value in cost_table.items():
            hp_values[index] = value
    if hp_values is None:
        raise ParseError("section [Hp] declares no operator")

    if "schedule" in section_lines:
        if schedule_kind is None:
            raise ParseError(
                "section [schedule] needs a 'kind' line", section_lines["schedule"], 1
            )
        if schedule_kind == "linear":
            schedule = LINEAR
        else:
            try:
                schedule = ScheduleSpec("tabulated", tuple(schedule_samples))
            except ValueError as exc:
                raise ParseError(str(exc), section_lines["schedule"], 1) from None
    else:
        schedule = LINEAR

    try:
        return InstanceSpec(
            n_qubits=n_qubits,
            h_i=h_i,
            h_p=DiagonalSpec.from_values(n_qubits, hp_values),
            schedule=schedule,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _canonical_terms(expression: PauliExpression) -> list[tuple[float, str]]:
    merged: dict[str, float] = {}
    for coefficient, string in expression.terms:
        merged[string.axes] = merged.get(string.axes, 0.0) + coefficient
    return [(merged[axes], axes) for axes in sorted(merged)]


def serialize_instance(spec: InstanceSpec) -> str:
    """Render an instance in canonical text form.

    Pauli terms come out sorted and merged; a uniform projector is the
    ``projector-uniform`` shorthand.  Raises ``ValueError`` for operator
    descriptions the format cannot express (explicit matrices,
    non-uniform projectors).
    """
    lines = [f"qubits = {spec.n_qubits}", "[Hi]"]
    h_i = spec.h_i
    if isinstance(h_i, PauliExpression):
        canonical = _canonical_terms(h_i)
        if canonical:
            lines.append(
                "terms = " + ", ".join(f"{c!r} {axes}" for c, axes in canonical)
            )
        else:
            lines.append("terms = none")
    elif isinstance(h_i, DiagonalSpec):
        lines.append("diagonal = " + ", ".join(repr(v) for v in h_i.values))
    elif isinstance(h_i, ProjectorSpec):
        if not h_i.is_uniform():
            raise ValueError(
                "only the uniform projector complement has a text form"
            )
        lines.append("projector-uniform")
    else:
        raise ValueError(
            "explicit matrices have no text form; express h_i as Pauli terms, "
            "a diagonal, or the uniform projector complement"
        )
    lines.append("[Hp]")
    lines.append("diagonal = " + ", ".join(repr(v) for v in spec.h_p.values))
    lines.append("[schedule]")
    lines.append(f"kind = {spec.schedule.kind}")
    if spec.schedule.kind == "tabulated":
        for t, a, b in spec.schedule.samples:
            lines.append(f"sample = {t!r}, {a!r}, {b!r}")
    return "\n".join(lines) + "\n"
