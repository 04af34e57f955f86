"""gapcert: certify and sweep ground-state gaps of interpolating Hamiltonians.

Given a pair (h_i, h_p) with h_p diagonal in the computational basis,
this package decides a sufficient condition under which the interpolation
``(1-s) h_i + s h_p`` keeps a nonzero gap between its lowest two levels
for every s in [0, 1), independently re-checks the underlying
Perron-Frobenius argument, and sweeps the low spectrum numerically to
locate (or rule out, on the grid) level crossings.
"""

from .paulialg import (
    MAX_QUBITS,
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    PauliString,
    ProjectorSpec,
    build_diagonal,
    build_pauli,
    build_projector_complement,
    diagonal_values,
    interpolate,
    to_matrix,
)
from .specfile import (
    LINEAR,
    InstanceSpec,
    ParseError,
    ScheduleSpec,
    parse_instance,
    serialize_instance,
)
from .spectral import (
    EigenSystem,
    GroundState,
    eigensystem,
    ground_state,
    low_spectrum,
)
from .certifier import (
    CertificateReport,
    Condition1Violated,
    NonUniqueGround,
    PhaseGauge,
    certify,
    certify_pair,
    check_condition2,
    extract_gauge,
    render_structured,
    render_text,
)
from .perron import (
    AuxiliaryF,
    EntryNegative,
    PowerLimitResult,
    PrimitivityCertificate,
    ProofChainReport,
    ProofSample,
    auxiliary_f,
    default_chain_grid,
    power_limit_projector,
    primitivity,
    render_chain_text,
    verify_proof_chain,
    verify_proof_chain_pair,
    wielandt_bound,
)
from .cases import (
    FAMILIES,
    CaseParams,
    NotWeightSymmetric,
    WeightBlock,
    block_pair,
    build_case,
    case_h_i,
    certify_block,
    default_h_p,
    ground_state_reference,
    weight_blocks,
)
from .sweep import (
    CrossingPresent,
    GapProfile,
    RuntimeEstimate,
    estimate_runtime,
    export_profile,
    export_svg,
    schedule_sweep,
    summarize_profile,
    sweep_pair,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS", "DiagonalSpec", "HermitianMatrix", "PauliExpression",
    "PauliString", "ProjectorSpec", "build_diagonal", "build_pauli",
    "build_projector_complement", "diagonal_values", "interpolate", "to_matrix",
    "LINEAR", "InstanceSpec", "ParseError", "ScheduleSpec",
    "parse_instance", "serialize_instance",
    "EigenSystem", "GroundState", "eigensystem", "ground_state", "low_spectrum",
    "CertificateReport", "Condition1Violated", "NonUniqueGround", "PhaseGauge",
    "certify", "certify_pair", "check_condition2", "extract_gauge",
    "render_structured", "render_text",
    "AuxiliaryF", "EntryNegative", "PowerLimitResult", "PrimitivityCertificate",
    "ProofChainReport", "ProofSample", "auxiliary_f", "default_chain_grid",
    "power_limit_projector", "primitivity", "render_chain_text",
    "verify_proof_chain", "verify_proof_chain_pair", "wielandt_bound",
    "FAMILIES", "CaseParams", "NotWeightSymmetric", "WeightBlock",
    "block_pair", "build_case", "case_h_i", "certify_block", "default_h_p",
    "ground_state_reference", "weight_blocks",
    "CrossingPresent", "GapProfile", "RuntimeEstimate", "estimate_runtime",
    "export_profile", "export_svg", "schedule_sweep",
    "summarize_profile", "sweep_pair",
]
