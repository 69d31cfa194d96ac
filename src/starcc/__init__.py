"""Star central configurations of five equal masses, reduced to (r3, r5).

The public surface mirrors the layering: geometry (constants, R2 points),
kernel (the one closure, domain test, multiplier formulas and the local
square system F), forces (floating evaluation), intervals (outward-rounded
arithmetic and the interval backends of the kernel), regions
(the 16-piece partition and its proof plans), certify (branch-and-bound +
local uniqueness certificates and their verifier), solver (floating
companion), pool (the process pool certify, verify and scan share), cli
(console entry point).
"""

from .geometry import A, B, DomainError, nz, quasi_points
from .kernel import in_domain
from .forces import (
    HESSIAN_CLOSED_FORM,
    HESSIAN_CLOSED_FORM_DET,
    LAMBDA_STAR,
    NearZeroDenominator,
    ResidualVector,
    config_measure,
    gradient_measure,
    hessian_measure,
    lambda_component,
    moment_I,
    potential_U,
    residual_vector,
    y1_residual,
)
from .intervals import (
    Box2,
    DivisionByZeroInterval,
    NegativeArgument,
    VInterval,
    pentagon_constants,
)
from .regions import (
    DELTA_B0,
    REGION_IDS,
    TRUNCATION_R5,
    PartitionReport,
    Region,
    RegionPlan,
    partition_audit,
    region_def,
    region_excises_b0,
    region_plan,
)
from .certify import (
    BudgetExhausted,
    Certificate,
    CertificationManifest,
    CertificationRefuted,
    ContractionFailure,
    CoverageGap,
    LeafBoundViolation,
    LocalUniquenessCertificate,
    MalformedCertificate,
    RunConfig,
    certify_all,
    certify_inequality,
    certify_local_uniqueness,
    verify_certificate,
    verify_local_certificate,
)
from .solver import (
    Diverged,
    LeftDomain,
    MaxIterations,
    RefinedRoot,
    RootReport,
    ScanRoot,
    grid_scan,
    newton_refine,
)

__version__ = "1.0.0"

__all__ = [
    "A", "B", "DomainError", "nz", "quasi_points", "in_domain",
    "HESSIAN_CLOSED_FORM", "HESSIAN_CLOSED_FORM_DET", "LAMBDA_STAR",
    "NearZeroDenominator", "ResidualVector", "config_measure",
    "gradient_measure", "hessian_measure", "lambda_component", "moment_I",
    "potential_U", "residual_vector", "y1_residual",
    "Box2", "DivisionByZeroInterval", "NegativeArgument", "VInterval",
    "pentagon_constants",
    "DELTA_B0", "REGION_IDS", "TRUNCATION_R5", "PartitionReport", "Region",
    "RegionPlan", "partition_audit", "region_def",
    "region_excises_b0", "region_plan",
    "BudgetExhausted", "Certificate", "CertificationManifest",
    "CertificationRefuted", "ContractionFailure", "CoverageGap",
    "LeafBoundViolation", "LocalUniquenessCertificate",
    "MalformedCertificate", "RunConfig", "certify_all",
    "certify_inequality", "certify_local_uniqueness", "verify_certificate",
    "verify_local_certificate",
    "Diverged", "LeftDomain", "MaxIterations", "RefinedRoot", "RootReport",
    "ScanRoot", "grid_scan", "newton_refine",
    "__version__",
]
