"""Exact-arithmetic toolkit for the birational geometry of smooth toric
Fano 4-folds: polyhedral cone duality, fan surgeries (blow-ups,
contractions, flips), divisor-directed MMP runs, fixed-divisor
classification, and the anticanonical Riemann-Roch ledger."""

from .cones import RationalCone
from .fan import Fan, ValidationError, ValidationReport, fan_from_json, fan_to_json, validate
from .ledger import CurveBlowupData, LedgerState, run_script
from .library import builtin, builtin_names
from .mori import (
    BirationalTrace,
    ChamberFan,
    ConeSuite,
    FixedDivisorReport,
    classified_fixed_divisors,
    classify_fixed_divisor,
    cone_suite,
    fixed_prime_divisors,
    lefschetz_defect,
    mmp_all_for_divisor,
    mmp_for_divisor,
    mori_chambers,
    verify_bounds,
)
from .surgery import (
    ContractionDescriptor,
    SurgeryError,
    blowup,
    contract,
    extremal_rays,
    flip,
)
from .variety import ToricVariety, Wall

__version__ = "0.1.0"

__all__ = [
    "BirationalTrace",
    "ChamberFan",
    "ConeSuite",
    "ContractionDescriptor",
    "CurveBlowupData",
    "Fan",
    "FixedDivisorReport",
    "LedgerState",
    "RationalCone",
    "SurgeryError",
    "ToricVariety",
    "ValidationError",
    "ValidationReport",
    "Wall",
    "blowup",
    "builtin",
    "builtin_names",
    "classified_fixed_divisors",
    "classify_fixed_divisor",
    "cone_suite",
    "contract",
    "extremal_rays",
    "fan_from_json",
    "fan_to_json",
    "fixed_prime_divisors",
    "flip",
    "lefschetz_defect",
    "mmp_all_for_divisor",
    "mmp_for_divisor",
    "mori_chambers",
    "run_script",
    "validate",
    "verify_bounds",
]
