"""Circulant-graph isomorphism toolkit.

Classifies isomorphisms of circulant graphs into multiplier (Type-1) and
residue-shift (Type-2) classes, enumerates all Type-2 pairs of an order,
proves isomorphisms by edge-checked vertex maps or an exact
graph-isomorphism oracle, and generates parametric Type-2 families.
"""

from .adam import AdamOrbit, adam_orbit, same_adam_orbit
from .classify import (
    CIStatus,
    ClassificationRecord,
    OrbitVerdict,
    PairCensus,
    admissible_m,
    certify_isomorphism,
    ci_full_census,
    ci_theta_status,
    classify_pair,
    confirm_with_oracle,
    enumerate_type2,
)
from .families import (
    FamilyInstance,
    family_m2,
    family_m3,
    family_m5,
    family_m7,
    scale_pair,
    verify_instance,
)
from .graphs import (
    ConnectionSet,
    EdgeSet,
    build_edges,
    is_isomorphism,
    parse_connection_sets,
)
from .modarith import DegenerateSetError, divisors_gt1, reduce_set, reflexive_reduce
from .oracle import OracleCapError, are_isomorphic
from .report import emit_census, parse_census_json, render_theta_table, theta_table_rows
from .theta import ThetaMap, ThetaResult, theta_image

__all__ = [
    "AdamOrbit",
    "CIStatus",
    "ClassificationRecord",
    "ConnectionSet",
    "DegenerateSetError",
    "EdgeSet",
    "FamilyInstance",
    "OracleCapError",
    "OrbitVerdict",
    "PairCensus",
    "ThetaMap",
    "ThetaResult",
    "adam_orbit",
    "admissible_m",
    "are_isomorphic",
    "build_edges",
    "certify_isomorphism",
    "ci_full_census",
    "ci_theta_status",
    "classify_pair",
    "confirm_with_oracle",
    "divisors_gt1",
    "emit_census",
    "enumerate_type2",
    "family_m2",
    "family_m3",
    "family_m5",
    "family_m7",
    "is_isomorphism",
    "parse_census_json",
    "parse_connection_sets",
    "reduce_set",
    "reflexive_reduce",
    "render_theta_table",
    "same_adam_orbit",
    "scale_pair",
    "theta_image",
    "theta_table_rows",
    "verify_instance",
]

__version__ = "0.1.0"
