"""Decorated-graph calculus for circle actions on symplectic 4-manifolds."""

from .lattice import (
    CohomologyVector,
    HomologyClass,
    SurfaceModel,
    basis_check,
    canonical_chern,
    classify_negative,
    enumerate_negative_classes,
    intersect,
    is_reduced,
    pair,
    volume,
)
from .graphs import (
    BaseFamilyParams,
    DecoratedGraph,
    base_hirzebruch,
    base_ruled,
    normal_form,
    render_dot,
    validate,
)
from .blowup import BlowupSite, apply_blowup, blowup_sites
from .enumeration import EnumerationSpec, classify_sequence_types, enumerate_graphs
from .obstruct import (
    INTEGRABLE_BLOWUP,
    STABILIZER_ONLY,
    RequiredClass,
    certified_classes,
    check_nonextension,
    last_blowup_classes,
)
from .cone import (
    GENERATOR_LISTS,
    GeneratorList,
    cone_membership,
    curve_list_audit,
    nakai_check,
    verify_picard_basis,
)
from .scenarios import Scenario, builtin_scenarios, load_scenario, run_scenario

__version__ = "0.1.0"
