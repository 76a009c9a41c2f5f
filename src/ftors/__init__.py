"""Exact tools for torsion classes of quiver representations over F_p.

Everything is computed with explicit matrices over a prime field: Hom and
Ext spaces, decompositions, translates, tubes, double-extension pairs, and
torsion-class posets, with verification baked into each construction.
"""

from .quiver import (
    Arrow,
    QuiverError,
    QuiverType,
    ValuedQuiver,
    VerificationError,
    classify_type,
    euler_matrix,
    load_quiver,
    parse_quiver,
    parse_quiver_json,
    quiver_to_json,
    radical_vector,
    subquiver_restrict,
)
from .roots import (
    coxeter_matrix,
    coxeter_transform,
    defect,
    euler_form,
    positive_roots,
    quadratic_form,
)
from .modules import (
    DecompositionInconclusive,
    ExtensionCapError,
    Representation,
    ar_translate,
    ar_translate_inverse,
    decompose,
    direct_sum,
    dual,
    ext_dim,
    hom_basis,
    hom_dim,
    injective,
    is_isomorphic,
    make_rep,
    middle_terms,
    normalize,
    projective,
    random_rep,
    rep_from_json,
    rep_to_json,
    simple,
    universal_extension,
)
from .ar_quiver import ARQuiver, ar_quiver_dot, knit_ar_quiver
from .tubes import Tube, find_regular_simples, tube_mouth_pair
from .ext_pairs import (
    ExtPairCertificate,
    ExtPairInconclusive,
    construct_case2,
    construct_case3,
    construct_case4,
    find_ext_pair,
    verify_ext_pair,
)
from .tors import (
    FiltrationUniverse,
    LatticeReport,
    ModuleUniverse,
    enumerate_torsion_classes,
    filtration_universe,
    find_cover,
    finite_universe,
    in_gen_closure,
    in_torsion_closure,
    lattice_check,
    no_cover_evidence,
    serial_object,
    torsion_closure,
    two_vertex_check,
    validate_ext_cycle,
)

__version__ = "0.1.0"
