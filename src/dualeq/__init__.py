"""Exact-arithmetic toolkit for dual equivalence on words and tableaux.

Quasisymmetric expansions of Schur, Schur-P and Schur-Q functions;
enumeration of (shifted, signed) tableaux; the elementary dual equivalence
involutions d, b, phi, psi; and mechanical verification of the strong, weak
and shifted dual-equivalence axiom systems on finite grounds.
"""

from .core import (
    InternalInvariantError,
    InvalidShapeError,
    parse_partition,
    partition_str,
    partitions_of,
    peak_of,
    peak_sets,
    strict_partitions_of,
    subset_str,
)
from .engine import (
    ClassClassification,
    ClassificationFailure,
    DegParseError,
    DEGround,
    VerificationReport,
    build_ground,
    class_genfn,
    classes,
    classify_shifted_class,
    find_isomorphism,
    lemma_axiom4_check,
    parse_deg,
    relabel_peak_minus_one,
    restricted_class,
    subground,
    verify_shifted,
    verify_strong,
    verify_weak,
)
from .involutions import b, b_tab, d, d_tab, phi, psi
from .qsym import (
    G_of_peaks,
    G_to_F,
    NotInSpan,
    NotSymmetric,
    P_in_F,
    P_in_G,
    PExpansion,
    Q_in_F,
    QSymF,
    QSymG,
    SchurExpansion,
    expand,
    expand_in_P,
    expand_in_schur,
    monomial_series,
    parse_expansion,
    poly_render,
    qsymf_specialize,
    schur_in_F,
)
from .tableaux import (
    Tableau,
    descent_set_tab,
    descent_set_word,
    enumerate_shssyt,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_ssyt,
    enumerate_syt,
    format_tableau,
    parse_tableau,
    reading_word,
    word_str,
)

__version__ = "1.0.0"
