"""E-polynomials of surface-group representation varieties, computed by
exact transfer-matrix evaluation over arbitrary finite groups and over
the affine group of the complex line, with brute-force oracles for
cross-checking."""

from .poly import (
    LaurentPoly,
    NonExactDivision,
    PolyParseError,
    ZeroBase,
    parse_poly,
    ONE,
    Q,
    U,
    V,
    ZERO,
)
from .tqft import (
    GENUS_TUBE,
    IDENTITY_TUBE,
    InvalidDatum,
    TqftDatum,
    TubeGenerator,
    UnknownPunctureLabel,
    assemble_word,
    datum_from_json_dict,
    datum_to_json_dict,
    load_datum,
    puncture_tube,
    save_datum,
    word_epoly,
    word_fold,
)
from .finite_group import (
    BudgetExceeded,
    ConjugacyClasses,
    FiniteGroup,
    GroupTooLarge,
    NotAGroup,
    NotConjugationClosed,
    brute_force_count,
    class_datum,
    conjugacy_classes,
    conjugacy_closure,
    from_cayley_table,
    from_permutation_generators,
    group_from_json_dict,
    load_group,
)
from .affc import affc_closed_form, affc_datum

__version__ = "0.1.0"
