"""Exact de Finetti coherence over Łukasiewicz events, and the two-layer
probability logic it decides.

The library answers, with machine-checkable certificates:

* is a book of rational prices on many-valued events coherent (state
  witness) or Dutch-bookable (explicit stakes)?
* which prices coherently extend a book to a further event?
* does one modal probability formula entail another (countermodel book on
  failure)?
* is a map of atomic probability formulas a probabilistic substitution, a
  unifier of a set of identities, or a generality composition?

All arithmetic is exact rational; nothing is ever rounded.
"""

from .coherence import (
    Book,
    CoherenceVerdict,
    CoherentSet,
    EventList,
    IncoherentBookError,
    check_book,
    coherent_set,
    extension_interval,
)
from .exact import Rat, parse_rational, rat_str
from .formula import (
    ParseError,
    VarContext,
    canonical_serialize,
    evaluate_formula,
    formula_depth,
    free_vars,
    modal_atoms,
    normalize,
    parse_event,
    parse_modal,
)
from .fplogic import (
    ConsequenceResult,
    ProbSubstitution,
    TranslationContext,
    UnificationProblem,
    decide_consequence,
    deduction_exponent,
    is_probabilistic_substitution,
    oneset_formula,
    prove,
    translate,
    verify_generality,
    verify_unifier,
)
from .polytope import MembershipCertificate, Polytope, membership

__all__ = [
    "Book",
    "CoherenceVerdict",
    "CoherentSet",
    "ConsequenceResult",
    "EventList",
    "IncoherentBookError",
    "MembershipCertificate",
    "ParseError",
    "Polytope",
    "ProbSubstitution",
    "Rat",
    "TranslationContext",
    "UnificationProblem",
    "VarContext",
    "canonical_serialize",
    "check_book",
    "coherent_set",
    "decide_consequence",
    "deduction_exponent",
    "evaluate_formula",
    "extension_interval",
    "formula_depth",
    "free_vars",
    "is_probabilistic_substitution",
    "membership",
    "modal_atoms",
    "normalize",
    "oneset_formula",
    "parse_event",
    "parse_modal",
    "parse_rational",
    "prove",
    "rat_str",
    "translate",
    "verify_generality",
    "verify_unifier",
]
