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

A public name's home module is imported on first access (PEP 562), so
`import coh` loads no submodule and a book query never loads the modal layer.
"""

from importlib import import_module

# Each defining module and the public names it exports.
_EXPORTS = {
    "coherence": (
        "Book", "CoherenceVerdict", "CoherentSet", "EventList", "IncoherentBookError",
        "check_book", "coherent_set", "extension_interval",
    ),
    "exact": ("Rat", "parse_rational", "rat_str"),
    "formula": (
        "ParseError", "VarContext", "canonical_serialize", "evaluate_formula", "formula_depth",
        "free_vars", "modal_atoms", "parse_event", "parse_modal",
    ),
    "fplogic": (
        "ConsequenceResult", "ProbSubstitution", "TranslationContext", "UnificationProblem",
        "decide_consequence", "deduction_exponent", "is_probabilistic_substitution",
        "oneset_formula", "prove", "translate", "verify_generality", "verify_unifier",
    ),
    "polytope": ("MembershipCertificate", "Polytope", "membership"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name, and keep the value here so
    later lookups do not come back.  Any other name is an AttributeError,
    which lets `from coh import <submodule>` fall through to the import."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
