"""Exact arithmetic for a two-valued word and its continued fractions.

The package constructs the recursive two-letter word, encodes it as a formal
Laurent series over Q or GF(p), expands series and rational functions as
continued fractions with certified precision, and mechanically verifies the
approximation laws, the degree structure of the expansion, the measure
identity, the conjectured quotient shapes, and the quartic-root origin of the
word over GF(3).  Everything is exact; there is no floating point anywhere.

``import wordcf`` loads no submodule: each public name below is looked up in
its submodule on first use (PEP 562), so a command pays only for the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("GF", "PrecisionError", "QQ", "PrimeField", "RationalField"), "fields"),
    **dict.fromkeys(("Polynomial", "format_poly", "poly_gcd"), "poly"),
    **dict.fromkeys(("ParseError", "RationalFunction", "parse_poly", "parse_ratfunc"), "ratfunc"),
    **dict.fromkeys(("LaurentSeries", "series_of_fraction"), "series"),
    **dict.fromkeys(
        (
            "AuxWords",
            "aux_words",
            "block",
            "check_identities",
            "first_letters_differ",
            "last_letters_differ",
            "length_closed_form_ok",
            "lengths",
            "prefix",
            "residual_suffixes",
            "theta_series",
            "word_poly",
        ),
        "words",
    ),
    **dict.fromkeys(
        (
            "ContinuedFraction",
            "ConvergentTable",
            "MeasureTerm",
            "SeriesExpansion",
            "cf_of_fraction",
            "cf_of_series",
            "convergents",
            "measure_terms",
        ),
        "cf",
    ),
    **dict.fromkeys(
        (
            "AlphabetVariant",
            "ApproximantPair",
            "ConjectureOutcome",
            "ConjectureRow",
            "alphabet_variant",
            "check_conjecture",
            "check_corollary",
            "check_lemma1",
            "check_lemma2",
            "check_lemma3",
            "check_theorem3",
            "conjecture_row",
            "pure_periodic_pair",
            "run_suite",
            "tail_periodic_pair",
            "theta_expansion",
        ),
        "verify",
    ),
    **dict.fromkeys(("QuarticExpansion", "quartic_expansion", "quartic_root"), "quartic"),
    "CheckReport": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Not cached in the package namespace, so a name rebound in its
    # submodule (as tracing wrappers do) reads the same here.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
