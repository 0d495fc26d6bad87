"""Exact arithmetic for a two-valued word and its continued fractions.

The package constructs the recursive two-letter word, encodes it as a formal
Laurent series over Q or GF(p), expands series and rational functions as
continued fractions with certified precision, and mechanically verifies the
approximation laws, the degree structure of the expansion, the measure
identity, the conjectured quotient shapes, and the quartic-root origin of the
word over GF(3).  Everything is exact; there is no floating point anywhere.
"""

from .fields import GF, QQ, PrimeField, RationalField
from .poly import (
    ParseError,
    Polynomial,
    RationalFunction,
    format_poly,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
)
from .series import LaurentSeries, PrecisionError, series_of_fraction
from .words import (
    AuxWords,
    aux_words,
    block,
    check_identities,
    first_difference_rank,
    first_letters_differ,
    last_letters_differ,
    length_closed_form_ok,
    lengths,
    prefix,
    residual_suffixes,
    tail_periodic_symbols,
    theta_series,
    word_fraction,
    word_poly,
)
from .cf import (
    ContinuedFraction,
    ConvergentTable,
    MeasureTerm,
    SeriesExpansion,
    approx_order,
    cf_of_fraction,
    cf_of_series,
    convergents,
    eval_cf,
    measure_terms,
)
from .verify import (
    AlphabetVariant,
    ApproximantPair,
    CheckReport,
    ConjectureOutcome,
    ConjectureRow,
    QuarticExpansion,
    alphabet_variant,
    check_conjecture,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_theorem3,
    conjecture_row,
    pure_periodic_pair,
    quartic_expansion,
    quartic_lambda_check,
    quartic_root,
    run_suite,
    tail_periodic_pair,
    theta_expansion,
)

__version__ = "0.1.0"
