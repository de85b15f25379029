"""Constructive block codes between shift spaces.

Builds injective block codes from a low-entropy source into a
higher-entropy mixing SFT: interpolation with specification gaps, marker
synchronization, marriage dictionaries, entropy estimators, and an
exact-arithmetic toral-automorphism companion.
"""

from .shiftspace import (Sft, Word, WindowMetricParams, build_sft,
                         count_words, enumerate_words, parse_sft,
                         serialize_sft, specification_gap,
                         topological_entropy, window_distance_below)
from .measures import (MarkovMeasure, parse_measure, serialize_measure,
                       stationary_vector)
from .estimators import (BlockDistribution, binary_entropy, bk_estimate,
                         dbar_entropy_bound, dbar_sample_upper, dw_estimate,
                         weakstar_surrogate)
from .interp import SegmentPlan, connect_words, interpolate
from .splicer import (Skeleton, skeleton_params, splice_entropy_boost,
                      splice_full_support)
from .markers import MarkerScheme, avoidance_filter, find_marker, locate_offset
from .dictionary import (BoySet, Dictionary, GirlSet, ParameterPack, boys,
                         build_relation, choose_parameters, dictionary, girls,
                         hall_match, marriage_bound, verify_dictionary_bounds)
from .codec import (BlockParse, CodedPair, audit_badset, audit_entropy,
                    audit_weakstar, decode, encode, lz78_entropy,
                    rokhlin_parse)

__version__ = "0.1.0"

# The toral companion needs sympy and mpmath, which take most of the
# import time; its names load on first access (PEP 562).
_TORAL_NAMES = frozenset({
    "CyclotomicSplit", "classify", "cyclotomic_split", "halmos_membership",
    "is_quasi_hyperbolic", "split_action", "toral_entropy"})


def __getattr__(name):
    if name in _TORAL_NAMES:
        from . import toral
        return getattr(toral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
