"""GF(2^n) toolkit for APN functions of the form L1(x^3) + L2(x^9):
field arithmetic, linearized polynomials, Walsh/bent analysis, APN tests
with quick-reject filters, equivalence-class invariants, and a
deterministic search engine with reproduction pipelines."""

from .field import FieldCtx, mk_field, parse_field_spec
from .linmap import LinearizedPoly
from .vbf import VBF, BooleanFunction, Form1, UnivariatePoly, from_univariate, power_map
from .apn import ApnVerdict, Ddt, is_apn_naive, is_apn_quadratic, is_apn_lemma1, is_apn_tcondition
from .spectral import SpectralProfile, WalshSpectrum, bent_components, wht
from .equiv import InvariantProfile, ortho_derivative, partition, profile
from .search import SearchJob, run, reproduce

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "mk_field",
    "parse_field_spec",
    "LinearizedPoly",
    "VBF",
    "BooleanFunction",
    "Form1",
    "UnivariatePoly",
    "from_univariate",
    "power_map",
    "ApnVerdict",
    "Ddt",
    "is_apn_naive",
    "is_apn_quadratic",
    "is_apn_lemma1",
    "is_apn_tcondition",
    "SpectralProfile",
    "WalshSpectrum",
    "bent_components",
    "wht",
    "InvariantProfile",
    "ortho_derivative",
    "partition",
    "profile",
    "SearchJob",
    "run",
    "reproduce",
    "__version__",
]
