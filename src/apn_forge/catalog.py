"""Bundled reference functions and expected search outcomes.

Coefficients are recorded as exponents of the canonical primitive element
alpha of the default (Conway-modulus) field, so entries reproduce exactly
under mk_field(n).
"""

from . import linmap
from .errors import ApnForgeError, ParseError
from .field import mk_field
from .vbf import Form1, UnivariatePoly, from_univariate, power_map

# Known CCZ classes of APN functions x^9 + L(x^3), one representative per
# class and dimension: sparse {power_index: alpha_exponent} maps for L.
X9L_REPRESENTATIVES = {
    4: [{}],
    5: [{}, {i: 0 for i in range(5)}],
    6: [{0: 44, 1: 1}, {0: 23, 2: 0}],
    7: [{}],
    8: [
        {},
        {1: 0, 4: 0},
        {3: 0, 7: 0},
        {i: 0 for i in range(8)},
        {2: 0, 3: 85, 4: 0},
        {0: 60, 1: 200, 2: 242, 3: 190, 4: 1},
    ],
    9: [],
    10: [{}, {0: 1021, 1: 1022, 2: 1}],
}

EXPECTED_CLASS_COUNTS = {4: 1, 5: 2, 6: 2, 7: 1, 8: 6, 9: 0, 10: 2}

# x^9 + Tr(x^3) is APN exactly here (checked far beyond by the scan engine).
X9_TR3_APN_DIMS = {4, 5, 8}

# Binary-coefficient scan outcomes for 11 <= n <= 16: L masks of the APN hits.
BINARY_SCAN_HITS = {11: [0], 12: [], 13: [0], 14: [0], 15: [], 16: [0]}


def x9_rep_linmap(ctx, spec):
    return linmap.scaled(ctx, {i: ctx.alpha_pow(e) for i, e in spec.items()})


def x9_rep(n, index):
    """Form1 for one catalogued x^9+L(x^3) representative."""
    ctx = mk_field(n)
    spec = X9L_REPRESENTATIVES[n][index]
    return Form1(x9_rep_linmap(ctx, spec), linmap.identity(ctx))


def dillon6():
    """Dillon's quadratic APN hexanomial over GF(2^6); 46 bent components."""
    ctx = mk_field(6)
    a = ctx.alpha_pow
    p = UnivariatePoly(
        ctx, {3: 1, 5: a(11), 9: a(13), 17: 1, 33: a(11), 48: 1}
    )
    return from_univariate(p)


# Two catalogued dimension-8 APN polynomials that the classification work
# matches against (claimed CCZ partners of representatives 4 and 5).
def n8_quadrinomial():
    ctx = mk_field(8)
    a = ctx.alpha_pow
    return from_univariate(
        UnivariatePoly(ctx, {144: a(135), 66: a(120), 18: a(65), 3: 1})
    )


def n8_sixteen_term():
    ctx = mk_field(8)
    a = ctx.alpha_pow
    terms = {
        192: a(242), 144: a(100), 132: a(66), 129: a(230),
        96: a(202), 72: a(156), 66: a(254), 48: a(18),
        36: a(44), 33: a(95), 24: a(100), 18: a(245),
        12: a(174), 9: a(175), 6: a(247), 3: a(166),
    }
    return from_univariate(UnivariatePoly(ctx, terms))


# Consistency claims: each x^9+L(x^3) representative paired with the
# function it is reported CCZ-equivalent to ("equal" -> identical profiles
# expected) or reported inequivalent from ("differs" -> distinct profiles
# expected, checked against the whole comparison family).
def _tr9(n, a_exp=None):
    from .apn import family

    ctx = mk_field(n)
    a = 1 if a_exp is None else ctx.alpha_pow(a_exp)
    return family("tr9", ctx, a)


def equivalence_claims():
    claims = []
    claims.append(("n4 rep1 ~ x^9", x9_rep(4, 0).realize(), "equal", power_map(mk_field(4), 9)))
    claims.append(("n6 rep0 ~ x^3+a^-1Tr(a^3x^9)", x9_rep(6, 0).realize(), "equal", _tr9(6, 1)))
    claims.append(("n6 rep1 ~ x^3+Tr(x^9)", x9_rep(6, 1).realize(), "equal", _tr9(6)))
    claims.append(("n8 rep1 ~ x^3+Tr(x^9)", x9_rep(8, 1).realize(), "equal", _tr9(8)))
    claims.append(("n8 rep2 ~ x^3", x9_rep(8, 2).realize(), "equal", power_map(mk_field(8), 3)))
    claims.append(("n8 rep4 ~ quadrinomial", x9_rep(8, 4).realize(), "equal", n8_quadrinomial()))
    claims.append(("n8 rep5 ~ 16-term", x9_rep(8, 5).realize(), "equal", n8_sixteen_term()))
    return claims


def builtin(name):
    """Resolve a builtin alias to (ctx, VBF).

    Aliases: dillon6, gold3@n=<n>, tr9@a=<int or a^k>[,n=<n>], t3:<n>:<index>.
    """
    from .apn import family

    def number(text, base=10):
        try:
            return int(text, base)
        except ValueError:
            raise ParseError(f"{text!r} is not a number in builtin alias {name!r}") from None

    if name == "dillon6":
        F = dillon6()
        return F.ctx, F
    if name.startswith("gold3"):
        n = number(name.split("n=")[1]) if "n=" in name else 6
        ctx = mk_field(n)
        return ctx, power_map(ctx, 3)
    if name.startswith("tr9"):
        n = 6
        a_spec = "1"
        for part in name.split("@")[1:]:
            for kv in part.split(","):
                key, _, val = kv.partition("=")
                if key == "a":
                    a_spec = val
                elif key == "n":
                    n = number(val)
        ctx = mk_field(n)
        if a_spec.startswith("a^"):
            a = ctx.alpha_pow(number(a_spec[2:]))
        elif a_spec == "a":
            a = ctx.alpha
        else:
            a = number(a_spec, 0)
        if not 0 <= a < ctx.order:
            raise ParseError(f"a={a_spec} is not an element of GF(2^{n})")
        return ctx, family("tr9", ctx, a)
    if name.startswith("t3:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ParseError(f"builtin alias {name!r} is not t3:<n>:<index>")
        n, i = number(parts[1]), number(parts[2])
        if not 0 <= i < len(X9L_REPRESENTATIVES.get(n, ())):
            raise ParseError(f"no catalogued representative {i} at n={n}")
        form = x9_rep(n, i)
        return form.ctx, form.realize()
    raise ApnForgeError(f"unknown builtin alias {name!r}")
