"""Conway polynomials over GF(2) for extension degrees 1..20.

Encoding: bit j of the integer is the coefficient of x^j, so
x^6+x^4+x^3+x+1 is 0b1011011 = 0x5B.

The embedded table was generated with :func:`compute_conway` below and is
re-derivable in tests.
"""

CONWAY_GF2 = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x5B,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x46F,
    11: 0x805,
    12: 0x10EB,
    13: 0x201B,
    14: 0x40A9,
    15: 0x8035,
    16: 0x1002D,
    17: 0x20009,
    18: 0x41403,
    19: 0x80027,
    20: 0x1006F3,
}


def poly_mulmod(a, b, f, n):
    """Carry-less product of a and b reduced mod f (deg f = n)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= f
    return r


def poly_powmod(a, e, f, n):
    r = 1
    while e:
        if e & 1:
            r = poly_mulmod(r, a, f, n)
        e >>= 1
        a = poly_mulmod(a, a, f, n)
    return r


def prime_factors(m):
    fs = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            fs.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fs.append(m)
    return fs


def is_primitive_poly(f, n):
    """True iff x has multiplicative order 2^n-1 mod f (implies f irreducible)."""
    order = (1 << n) - 1
    if poly_powmod(2, order, f, n) != 1:
        return False
    return all(poly_powmod(2, order // q, f, n) != 1 for q in prime_factors(order))


def is_irreducible_poly(f, n):
    """Rabin test: x^(2^n) == x mod f and x^(2^(n/q)) != x for prime q | n."""
    if n < 1 or (f >> n) != 1:
        return False
    x2k = 2
    for _ in range(n):
        x2k = poly_mulmod(x2k, x2k, f, n)
    if x2k != 2:
        return False
    for q in prime_factors(n):
        y = 2
        for _ in range(n // q):
            y = poly_mulmod(y, y, f, n)
        if y == 2:
            return False
    return True


def _norm_compatible(f, n, table):
    order = (1 << n) - 1
    for m in range(1, n):
        if n % m:
            continue
        y = poly_powmod(2, order // ((1 << m) - 1), f, n)
        acc, yp, g = 0, 1, table[m]
        while g:
            if g & 1:
                acc ^= yp
            g >>= 1
            yp = poly_mulmod(yp, y, f, n)
        if acc:
            return False
    return True


def compute_conway(max_n=20):
    """Recompute the Conway table from scratch (lex-least compatible primitive)."""
    table = {1: 0b11}
    for n in range(2, max_n + 1):
        for t in range(1 << n):
            f = (1 << n) | t
            if is_primitive_poly(f, n) and _norm_compatible(f, n, table):
                table[n] = f
                break
        else:
            raise RuntimeError(f"no Conway polynomial found for degree {n}")
    return table

