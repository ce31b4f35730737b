"""The benchmark oracle checked against theory, not against apn_forge.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import math
import random

import numpy as np
import pytest

import oracle


def _prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


@pytest.mark.parametrize("n", sorted(oracle.CONWAY))
def test_x_is_primitive_for_every_embedded_modulus(n):
    fld = oracle.Field(n)
    N = fld.order - 1
    x = np.array([2])
    assert fld.power(x, N)[0] == 1
    for q in _prime_factors(N):
        assert fld.power(x, N // q)[0] != 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_field_axioms_on_random_elements(n):
    fld = oracle.Field(n)
    rng = np.random.default_rng(n)
    a, b, c = rng.integers(0, fld.order, size=(3, 200))
    assert np.array_equal(fld.mul(a, b), fld.mul(b, a))
    assert np.array_equal(fld.mul(a, b ^ c), fld.mul(a, b) ^ fld.mul(a, c))
    assert np.array_equal(fld.mul(fld.mul(a, b), c), fld.mul(a, fld.mul(b, c)))
    assert np.array_equal(fld.mul(a, 1), a)
    assert set(np.unique(fld.trace())) == {0, 1}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_gold_exponents_are_apn_exactly_when_coprime(n):
    fld = oracle.Field(n)
    tables = np.stack([fld.power(fld.elements, (1 << i) + 1) for i in range(1, n)])
    flags = oracle.is_apn(tables)
    assert flags.tolist() == [math.gcd(i, n) == 1 for i in range(1, n)]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cube_map_has_two_thirds_bent_components_on_even_n(n):
    fld = oracle.Field(n)
    assert oracle.bent_count(fld, fld.cube) == 2 * (fld.order - 1) // 3


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cube_map_on_odd_n_is_almost_bent(n):
    fld = oracle.Field(n)
    assert set(oracle.ext_walsh(fld, fld.cube)) == {0, 1 << ((n + 1) // 2)}
    half = (fld.order - 1) * fld.order // 2
    assert oracle.diff_spectrum(fld.cube) == {0: half, 2: half}


@pytest.mark.parametrize("n", [1, 3, 6])
def test_walsh_transform_is_an_involution_up_to_scale(n):
    rng = np.random.default_rng(n)
    signs = 1 - 2 * rng.integers(0, 2, size=(5, 1 << n))
    assert np.array_equal(oracle.walsh(oracle.walsh(signs)), (1 << n) * signs)


def test_walsh_of_a_linear_function_is_a_single_peak():
    n, u = 5, 0b10110
    xs = np.arange(1 << n)
    signs = 1 - 2 * (np.array([bin(x & u).count("1") for x in xs]) & 1)
    expected = np.zeros(1 << n, dtype=np.int64)
    expected[u] = 1 << n
    assert np.array_equal(oracle.walsh(signs), expected)


@pytest.mark.parametrize("n", [4, 5])
def test_linear_tables_match_direct_evaluation(n):
    fld = oracle.Field(n)
    rng = np.random.default_rng(7)
    coeffs = rng.integers(0, fld.order, size=(4, n))
    direct = np.zeros((4, fld.order), dtype=np.int64)
    for i in range(n):
        direct ^= fld.mul(coeffs[:, i : i + 1], fld.power(fld.elements, 1 << i)[None, :])
    assert np.array_equal(oracle.linear_tables(fld, coeffs), direct)


def test_is_apn_refutes_a_non_apn_member_and_accepts_gold():
    fld = oracle.Field(6)
    zero = np.zeros((1, 6), dtype=np.int64)
    one = np.eye(1, 6, dtype=np.int64)
    # x^3 is APN; x^9 = x^(2^3+1) with gcd(3, 6) = 3 is not.
    assert oracle.is_apn(oracle.form1_tables(fld, one, zero)).tolist() == [True]
    assert oracle.is_apn(oracle.form1_tables(fld, zero, one)).tolist() == [False]


def test_sampler_is_deterministic_and_in_range():
    a = [oracle.sample(3, i, 12, 1 << 6) for i in range(50)]
    assert a == [oracle.sample(3, i, 12, 1 << 6) for i in range(50)]
    assert all(0 <= v < 64 for row in a for v in row)
    assert a != [oracle.sample(4, i, 12, 1 << 6) for i in range(50)]


def test_ea_transform_keeps_apn_and_the_differential_spectrum():
    fld = oracle.Field(5)
    G = oracle.random_ea_transform(5, fld.cube, random.Random(1))
    assert G[0] == 0
    assert not np.array_equal(G, fld.cube)
    assert oracle.is_apn(G).tolist() == [True]
    assert oracle.diff_spectrum(G) == oracle.diff_spectrum(fld.cube)
    assert oracle.ext_walsh(fld, G) == oracle.ext_walsh(fld, fld.cube)
