import itertools

import pytest
from oracles import frobenius, from_vector, to_vector

from dp4sieve.errors import DivisionByZero, NonPrime, UnsupportedSize
from dp4sieve.field import make_field, monic_irreducibles


def test_prime_fields():
    f2 = make_field(2, 1)
    assert (f2.p, f2.n, f2.q, f2.modulus) == (2, 1, 2, ())
    f3 = make_field(3)
    assert f3.q == 3
    assert f3.add(2, 2) == 1


def test_f4_modulus_is_lex_least():
    # x^2 + x + 1 is the only monic irreducible quadratic over F_2
    assert monic_irreducibles(make_field(2), 2) == ((1, 1, 1),)
    f4 = make_field(2, 2)
    assert f4.q == 4
    x = from_vector(f4, (0, 1))
    # x*x reduces to x+1 under x^2+x+1
    assert to_vector(f4, f4.mul(x, x)) == (1, 1)


# the modulus of every supported extension field: an element's code means
# its coefficient vector modulo this polynomial, so a changed modulus would
# silently relabel every field table
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
}


def test_every_modulus_is_pinned():
    supported = [(p, n) for p in (2, 3, 5, 7, 11, 13)
                 for n in range(2, 12) if p ** n <= 13 ** 3]
    assert {(p, n): make_field(p, n).modulus for p, n in supported} == MODULI


def test_construction_errors():
    with pytest.raises(NonPrime):
        make_field(4, 1)
    with pytest.raises(UnsupportedSize):
        make_field(17, 1)
    with pytest.raises(UnsupportedSize):
        make_field(2 ** 61 - 1)     # a large prime, refused without a primality test
    with pytest.raises(UnsupportedSize):
        make_field(13, 4)
    with pytest.raises(UnsupportedSize):
        make_field(2, 10 ** 9)      # refused before 2^n is computed


def test_enumerate_elements_contract():
    # the elements are the codes 0 .. q-1, with 0 the zero and 1 the one,
    # and the arithmetic stays among them
    for spec in (make_field(2), make_field(3), make_field(2, 2), make_field(3, 2)):
        elems = range(spec.q)
        assert all(spec.add(0, a) == a == spec.mul(1, a) for a in elems)
        assert {spec.add(a, b) for a in elems for b in elems} == set(elems)
        assert {spec.mul(a, b) for a in elems for b in elems} == set(elems)


def test_inverse_and_identity():
    for spec in (make_field(5), make_field(2, 2), make_field(2, 3), make_field(3, 2)):
        assert spec.inv(1) == 1
        for a in range(spec.q):
            if a:
                assert spec.mul(a, spec.inv(a)) == 1
        with pytest.raises(DivisionByZero):
            spec.inv(0)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (7, 1), (2, 3), (3, 2), (13, 1), (5, 2)])
def test_field_axioms_exhaustive(p, n):
    # associativity, commutativity, distributivity checked exhaustively (q <= 27)
    spec = make_field(p, n)
    if spec.q > 27:
        pytest.skip("exhaustive check capped at q <= 27")
    els = range(spec.q)
    for a, b in itertools.product(els, els):
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
        assert spec.sub(a, b) == spec.add(a, spec.neg(b))
    for a, b, c in itertools.product(els, els, els):
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 1)])
def test_multiplicative_group_cyclic(p, n):
    spec = make_field(p, n)
    # some element generates all q-1 nonzero elements
    for g in range(spec.q):
        if g == 0:
            continue
        seen = set()
        e = 1
        for _ in range(spec.q - 1):
            seen.add(e)
            e = spec.mul(e, g)
        if len(seen) == spec.q - 1:
            break
    else:
        pytest.fail("no generator found")


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_frobenius_automorphism(p, n):
    spec = make_field(p, n)
    for a in range(spec.q):
        for b in range(spec.q):
            assert frobenius(spec, spec.add(a, b)) == \
                spec.add(frobenius(spec, a), frobenius(spec, b))
            assert frobenius(spec, spec.mul(a, b)) == \
                spec.mul(frobenius(spec, a), frobenius(spec, b))
    # n-fold iterate is the identity; fixed points are exactly the prime subfield
    fixed = []
    for a in range(spec.q):
        e = a
        for _ in range(n):
            e = frobenius(spec, e)
        assert e == a
        if frobenius(spec, a) == a:
            fixed.append(a)
    assert len(fixed) == p


def test_frobenius_on_prime_field_is_identity():
    f5 = make_field(5)
    assert all(frobenius(f5, a) == a for a in range(f5.q))


def test_f4_frobenius_example():
    f4 = make_field(2, 2)
    x = from_vector(f4, (0, 1))
    assert to_vector(f4, frobenius(f4, x)) == (1, 1)  # x^2 = x+1
