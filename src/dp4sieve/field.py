"""Exact arithmetic in small finite fields F_q: make_field takes a prime
p <= 13 and any q = p^n <= 13^3.

Elements are canonical small integers: the element with coefficient vector
(c_0, ..., c_{n-1}) over Z/p (c_0 the constant term) is encoded as the
integer sum c_i * p^i, which doubles as a table index; to_digits and
from_digits convert between the two.  FieldSpec instances are immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DivisionByZero, NonPrime, UnsupportedSize

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
_MAX_Q = 13 ** 3


def to_digits(code: int, base: int, length: int) -> tuple:
    """The first `length` little-endian base-`base` digits of code."""
    out = []
    for _ in range(length):
        code, digit = divmod(code, base)
        out.append(digit)
    return tuple(out)


def from_digits(digits, base: int) -> int:
    """The integer whose little-endian base-`base` digits are `digits`."""
    code = 0
    for digit in reversed(digits):
        code = code * base + digit
    return code


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A validated finite field F_q with table-backed arithmetic.

    Attributes:
        p: characteristic.
        n: extension degree over the prime field.
        modulus: monic degree-n irreducible over Z/p as a little-endian
            coefficient tuple of length n+1; () when n == 1.
        q: cardinality p^n.

    Construction is memoized, so specs with equal parameters are the same
    object; identity comparison and hashing are therefore exact and cheap.
    """

    p: int
    n: int
    modulus: tuple
    q: int
    _exp: tuple = field(repr=False, default=())    # exp[i] = g^i, length q-1
    _log: tuple = field(repr=False, default=())    # log[e] for e != 0

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.n):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.n):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __str__(self):
        return f"F_{self.q}" if self.n == 1 else f"F_{self.q} = F_{self.p}[x]/{self.modulus}"


# ---------------------------------------------------------------------------
# dense polynomials over a field K (little-endian tuples of field elements)

def poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_mul(K: FieldSpec, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = K.add(out[i + j], K.mul(x, y))
    return poly_trim(out)


def poly_divmod(K: FieldSpec, num, den):
    num = list(poly_trim(num))
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    inv_lead = K.inv(den[-1])
    quot = [0] * max(0, len(num) - dn)
    while len(num) - 1 >= dn and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        coef = K.mul(num[-1], inv_lead)
        shift = len(num) - 1 - dn
        quot[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] = K.sub(num[shift + i], K.mul(coef, d))
        num.pop()
    return tuple(quot), poly_trim(num)


# ---------------------------------------------------------------------------
# construction: F_{p^n} = F_p[x]/(modulus), arithmetic over the prime field

@lru_cache(maxsize=None)
def monic_irreducibles(K: FieldSpec, n: int) -> tuple:
    """Every monic irreducible polynomial of degree n over K, as a
    little-endian coefficient tuple, ascending by the code
    sum c_i q^i of its non-leading coefficients.

    A monic polynomial of degree n is reducible exactly when it has a monic
    irreducible factor f of degree d <= n/2; every product f g, g monic of
    degree n - d, is marked, and the unmarked codes remain.
    """
    q = K.q
    reducible = bytearray(q ** n)
    for d in range(1, n // 2 + 1):
        for f in monic_irreducibles(K, d):
            for code in range(q ** (n - d)):
                product = poly_mul(K, f, to_digits(code, q, n - d) + (1,))
                reducible[from_digits(product[:-1], q)] = 1
    return tuple(to_digits(code, q, n) + (1,) for code in range(q ** n) if not reducible[code])


@lru_cache(maxsize=None)
def count_closed_points(q: int, n: int) -> int:
    """Number of closed points of degree n of P^1 over F_q.

    Degree 1 counts q + 1 (the affine line plus infinity).  For n >= 2 it
    is the number I_n of monic irreducibles of degree n, from the
    factorisation of the q^n monic polynomials of degree n:
    q^n = sum_{d | n} d I_d, with I_1 = q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return q + 1
    rest = q ** n - q - sum(d * count_closed_points(q, d) for d in range(2, n) if n % d == 0)
    assert rest % n == 0
    return rest // n


def _raw_mul(a: int, b: int, p: int, n: int, modulus) -> int:
    if n == 1:
        return (a * b) % p
    P = _make_field_cached(p, 1)
    prod = poly_mul(P, to_digits(a, p, n), to_digits(b, p, n))
    return from_digits(poly_divmod(P, prod, modulus)[1], p)


def _build_log_tables(p: int, n: int, modulus, q: int):
    # find a multiplicative generator by brute force, then tabulate powers
    for g in range(1, q):
        seen = [False] * q
        e, count = 1, 0
        exp = []
        while not seen[e]:
            seen[e] = True
            exp.append(e)
            e = _raw_mul(e, g, p, n, modulus)
            count += 1
        if count == q - 1:
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            return tuple(exp), tuple(log)
    raise UnsupportedSize(f"no multiplicative generator found for q={q}")  # pragma: no cover


@lru_cache(maxsize=None)
def _make_field_cached(p: int, n: int) -> FieldSpec:
    modulus = monic_irreducibles(_make_field_cached(p, 1), n)[0] if n > 1 else ()
    q = p ** n
    exp, log = _build_log_tables(p, n, modulus, q)
    return FieldSpec(p=p, n=n, modulus=modulus, q=q, _exp=exp, _log=log)


def make_field(p: int, n: int = 1) -> FieldSpec:
    """Construct a validated FieldSpec for F_{p^n}.

    For n > 1 the modulus is the lexicographically least monic irreducible
    of degree n over Z/p, the first of monic_irreducibles: least by the
    code sum c_i p^i of its non-leading coefficients, so the choice is
    reproducible across runs and machines.
    """
    if p not in _SUPPORTED_PRIMES:
        # every prime up to 13 is supported, so a smaller p is not prime
        if p < _SUPPORTED_PRIMES[-1]:
            raise NonPrime(f"{p} is not prime")
        raise UnsupportedSize(f"characteristic {p} outside supported range 2..13")
    if not 1 <= n < _MAX_Q.bit_length() or p ** n > _MAX_Q:
        raise UnsupportedSize(f"q = {p}^{n} outside supported range")
    return _make_field_cached(p, n)


def field_of_order(q: int) -> FieldSpec:
    """F_q with its default modulus, for a supported prime power q."""
    for p in _SUPPORTED_PRIMES:
        n = 1
        while p ** n < q:
            n += 1
        if p ** n == q:
            return make_field(p, n)
    raise UnsupportedSize(f"{q} is not a supported prime power")
