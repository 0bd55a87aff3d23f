"""Finite field arithmetic over GF(p^k) and Singer planar difference sets.

Elements of GF(p^k) are encoded as integers in ``0..q-1`` whose base-p
digits are the coefficients of a polynomial over GF(p), constant term
least significant.  The field is defined by its reducing polynomial,
chosen as the lexicographically smallest monic irreducible of the right
degree so that every run of the program builds the identical field.
Polynomial arithmetic runs only while a field is built, where it fixes
the primitive element and fills exp and log tables of O(q) entries, and
in the Singer walk, which reads q^2+q+1 powers of a primitive element of
GF(q^3) without building that field's tables.  Products, powers and
inverses are table lookups; sums add the base-p digits of the encodings
mod p, one rule for single elements and numpy arrays alike.

Only what the graph-family constructors need lives here; this is not a
general-purpose finite field library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPrimePower, ZeroInverse

__all__ = [
    "FieldSpec",
    "DifferenceSet",
    "make_field",
    "field_add",
    "field_neg",
    "field_sub",
    "field_mul",
    "field_pow",
    "field_inv",
    "primitive_element",
    "singer_difference_set",
    "is_planar_difference_set",
]


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(q) with q = p^k.

    ``modulus`` is the reducing polynomial as a coefficient tuple, constant
    term first, length k+1, leading coefficient 1.  The tables derived from
    it follow xi, the smallest generator of the unit group in encoding
    order: ``exp[i] = xi^i`` for 0 <= i < 2(q-1) (the unit group twice over,
    so a sum of two logs needs no reduction) and ``log`` its inverse with
    ``log[0] = -1``.
    """

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]
    exp: tuple[int, ...] = field(init=False, repr=False, compare=False)
    log: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exp, log = _tables(self.p, self.k, self.modulus)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "log", log)


@dataclass(frozen=True)
class DifferenceSet:
    """q+1 residues mod q^2+q+1 whose pairwise differences hit 1..q^2+q once each."""

    modulus: int
    elements: tuple[int, ...]

    def member_set(self) -> frozenset[int]:
        return frozenset(self.elements)


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, constant term first


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _encode(coeffs: list[int], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m is monic; schoolbook remainder
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
        if not a:
            break
    return a


def _poly_pow(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m, by square and multiply."""
    out = [1]
    while True:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        e >>= 1
        if not e:
            return out
        a = _poly_mod(_poly_mul(a, a, p), m, p)


def _is_irreducible(m: list[int], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= k/2."""
    k = len(m) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for low in range(p**d):
            divisor = _digits(low, p, d) + [1]
            if not _poly_mod(m, divisor, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    for low in range(p**k):
        m = _digits(low, p, k) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # impossible


# ---------------------------------------------------------------------------
# field construction and arithmetic


def _factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def make_field(q: int) -> FieldSpec:
    """Build GF(q), or raise NotPrimePower when q is not a prime power."""
    if q < 2:
        raise NotPrimePower(f"field order must be >= 2, got {q}")
    primes = _factorize(q)
    if len(primes) != 1:
        raise NotPrimePower(f"{q} has distinct prime factors {primes}")
    p = primes[0]
    k = 0
    m = q
    while m > 1:
        m //= p
        k += 1
    return FieldSpec(p=p, k=k, q=q, modulus=_smallest_irreducible(p, k))


def _primitive(p: int, k: int, m: list[int]) -> list[int]:
    """xi, the smallest generator of the unit group of GF(p^k) mod ``m``
    in encoding order, as a coefficient list.

    A unit a generates the group of order q-1 iff a^((q-1)/r) != 1 for
    every prime r dividing q-1, so each candidate costs a few powers
    rather than a walk through its cyclic subgroup.
    """
    q = p**k
    cofactors = [(q - 1) // r for r in _factorize(q - 1)]
    for cand in range(1, q):
        a = _poly_trim(_digits(cand, p, k))
        if all(_poly_pow(a, e, m, p) != [1] for e in cofactors):
            return a
    raise AssertionError("no primitive element found")  # impossible


def _tables(p: int, k: int, modulus: tuple[int, ...]):
    """exp (twice over) and log tables of GF(p^k) mod ``modulus``: the
    powers of :func:`_primitive`'s xi."""
    q, m = p**k, list(modulus)
    xi = _primitive(p, k, m)
    powers, x = [], [1]
    for _ in range(q - 1):
        powers.append(_encode(x, p))
        x = _poly_mod(_poly_mul(x, xi, p), m, p)
    log = [-1] * q
    for i, v in enumerate(powers):
        log[v] = i
    return tuple(powers * 2), tuple(log)


def _check_range(f: FieldSpec, *elems: int) -> None:
    for a in elems:
        if not 0 <= a < f.q:
            raise ValueError(f"element {a} outside 0..{f.q - 1}")


def _add(f: FieldSpec, a, b):
    """The encoding of a + b, digit by digit mod p; a and b may be ints or
    numpy integer arrays (elementwise, broadcast)."""
    total, place = 0, 1
    for _ in range(f.k):
        total += (a // place + b // place) % f.p * place
        place *= f.p
    return total


def field_add(f: FieldSpec, a: int, b: int) -> int:
    _check_range(f, a, b)
    return _add(f, a, b)


def field_neg(f: FieldSpec, a: int) -> int:
    _check_range(f, a)
    return f.exp[f.log[a] + f.log[f.p - 1]] if a else 0  # -1 encodes as p-1


def field_sub(f: FieldSpec, a: int, b: int) -> int:
    return field_add(f, a, field_neg(f, b))


def field_mul(f: FieldSpec, a: int, b: int) -> int:
    _check_range(f, a, b)
    return f.exp[f.log[a] + f.log[b]] if a and b else 0


def field_pow(f: FieldSpec, a: int, e: int) -> int:
    _check_range(f, a)
    if a:
        return f.exp[f.log[a] * e % (f.q - 1)]
    if e < 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return 0 if e else 1


def field_inv(f: FieldSpec, a: int) -> int:
    """Multiplicative inverse, xi^(-log a)."""
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    _check_range(f, a)
    return f.exp[-f.log[a] % (f.q - 1)]


def primitive_element(f: FieldSpec) -> int:
    """Smallest element (in encoding order) generating the unit group."""
    return f.exp[1]


# ---------------------------------------------------------------------------
# Singer difference sets


def is_planar_difference_set(elements, n: int) -> bool:
    """True iff the pairwise differences cover 1..n-1 exactly once."""
    elems = list(elements)
    if len(set(elems)) != len(elems):
        return False
    if len(elems) * (len(elems) - 1) != n - 1:
        return False
    seen = set()
    for a in elems:
        for b in elems:
            if a == b:
                continue
            d = (a - b) % n
            if d == 0 or d in seen:
                return False
            seen.add(d)
    return len(seen) == n - 1


def singer_difference_set(q: int) -> DifferenceSet:
    """Planar difference set mod q^2+q+1 from a Singer cycle of GF(q^3).

    Point i of the cyclic projective plane is the scalar class of xi^i,
    where xi is the primitive element that ``make_field(q**3)`` would
    choose (the same modulus, the smallest generator in encoding order);
    the set collects the indices i < q^2+q+1 lying on the trace-zero line.
    No table of GF(q^3) is built: the walk multiplies polynomials mod the
    modulus, and the trace y + y^q + y^(q^2), being GF(p)-linear, is read
    from its values on the 3k basis powers x^j.  The result is
    canonicalized to the lexicographically smallest translate so
    downstream constructions are reproducible.
    """
    f = make_field(q)  # surfaces NotPrimePower for bad q
    p, k = f.p, 3 * f.k
    m = list(_smallest_irreducible(p, k))
    xi = _primitive(p, k, m)
    n = q * q + q + 1
    trace = []
    for j in range(k):
        basis = [0] * j + [1]
        terms = [basis, _poly_pow(basis, q, m, p), _poly_pow(basis, q * q, m, p)]
        trace.append([sum(t[c] for t in terms if c < len(t)) % p for c in range(k)])
    walk, y = [], [1]
    for _ in range(n):
        walk.append(y + [0] * (k - len(y)))
        y = _poly_mod(_poly_mul(y, xi, p), m, p)
    raw = np.flatnonzero(~(np.array(walk) @ np.array(trace) % p).any(axis=1)).tolist()
    if len(raw) != q + 1:
        raise AssertionError(f"trace-zero line has {len(raw)} points, wanted {q + 1}")
    canonical = min(tuple(sorted((d + t) % n for d in raw)) for t in range(n))
    if not is_planar_difference_set(canonical, n):
        raise AssertionError("Singer construction produced an invalid difference set")
    return DifferenceSet(modulus=n, elements=canonical)
