import pytest

from radiolab import field
from radiolab import (
    DifferenceSet,
    NotPrimePower,
    ZeroInverse,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_pow,
    is_planar_difference_set,
    make_field,
    primitive_element,
    singer_difference_set,
    singer_label_erq,
)

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_make_field_prime():
    f = make_field(5)
    assert (f.p, f.k, f.q) == (5, 1, 5)
    assert len(f.modulus) == 2  # degree 1


def test_make_field_gf4_modulus():
    # the unique monic irreducible quadratic over GF(2) is x^2+x+1:
    # x^2 and x^2+x have root 0, x^2+1 has root 1
    f = make_field(4)
    assert f.modulus == (1, 1, 1)


@pytest.mark.parametrize("q", [6, 10, 12, 15, 1, 0])
def test_make_field_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePower):
        make_field(q)


def test_gf4_multiplication():
    # x * x = x + 1 after reducing x^2 mod x^2+x+1
    f = make_field(4)
    assert field_mul(f, 2, 2) == 3


def test_gf5_inverse():
    f = make_field(5)
    assert field_mul(f, 2, 3) == 1  # 6 = 1 mod 5
    assert field_inv(f, 2) == 3


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_inverse_of_one(q):
    assert field_inv(make_field(q), 1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        field_inv(make_field(7), 0)


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_axioms_by_enumeration(q):
    f = make_field(q)
    elems = range(q)
    for a in elems:
        assert field_add(f, a, 0) == a
        assert field_mul(f, a, 1) == a
        assert field_add(f, a, field_neg(f, a)) == 0
        if a:
            assert field_mul(f, a, field_inv(f, a)) == 1
        for b in elems:
            assert field_add(f, a, b) == field_add(f, b, a)
            assert field_mul(f, a, b) == field_mul(f, b, a)
            for c in elems:
                assert field_mul(f, a, field_add(f, b, c)) == field_add(
                    f, field_mul(f, a, b), field_mul(f, a, c)
                )
                assert field_mul(f, field_mul(f, a, b), c) == field_mul(
                    f, a, field_mul(f, b, c)
                )


def test_primitive_element_values():
    assert primitive_element(make_field(2)) == 1
    # powers of 2 mod 5: 2, 4, 3, 1 -> full unit group
    assert primitive_element(make_field(5)) == 2
    # 2 has order 3 mod 7; 3 runs through 3,2,6,4,5,1
    assert primitive_element(make_field(7)) == 3


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_primitive_element_order_and_minimality(q):
    f = make_field(q)
    xi = primitive_element(f)

    def order(a):
        x, k = a, 1
        while x != 1:
            x = field_mul(f, x, a)
            k += 1
        return k

    assert order(xi) == q - 1
    assert all(order(a) < q - 1 for a in range(1, xi))


def test_planar_difference_set_predicate():
    assert is_planar_difference_set({1, 2, 4}, 7)
    assert is_planar_difference_set({0, 1, 3, 9}, 13)
    assert not is_planar_difference_set({1, 2, 3}, 7)  # difference 1 repeats
    assert not is_planar_difference_set({1, 2}, 7)  # wrong size for n


def test_singer_q2_is_translate_of_classic_set():
    ds = singer_difference_set(2)
    assert ds.modulus == 7
    assert ds.elements == (0, 1, 3)  # = {1,2,4} + 6 mod 7
    assert any(
        {(d + t) % 7 for d in ds.elements} == {1, 2, 4} for t in range(7)
    )


def test_singer_q3():
    ds = singer_difference_set(3)
    assert ds.modulus == 13
    assert ds.elements == (0, 1, 3, 9)


def test_singer_propagates_not_prime_power():
    with pytest.raises(NotPrimePower):
        singer_difference_set(6)
    with pytest.raises(NotPrimePower):
        singer_label_erq(6)


@pytest.mark.parametrize("q", [2, 3, 7, 9, 16])
def test_singer_path_builds_no_cubic_field(q, monkeypatch):
    built = []
    tables = field._tables

    def spy(p, k, modulus):
        built.append(p**k)
        return tables(p, k, modulus)

    monkeypatch.setattr(field, "_tables", spy)
    singer_difference_set(q)
    singer_label_erq(q)
    assert built and set(built) == {q}


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_singer_primitive_element_is_that_of_the_cubic_field(q, monkeypatch):
    # the element the Singer walk multiplies by, against the exp table of
    # make_field(q**3) and against an order walk of every smaller candidate
    found = {}
    primitive = field._primitive

    def spy(p, k, m):
        found[p**k] = out = primitive(p, k, m)
        return out

    monkeypatch.setattr(field, "_primitive", spy)
    singer_difference_set(q)
    cube = make_field(q**3)
    xi = field._encode(found[q**3], cube.p)
    assert xi == cube.exp[1]
    m = list(cube.modulus)

    def order(a):
        x, k = a, 1
        while x != [1]:
            x = field._poly_mod(field._poly_mul(x, a, cube.p), m, cube.p)
            k += 1
        return k

    digits = [field._poly_trim(field._digits(c, cube.p, cube.k)) for c in range(1, xi + 1)]
    assert order(digits[-1]) == q**3 - 1
    assert all(order(a) < q**3 - 1 for a in digits[:-1])


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_singer_sets_valid_up_to_16(q):
    ds = singer_difference_set(q)
    assert isinstance(ds, DifferenceSet)
    assert ds.modulus == q * q + q + 1
    assert len(ds.elements) == q + 1
    assert is_planar_difference_set(ds.elements, ds.modulus)


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_singer_set_is_lexicographically_minimal_translate(q):
    ds = singer_difference_set(q)
    n = ds.modulus
    base = sorted(ds.elements)
    for t in range(1, n):
        assert base <= sorted((d + t) % n for d in ds.elements)


def test_field_pow_negative_exponent():
    f = make_field(7)
    assert field_pow(f, 3, -1) == field_inv(f, 3)


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64, 81])
def test_extension_field_tables_match_polynomial_arithmetic(q):
    # orders beyond the axioms test: digit-wise addition with k > 1, odd p included
    from radiolab.field import _digits, _encode, _poly_mod, _poly_mul

    f = make_field(q)
    p, k, m = f.p, f.k, list(f.modulus)
    digits = [_digits(a, p, k) for a in range(q)]
    for a in range(q):
        for b in range(q):
            da, db = digits[a], digits[b]
            assert field_mul(f, a, b) == _encode(_poly_mod(_poly_mul(da, db, p), m, p), p)
            assert field_add(f, a, b) == _encode([(x + y) % p for x, y in zip(da, db)], p)
