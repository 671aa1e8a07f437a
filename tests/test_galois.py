import itertools
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from field_pins import FIELD_SPECS, build_uncached, pin_of, spec_id
from oracles import coeff_ops, schoolbook_mul, smallest_generator, smallest_irreducible

from egrtools import galois
from egrtools.galois import GF, MAX_FIELD_ORDER, MAX_TABLE_ORDER, Field, is_prime, prime_power

FIELD_PINS = json.loads((Path(__file__).with_name("data") / "field_pins.json").read_text())["fields"]


def test_gf4_has_the_unique_irreducible_quadratic():
    F = GF(2, 2)
    assert F.modulus == [1, 1, 1]  # x^2 + x + 1
    assert F.q == 4


def test_prime_field_is_mod_p():
    F = GF(5)
    assert F.q == 5
    assert F.modulus == [0, 1]
    assert all(F.add(a, b) == (a + b) % 5 for a in range(5) for b in range(5))
    assert all(F.mul(a, b) == (a * b) % 5 for a in range(5) for b in range(5))


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError, match="not prime"):
        GF(4)
    with pytest.raises(ValueError, match="not prime"):
        GF(6, 2)


def test_size_caps():
    with pytest.raises(ValueError):
        GF(2, 21)
    assert GF(2, 20).q == 2**20 <= MAX_FIELD_ORDER
    with pytest.raises(ValueError):
        GF(2, 13).extension(2)  # 2^26 > cap
    # extensions share the one cap
    assert GF(2, 10).extension(2).q == MAX_FIELD_ORDER
    with pytest.raises(ValueError, match="exceeds the cap"):
        GF(2, 10).extension(3)


def test_size_caps_are_checked_before_any_costly_step(monkeypatch):
    # past the cap, GF refuses before its trial-division primality test and
    # both refuse before forming the order, however large p or the degree
    def unreached(*args):
        raise AssertionError(f"a primality test or a table build ran past the cap, on {args[0]}")

    # 1021**8 wraps to a negative int64: a numpy degree is read as a Python int
    extensions = [(GF(2), 2 * 10**8), (GF(2), 21), (GF(1021), 3), (GF(29), 5), (GF(1021), np.int64(8))]
    monkeypatch.setattr(galois, "is_prime", unreached)
    monkeypatch.setattr(galois, "Field", unreached)
    for p, e in [(2**61 - 1, 1), (10**12 + 39, 2), (2, 21), (3, 2 * 10**8), (2**20 + 7, 1)]:
        with pytest.raises(ValueError, match="exceeds the cap"):
            galois.GF.__wrapped__(p, e)
    for F, d in extensions:
        with pytest.raises(ValueError, match="exceeds the cap"):
            F.extension(d)


def test_characteristic_arithmetic():
    assert GF(3).add(1, 2) == 0
    assert GF(5).inv(2) == 3


def test_gf4_mul_x_x():
    # x * x = x + 1 mod (x^2 + x + 1): index 2 squared is index 3
    F = GF(2, 2)
    assert F.mul(2, 2) == 3


def test_inversion_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(2, 2).div(1, 0)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (13, 1), (2, 3), (2, 4)])
def test_field_axioms_exhaustive_small(p, e):
    F = GF(p, e)
    if F.q > 16:
        pytest.skip("exhaustive only for q <= 16")
    elems = range(F.q)
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize(
    "make", [lambda: GF(3, 4), lambda: GF(2, 2).extension(4), lambda: GF(5).extension(4), lambda: GF(3, 2).extension(2)]
)
def test_field_axioms_randomized_large(make):
    F = make()
    rng = random.Random(20240517)
    for _ in range(1000):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1


def test_multiplicative_group_cyclic():
    for F in (GF(2, 2), GF(3, 2), GF(2).extension(4), GF(3).extension(4)):
        assert F.mul_order(F.generator) == F.q - 1


def test_frobenius_is_an_automorphism():
    F = GF(3, 3)
    for a in range(F.q):
        for b in range(0, F.q, 5):
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    # fixes exactly the prime subfield
    fixed = [a for a in range(F.q) if F.frobenius(a) == a]
    assert fixed == list(range(3))


def test_extension_embeds_base_field():
    F = GF(2, 2)
    E = F.extension(4)
    assert E.q == 256
    assert E.base is F
    for a in range(4):
        for b in range(4):
            assert E.add(a, b) == F.add(a, b)
            assert E.mul(a, b) == F.mul(a, b)


def test_extension_of_gf2_contains_prime_field():
    E = GF(2).extension(4)
    assert E.q == 16
    assert {0, 1} == {E.mul(1, 1), E.mul(0, 1)}
    assert E.add(1, 1) == 0


def test_extension_preserves_characteristic():
    E = GF(3).extension(4)
    assert E.q == 81
    one_plus_one_plus_one = E.add(1, E.add(1, 1))
    assert one_plus_one_plus_one == 0


def test_extension_generator_order_256():
    E = GF(2, 2).extension(4)
    seen = set()
    x = 1
    for _ in range(255):
        seen.add(x)
        x = E.mul(x, E.generator)
    assert x == 1 and len(seen) == 255


def test_extension_coords_roundtrip():
    F = GF(3)
    E = F.extension(4)
    for a in range(0, E.q, 7):
        v = E.coords(a)
        assert len(v) == 4 and all(0 <= c < 3 for c in v)
        assert E.from_coords(v) == a


def test_extension_rejects_degree_one():
    with pytest.raises(ValueError):
        GF(3).extension(1)


def test_determinism_across_instances():
    a = Field(2, [1, 1, 1])
    b = Field(2, [1, 1, 1])
    assert a.generator == b.generator
    assert a._exp.tolist() == b._exp.tolist()
    assert GF(3, 4).modulus == GF(3, 4).modulus


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not any(map(is_prime, (-3, 0, 1, 1048575)))  # 1048575 = 3 * 5**2 * 11 * 31 * 41
    assert is_prime(1048573)


def _digit_add(F, a, b, sign=1):
    """a + sign*b by base-p digits, independent of every table."""
    out, w = 0, 1
    for _ in range(F.e):
        out += ((a % F.p + sign * (b % F.p)) % F.p) * w
        a, b, w = a // F.p, b // F.p, w * F.p
    return out


def _check_against_schoolbook(F, pairs):
    for a, b in pairs:
        assert F.mul(a, b) == schoolbook_mul(F, a, b), (F, a, b)
        assert F.add(a, b) == _digit_add(F, a, b), (F, a, b)
        assert F.sub(a, b) == _digit_add(F, a, b, -1), (F, a, b)
    for a in {a for a, _ in pairs}:
        assert F.neg(a) == _digit_add(F, 0, a, -1)
        if a:
            assert schoolbook_mul(F, a, F.inv(a)) == 1


SMALL_ORDERS = [q for q in range(2, 65) if len({d for d in range(2, q + 1) if q % d == 0 and is_prime(d)}) == 1]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_tables_match_schoolbook_exhaustively(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    F = GF(p, round(math.log(q, p)))
    assert F.q == q
    elems = range(q)
    _check_against_schoolbook(F, list(itertools.product(elems, repeat=2)))
    tab = F.tables
    assert [[int(tab.mul[a, b]) for b in elems] for a in elems] == [
        [schoolbook_mul(F, a, b) for b in elems] for a in elems
    ]
    assert [[int(tab.add[a, b]) for b in elems] for a in elems] == [[_digit_add(F, a, b) for b in elems] for a in elems]
    assert [int(x) for x in tab.neg] == [_digit_add(F, 0, a, -1) for a in elems]
    assert [int(x) for x in tab.inv[1:]] == [F.inv(a) for a in elems[1:]]


@pytest.mark.parametrize(
    "make",
    [
        lambda: GF(2).extension(4),
        lambda: GF(3).extension(4),
        lambda: GF(2, 2).extension(4),
        lambda: GF(5).extension(4),
        lambda: GF(2, 16),
        lambda: GF(3, 10),
        lambda: GF(3, 2).extension(2),
    ],
)
def test_tables_match_schoolbook_on_sample(make):
    F = make()
    rng = random.Random(F.q)
    _check_against_schoolbook(F, [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(10_000)])
    # the exp table walks the powers of the generator
    n = min(50, F.q - 1)
    powers = itertools.accumulate(range(n - 1), lambda x, _: schoolbook_mul(F, x, F.generator), initial=1)
    assert F._exp[:n].tolist() == list(powers)


def test_elements_out_of_range_are_rejected():
    F = GF(7)
    for bad in (F.q, -1):
        for op in (F.mul, F.add, F.sub):
            with pytest.raises(ValueError, match="out of range"):
                op(bad, 1)
            with pytest.raises(ValueError, match="out of range"):
                op(1, bad)
        for op in (F.neg, F.inv, F.coords, F.mul_order, lambda a: F.pow(a, 2)):
            with pytest.raises(ValueError, match="out of range"):
                op(bad)
    with pytest.raises(ValueError):
        F.mul(0, F.q)


def test_elements_are_read_as_integers():
    # numpy's ints are taken and give Python ints; anything else, a float
    # included, is a TypeError, as the exponent of pow is
    F, K = GF(5), GF(3, 2)
    assert F.add(np.int64(3), np.uint8(4)) == 2 and F.mul(np.int32(2), 3) == 1
    assert F.pow(np.int64(2), np.int64(3)) == 3 and F.inv(np.int16(2)) == 3
    assert K.coords(np.int64(7)) == (1, 2) and all(type(c) is int for c in K.coords(np.int64(7)))
    for op in (F.add, F.sub, F.mul, F.div):
        for a, b in ((1.5, 1), (1, 1.5), (1.0, 1)):
            with pytest.raises(TypeError):
                op(a, b)
    for op in (F.neg, F.inv, F.coords, F.mul_order, F.frobenius, lambda a: F.pow(a, 2)):
        with pytest.raises(TypeError):
            op(2.0)
    with pytest.raises(TypeError):
        F.pow(2, 1.5)


def test_bulk_tables_capped():
    assert MAX_TABLE_ORDER == 2**8
    assert GF(2, 8).tables.mul.shape == (256, 256)
    with pytest.raises(ValueError, match="bulk-table cap"):
        GF(257).tables


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(64) == (2, 6)
    assert prime_power(3**12) == (3, 12)
    assert prime_power(1048573) == (1048573, 1)
    assert prime_power(MAX_FIELD_ORDER) == (2, 20)
    for bad in (0, 1, -3, 6, 12, 1000):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(bad)
    with pytest.raises(ValueError, match="field-order cap"):
        prime_power(MAX_FIELD_ORDER + 1)
    with pytest.raises(TypeError):
        prime_power(4.0)


def test_field_pins_cover_the_specs():
    assert [(pin["p"], pin["e"], pin["extension"]) for pin in FIELD_PINS] == [tuple(spec) for spec in FIELD_SPECS]


@pytest.mark.parametrize("spec,pin", zip(FIELD_SPECS, FIELD_PINS), ids=[spec_id(spec) for spec in FIELD_SPECS])
def test_field_is_pinned(spec, pin):
    # modulus, generator and the exp/log tables, byte for byte
    assert pin_of(spec, build_uncached(spec)) == pin


def _oracle_fields():
    """Every GF(p^e) with p^e <= 2**12, then every extension of GF(q),
    q <= 9, of order at most 2**12."""
    orders = [q for q in range(2, 2**12 + 1) if len(galois._prime_factors(q)) == 1]
    yield from (prime_power(q) + (None,) for q in orders)
    for q in (q for q in orders if q <= 9):
        d = 2
        while q**d <= 2**12:
            yield prime_power(q) + (d,)
            d += 1


def test_search_and_generator_match_the_oracles():
    count = 0
    for spec in _oracle_fields():
        F = build_uncached(spec)
        csize = F.base.q if F.base is not None else F.p
        assert F.modulus == smallest_irreducible(csize, F.degree, *coeff_ops(F)), spec
        assert F.generator == smallest_generator(F), spec
        count += 1
    assert count > 580


def _remainder(d: list[int], i: int, ops) -> list[int]:
    """x**i mod the monic d, by schoolbook long division with the scalar
    ops of the coefficient field."""
    _, csub, cmul = ops
    dd, r = len(d) - 1, [0] * i + [1]
    for top in range(i, dd - 1, -1):
        c = r[top]
        for j in range(dd + 1):
            r[top - dd + j] = csub(r[top - dd + j], cmul(c, d[j]))
    return (r + [0] * dd)[:dd]


@pytest.mark.parametrize(
    "p,base",
    [(2, None), (3, None), (5, None), (2, (2, 1)), (3, (3, 1)), (2, (2, 2)), (5, (5, 1))],
    ids=["GF2", "GF3", "GF5", "GF2-base", "GF3-base", "GF4-base", "GF5-base"],
)
def test_divisor_maps_hold_every_remainder(p, base):
    # every row of every divisor's map, not only those of a divisor that decides a search
    F = None if base is None else GF(*base)
    cf, ops = galois._Coefficients(p, F), coeff_ops(SimpleNamespace(p=p, base=F))
    Q, f = cf.size, cf.f
    for n in range(2, 7):
        maps = galois._divisor_maps(cf, n, galois._float_dtype(p, (n + 1) * f))
        assert len(maps) == n // 2
        for dd, W in enumerate(maps, start=1):
            W = W.reshape((n + 1) * f, Q**dd, dd * f)
            for t in range(Q**dd):
                d = [t // Q**j % Q for j in range(dd)] + [1]
                for i in range(n + 1):
                    r = _remainder(d, i, ops)
                    for k in range(f):
                        # digit k of each coefficient stands for p**k, itself an element of index p**k
                        row = [ops[2](p**k, c) // p**m % p for c in r for m in range(f)]
                        assert W[i * f + k, t].tolist() == row, (n, d, i, k)


@pytest.mark.parametrize(
    "p,modulus,base",
    [
        (2, [1, 0, 1], None),
        (2, [1, 0, 0, 0, 1], None),
        (5, [1, 0, 1], None),
        (2, [1, 0, 1], (2, 2)),
        (3, [1, 2, 1], (3, 1)),
    ],
)
def test_reducible_modulus_is_rejected(p, modulus, base):
    # x^2+1 = (x+1)^2 and x^4+1 = (x+1)^4 over GF(2), x^2+1 = (x-2)(x-3) over
    # GF(5), x^2+1 = (x+1)^2 over GF(4) and x^2+2x+1 = (x+1)^2 over GF(3)
    with pytest.raises(ArithmeticError):
        Field(p, modulus, base=None if base is None else GF(*base))


def test_float_exactness_rule_edges():
    # e(p-1)^2 + p <= 2**24 picks float32; both sides of the edge are pinned
    assert 4092**2 + 4093 <= 2**24 < 4098**2 + 4099
    assert galois._float_dtype(4093, 1) is np.float32
    assert galois._float_dtype(4099, 1) is np.float64
    assert galois._float_dtype(65521, 1) is np.float64
    assert galois._float_dtype(2, 20) is np.float32
    assert {(4093, 1, None), (4099, 1, None), (65521, 1, None)} <= set(FIELD_SPECS)


def test_float32_reduction_is_exact_up_to_the_edge():
    # every dot product GF(4093)'s doubling can form, reduced as it reduces them
    p, top = 4093, 4092**2
    for lo in range(0, top + 1, 2**20):
        x = np.arange(lo, min(lo + 2**20, top + 1))
        y = galois._mul_mod(x.astype(np.float32)[:, None], np.ones((1, 1), np.float32), p)
        assert y.dtype == np.float32
        assert (y[:, 0].astype(np.int64) == x % p).all()


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2)], ids=["bits", "digits"])
def test_each_table_check_raises_on_each_path(monkeypatch, p, e):
    F = GF(p, e)
    B = galois._basis_matrices(galois._Coefficients(p, None), F.modulus)
    # g**3 in GF(16) and g**2 in GF(9), of order 5 and 4: g**(q-1) = 1, but exp repeats
    h = F.pow(F.generator, 3 if p == 2 else 2)
    M = galois._mul_mod(galois._digits(np.array(h), p, e).astype(B.dtype), B.reshape(e, e * e), p).reshape(e, e)
    monkeypatch.setattr(galois, "_first_generator", lambda *args: (h, M))
    with pytest.raises(ArithmeticError, match="not a bijection"):
        Field(p, F.modulus)
    # a cycle of the 4 bits (order 4) and a shear over GF(3) (order 3), not dividing 15 and 8
    step = np.roll(np.eye(4), 1, axis=1) if p == 2 else np.array([[1.0, 1.0], [0.0, 1.0]])
    monkeypatch.setattr(galois, "_first_generator", lambda *args: (h, step.astype(B.dtype)))
    with pytest.raises(ArithmeticError, match=r"g\*\*\(q-1\) != 1"):
        Field(p, F.modulus)
