"""Finite field GF(p^e) arithmetic from lookup tables.

Elements are plain integers in ``[0, q)``: the coefficient vector of a
polynomial over the coefficient field in base ``p`` (base ``|F|`` when the
field is built as an extension of another field ``F``), least-significant
digit = constant term.  An element of the coefficient field is itself a
string of base-``p`` digits, so every index is a string of ``e`` base-``p``
digits, and addition is digit-wise addition mod ``p``.

Tables.  Each field keeps ``exp[i] = g**i`` for its smallest
multiplicative generator ``g`` and the inverse ``log``, each a read-only
int32 numpy array: GF(2, 20) keeps 8 MiB of them.  A scalar product is a
range check plus a few lookups through memoryviews of those buffers, which
yield Python ints: ``a*b = exp[log a + log b]``; a scalar sum, difference
or negation adds the base-p digits mod p.  Bulk code indexes the arrays
themselves, and fields of order at most ``MAX_TABLE_ORDER`` expose numpy
add/neg/mul/inv tables (``Field.tables``) for vectorised geometry.

Building.  Multiplication by g is a GF(p)-linear map on the digit vectors:
the e x e matrix M_g over GF(p), row j the digits of g * p**j, a sum of the
basis matrices M_{p**j} weighted by g's digits.  So the tables come from
matrix arithmetic, with no scalar field operation on the hot path: batches
of candidate matrices are powered to find g (``_first_generator``;
constants lie in a proper subfield and are skipped when the degree is at
least 2), and exp is filled by doubling, ``exp[h:2h] = exp[:h] * g**h``,
by one of two rules chosen by p:

- p = 2 (``_double_bits``): an index's bits are its digits, so the product
  by g**h is the XOR of the rows of M_g**h, as indices, over the index's
  set bits, taken a byte at a time from tables of at most 256 entries
  (``_byte_tables``); the rows of M_g**(2h) come through the same
  tables.  No digit store and no float product.
- odd p (``_double_powers``): the digit rows times M_g**h mod p, in one
  float product, each row's index its product with the place values.

Every GF(p) matrix product, there and in the search, is a float (BLAS)
product of integers below p reduced mod p by ``_mul_mod``, exact by one rule
on its inner dimension k (``_float_dtype``): float32 while k(p-1)**2 + p
<= 2**24, else float64.  Every build checks that g**(q-1) = 1, and that
exp is a bijection onto the nonzero elements by the scatter that fills
log: log starts at -1 and takes log[exp[i]] = i, and q-1 entries that
reach every nonzero element and leave log[0] at -1 are a bijection, by
pigeonhole.

Modulus search.  The reducing modulus is the lexicographically smallest
monic irreducible polynomial, coefficients compared constant-term first,
so every field -- and everything built on top of it -- is reproducible
byte-for-byte across runs.  Batches of candidates are divided by every
monic polynomial of one degree at once (``_smallest_irreducible``), on
arrays of coefficients (``_Coefficients``), so GF(p, e) and
``Field.extension`` share the one search.  One build gives the remainder
maps of every divisor of every degree (``_divisor_maps``): the matrices of
multiplication by x modulo all the divisors at once take x**0 to every
x**i mod d by doubling.

Size caps: q <= MAX_FIELD_ORDER = 2**20 for ``GF`` and for
``Field.extension`` alike, checked before any primality test or table,
and q <= 2**8 for ``Field.tables``.  The largest field a family builds is
the pencil's GF(29**4), 707 281 elements.  At the cap every doubling
block and every search product is one array operation: GF(2, 20),
GF(2, 10).extension(2), GF(1021).extension(2), GF(29).extension(4) and
GF(1048573) each build in 0.04-0.06 s and peak at 43-57 MiB (2 CPUs, one
BLAS thread, one process each).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import index
from typing import NamedTuple

import numpy as np

MAX_FIELD_ORDER = 2**20
MAX_TABLE_ORDER = 2**8
# generator candidates tested per batch of matrix powers
GENERATOR_BATCH = 8
# modulus candidates per batch
SEARCH_BATCH = 64
_FLOAT32_EXACT_MAX = 2**24


def is_prime(n: int) -> bool:
    """Trial-division primality test: n is its own one prime factor."""
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p prime and p**e == q, for a field order 2 <= q <=
    MAX_FIELD_ORDER.  Raises ValueError for any other q, rejecting one
    above the cap before any search; the search is trial division up to
    sqrt(q)."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError("q must be an integer")
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"q = {q} exceeds the field-order cap {MAX_FIELD_ORDER}")
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    p = _prime_factors(q)[0]
    e, r = 0, q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


def _digits(x: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of each entry of ``x``, least significant
    first, as an array of shape x.shape + (width,)."""
    return (x[..., None] // base ** np.arange(width)) % base


class FieldTables(NamedTuple):
    """Whole-field operation tables as uint8 numpy arrays, indexed by
    element: ``add[a, b]``, ``neg[a]``, ``mul[a, b]``, ``inv[a]``
    (``inv[0]`` is 0)."""

    add: np.ndarray
    neg: np.ndarray
    mul: np.ndarray
    inv: np.ndarray


class Field:
    """Finite field of order ``q = p**e`` with table-based arithmetic.

    Use :func:`GF` or :meth:`Field.extension` to build instances.

    Attributes
    ----------
    p : characteristic (prime)
    e : degree over the prime field
    q : order, p**e
    modulus : monic irreducible polynomial used for reduction, as a list
        of coefficient-field indices in ascending degree (monic: last
        entry is 1).  For prime fields this is the conventional [0, 1].
    base : the coefficient field when built as an extension, else None.
    degree : degree over the coefficient field (= e for prime-built
        fields, = d for extensions).
    generator : the smallest multiplicative generator (index order).
    """

    def __init__(self, p: int, modulus: list[int], base: "Field | None" = None):
        self.base = base
        self.p = p
        self.modulus = list(modulus)
        self.degree = len(modulus) - 1
        csize = base.q if base is not None else p
        self._csize = csize
        self.q = csize**self.degree
        self.e = self.degree * (base.e if base is not None else 1)
        self._order = self.q - 1
        self._build_tables(_Coefficients(p, base))

    # -- digit vector <-> element index --

    def _indices(self, *elems) -> list[int]:
        """The element indices ``elems`` as ints, numpy's too (read with
        ``operator.index``): TypeError for any other type, ValueError for
        one out of range."""
        elems = list(map(index, elems))
        for a in elems:
            if not 0 <= a < self.q:
                raise ValueError(f"element index {a} out of range for field of order {self.q}")
        return elems

    def coords(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of ``a`` over the coefficient field."""
        (a,) = self._indices(a)
        return tuple(a // self._csize**i % self._csize for i in range(self.degree))

    def from_coords(self, v) -> int:
        return sum(c * self._csize**i for i, c in enumerate(v))

    # -- table construction --

    def _build_tables(self, cf: _Coefficients):
        q, p, e, order, csize = self.q, self.p, self.e, self._order, self._csize
        if q == 2:
            gen, step = 1, np.eye(1, dtype=_float_dtype(p, e))
        else:
            # a constant c (index < csize) has c**(csize-1) = 1, so no
            # constant generates unless the field is its coefficient field
            start = 2 if self.degree == 1 else csize
            gen, step = _first_generator(_basis_matrices(cf, self.modulus), order, p, start)
        if gen is None:
            raise ArithmeticError("no multiplicative generator found; modulus is not irreducible")
        exp = np.ones(order, dtype=np.int32)  # q <= MAX_FIELD_ORDER < 2**31
        if p == 2:
            # an index's bits are its digits: exp by XOR byte tables
            cycles = _double_bits(exp, step) == 1
        else:
            # digits[i] = base-p digits of g**i and exp[i] its index, by doubling
            digits = np.zeros((order, e), dtype=np.min_scalar_type(p - 1))
            digits[0, 0] = 1
            _double_powers(digits, exp, step, p)
            cycles = (_mul_mod(digits[-1].astype(step.dtype), step, p) == digits[0]).all()
            del digits
        if not cycles:
            raise ArithmeticError("g**(q-1) != 1: multiplicative group is not cyclic of order q-1")
        # q-1 entries that reach every nonzero element and miss 0 are a
        # bijection onto the nonzero elements (pigeonhole)
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(order, dtype=np.int32)
        if log[0] != -1 or log[1:].min() < 0:
            raise ArithmeticError("exp is not a bijection: multiplicative group is not cyclic of order q-1")
        log[0] = 0
        self.generator = gen
        for table in (exp, log):
            table.setflags(write=False)
        self._exp, self._log, self._exp_at, self._log_at = exp, log, memoryview(exp), memoryview(log)

    @cached_property
    def tables(self) -> FieldTables:
        """Numpy add/neg/mul/inv tables over the whole field, for bulk
        (vectorised) arithmetic; ValueError above MAX_TABLE_ORDER."""
        q, p, e = self.q, self.p, self.e
        if q > MAX_TABLE_ORDER:
            raise ValueError(f"field order {q} exceeds the bulk-table cap {MAX_TABLE_ORDER}")
        weights = p ** np.arange(e)
        d = _digits(np.arange(q), p, e)
        add = ((d[:, None, :] + d[None, :, :]) % p) @ weights
        neg = ((-d) % p) @ weights
        mul = self._exp[(self._log[:, None] + self._log[None, :]) % self._order]
        mul[0, :] = 0
        mul[:, 0] = 0
        inv = self._exp[(-self._log) % self._order]
        inv[0] = 0
        return FieldTables(*(t.astype(np.uint8) for t in (add, neg, mul, inv)))

    # -- public arithmetic --

    def elements(self) -> range:
        return range(self.q)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign*b, adding the base-p digits mod p."""
        a, b = self._indices(a, b)
        p, out, place = self.p, 0, 1
        while a or b:
            out += (a % p + sign * (b % p)) % p * place
            a, b, place = a // p, b // p, place * p
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        return self._digitwise(0, a, -1)

    def mul(self, a: int, b: int) -> int:
        a, b = self._indices(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp_at[(self._log_at[a] + self._log_at[b]) % self._order]

    def inv(self, a: int) -> int:
        (a,) = self._indices(a)
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp_at[(-self._log_at[a]) % self._order]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        (a,) = self._indices(a)
        n = index(n)
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 1 if n == 0 else 0
        return self._exp_at[(self._log_at[a] * n) % self._order]

    def frobenius(self, a: int) -> int:
        """The field automorphism a -> a**p (p = characteristic)."""
        return self.pow(a, self.p)

    def mul_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        (a,) = self._indices(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        return self._order // gcd(self._log_at[a], self._order)

    def extension(self, d: int) -> "Field":
        """Degree-``d`` extension of this field.

        The result is GF(q**d) viewed as a d-dimensional vector space over
        this field: ``coords``/``from_coords`` convert between an element
        and its coefficient vector, and this field embeds as the elements
        with index < q (the constant polynomials), so the embedding is
        literally the identity on indices.
        """
        d = index(d)  # a numpy degree would wrap in the cap check
        if d < 2:
            raise ValueError("extension degree must be at least 2")
        _check_order(self.q, d)
        return _extension_cached(self, d)

    def __repr__(self):
        if self.base is not None:
            return f"Field(GF({self.p}^{self.e}) as degree-{self.degree} extension of GF({self.base.q}))"
        return f"Field(GF({self.p}^{self.e}))" if self.e > 1 else f"Field(GF({self.p}))"


class _Coefficients:
    """Array arithmetic in a coefficient field of order ``size = p**f``:
    ints mod p for a prime field, the base field's exp/log tables for an
    extension.  Elements are indices, and an index's ``f`` base-p digits
    are its coordinates over GF(p)."""

    def __init__(self, p: int, base: "Field | None"):
        self.p = p
        self.f = 1 if base is None else base.e
        self.size = p**self.f
        self.base = base

    def mul(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        if self.f == 1:
            return a * b % self.p
        exp, log = self.base._exp, self.base._log
        return np.where((a == 0) | (b == 0), 0, exp[(log[a] + log[b]) % (self.size - 1)])

    def sub(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        if self.f == 1:
            return (a - b) % self.p
        diff = (self.digits(a) - self.digits(b)) % self.p
        return diff @ self.p ** np.arange(self.f)

    def digits(self, a) -> np.ndarray:
        return _digits(np.asarray(a), self.p, self.f)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, for float arrays of integers below p whose dtype is
    ``_float_dtype(p, inner dimension)`` or wider: y = a @ b, then
    y - p*floor(y/p), each step exact by ``_float_dtype``."""
    y = a @ b
    z = y / p
    np.floor(z, out=z)
    z *= p
    y -= z
    return y


def _remainder_rows(cf: _Coefficients, tails: np.ndarray, runs: list[tuple[int, int]], n: int, dtype) -> np.ndarray:
    """rows[t, (i, k)], the digits of p**k x**i modulo the monic divisor
    x**dd + sum_j tails[t, j] x**j for i <= n, on tails.shape[1]
    coefficients, in floats of ``dtype``; ``runs`` lists (dd, count): the
    tails come in runs of count divisors of degree dd.

    X[t], the GF(p) matrix of multiplication by x modulo divisor t, holds
    in row (i, k) the digits of p**k x**(i+1): a unit row below the top
    coefficient and p**k * -tail on it.  The tail is zero past the
    divisor's degree, so X maps a vector that is zero past the degree to
    one that is too, and the unit rows past the top coefficient are never
    used.  The rows come by doubling, rows[h:2h] = rows[:h] X**h; one array
    holds X**h above the rows, so that one product by X**h gives both
    X**(2h) and rows[h:2h]."""
    p, f = cf.p, cf.f
    m, w = len(tails), tails.shape[1] * f  # divisors, digits
    work = np.zeros((m, w + (n + 1) * f, w), dtype=dtype)
    work[:, :w] = np.eye(w, k=f, dtype=dtype)
    top = cf.digits(cf.mul(p ** np.arange(f)[:, None], cf.sub(0, tails)[:, None, :])).reshape(m, f, w)
    start = 0
    for dd, count in runs:
        work[start : start + count, (dd - 1) * f : dd * f] = top[start : start + count]
        start += count
    work[:, w + np.arange(f), np.arange(f)] = 1
    h = 1
    while h <= n:
        k = min(h, n + 1 - h)
        product = _mul_mod(work[:, : w + k * f], work[:, :w], p)
        work[:, :w] = product[:, :w]
        work[:, w + h * f : w + (h + k) * f] = product[:, w:]
        h *= 2
    return work[:, w:]


def _basis_matrices(cf: _Coefficients, modulus: list[int]) -> np.ndarray:
    """B[j], the e x e matrix over GF(p) of multiplication by the element
    of index p**j, in floats of ``_float_dtype(p, e)``: row l holds the
    digits of p**j * p**l.  With j = (i, k) and l = (i', k'), digit k of
    coefficient i, that product is c x**(i+i') with c = p**k p**k' in the
    coefficient field, so its digits are the sum over c's digits c_m of c_m
    times the digits of p**m x**(i+i') mod the modulus
    (``_remainder_rows``)."""
    p, f, d = cf.p, cf.f, len(modulus) - 1
    e = d * f
    dtype = _float_dtype(p, e)
    rows = _remainder_rows(cf, np.array([modulus[:d]]), [(d, 1)], 2 * d - 2, dtype)[0].reshape(2 * d - 1, f, e)
    unit = p ** np.arange(f)
    c = cf.digits(cf.mul(unit[:, None], unit)).reshape(f * f, f).astype(dtype)  # [(k, k')] = digits of p**k p**k'
    i = np.arange(d)
    B = _mul_mod(c, rows[i[:, None] + i], p)  # [i, i', (k, k')]
    return B.reshape(d, d, f, f, e).transpose(0, 2, 1, 3, 4).reshape(e, e, e)


def _first_generator(B: np.ndarray, order: int, p: int, start: int):
    """(g, M_g) for the smallest index g >= start of multiplicative order
    ``order``, M_g its multiplication matrix; (None, None) if there is none.

    Candidates go GENERATOR_BATCH at a time, M_g being g's digits times
    the basis matrices B.  g generates exactly when M_g**(order/r) != I for
    every prime r | order.  Each candidate's stack holds its power for
    every r and, last, the square M_g**(2**bit); each bit takes one product
    of the stack by that square, kept for the square and for the powers
    whose exponent has the bit.  All are floats of B's ``_float_dtype(p,
    e)``: every factor's entries are below p and the inner dimension is e."""
    e = B.shape[0]
    exponents = [order // r for r in _prime_factors(order)]
    # keep[bit] picks the products kept: the powers whose exponent has the bit, and the square
    bits = range(max(exponents).bit_length())
    keep = [np.array([*(n >> bit & 1 for n in exponents), 1], dtype=bool)[:, None, None] for bit in bits]
    flat = B.reshape(e, e * e)
    eye = np.eye(e, dtype=B.dtype)
    for first in range(start, order + 1, GENERATOR_BATCH):
        g = np.arange(first, min(first + GENERATOR_BATCH, order + 1))
        M = _mul_mod(_digits(g, p, e).astype(B.dtype), flat, p).reshape(len(g), e, e)
        stack = np.empty((len(g), len(exponents) + 1, e, e), dtype=B.dtype)
        stack[:, :-1] = eye
        stack[:, -1] = M
        rows, square = stack.reshape(len(g), -1, e), stack[:, -1]  # views of the stack
        for kept in keep:
            np.copyto(stack, _mul_mod(rows, square, p).reshape(stack.shape), where=kept)
        generates = ~(stack[:, :-1] == eye).all(axis=(2, 3)).any(axis=1)
        if generates.any():
            i = int(generates.argmax())
            return int(g[i]), M[i]
    return None, None


def _float_dtype(p: int, e: int):
    """The one exactness rule for every float GF(p) product here, e its
    inner dimension: float32 when e(p-1)**2 + p <= 2**24, else float64
    (which the size cap keeps within its own 2**53).

    A product entry x is a dot product of e digits and e matrix entries,
    all below p, so x <= e(p-1)**2, formed exactly from nonnegative partial
    sums while x <= 2**24.  Then x - p*floor(x/p) is exact: write x = np + r
    with 0 <= r < p.  If r = 0, x/p = n exactly.  Otherwise x/p lies in
    [n, n+1 - 1/p], and 1/p exceeds half the float spacing below n+1, at
    most (n+1)/2**24, because p(n+1) <= x + p - 1 < 2**24; so x/p rounds
    into [n, n+1), its floor is n, and p*n <= x and x - p*n are exact."""
    return np.float32 if e * (p - 1) ** 2 + p <= _FLOAT32_EXACT_MAX else np.float64


def _double_powers(digits: np.ndarray, exp: np.ndarray, step: np.ndarray, p: int) -> None:
    """Fill the base-p digit rows digits[1:] = g**1, g**2, ... from
    digits[0] = 1 and step = M_g in floats of ``_float_dtype(p, e)`` (as
    ``_first_generator`` gives it), and exp[1:] with their indices: each
    doubling sets digits[h:2h] to digits[:h] M_g**h mod p, then squares the
    step.  Each doubling is one float product (BLAS gemm, exact by
    ``_float_dtype``) back into the narrow integer store; each reduced
    row's index, below q <= 2**20, is one more exact product with the
    place values p**j."""
    order, e = digits.shape
    dtype = _float_dtype(p, e)
    place = (p ** np.arange(e)).astype(dtype)
    h = 1
    while h < order:
        k = min(h, order - h)
        y = _mul_mod(digits[:k].astype(dtype), step, p)
        digits[h : h + k] = y
        exp[h : h + k] = y @ place
        h *= 2
        if h < order:
            step = _mul_mod(step, step, p)


# _BYTE_BITS[j, y] = bit j of the byte y
_BYTE_BITS = ((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(np.int32)


def _byte_tables(rows: np.ndarray) -> np.ndarray:
    """T[b, y], the XOR of rows[8b + j] over the set bits j of the byte y
    (y < 2**len(rows) when there are fewer than 8 rows).  When rows[j] is
    the image of 2**j under a GF(2)-linear map L of the bits,
    ``_apply_bytes`` with T maps any index x to L(x), byte by byte."""
    w = min(8, len(rows))
    nb = -(-len(rows) // w)
    padded = np.zeros(w * nb, dtype=rows.dtype)
    padded[: len(rows)] = rows
    return np.bitwise_xor.reduce(_BYTE_BITS[:w, None, : 1 << w] * padded.reshape(nb, w).T[:, :, None], axis=0)


def _apply_bytes(tables: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tables[0][x & 255] ^ tables[1][(x >> 8) & 255] ^ ..., into ``out``."""
    out = np.take(tables[0], x & 255, out=out)
    for b in range(1, len(tables)):
        out ^= tables[b][(x >> 8 * b) & 255]
    return out


def _double_bits(exp: np.ndarray, step: np.ndarray) -> int:
    """Fill exp[1:] = g**1, g**2, ... from exp[0] = 1 over a field of
    characteristic 2, step = M_g as ``_first_generator`` gives it, and
    return g * exp[-1] = g**(q-1).

    An index's bits are its base-2 digits, so multiplication by g**h is
    the XOR of rows r_j of M_g**h, row j the index of g**h * 2**j, over
    the set bits j of the index: byte tables (``_byte_tables``) take it
    one byte at a time.  Each doubling sets exp[h:2h] to exp[:h] times
    g**h, and the rows of M_g**(2h) are the rows of M_g**h times g**h,
    r'_j = L_h(r_j), through the same tables: no digit store and no float
    product."""
    order = len(exp)
    rows = step.astype(np.int32) @ (1 << np.arange(len(step), dtype=np.int32))
    first = _byte_tables(rows)
    tables, h = first, 1
    while h < order:
        k = min(h, order - h)
        _apply_bytes(tables, exp[:k], out=exp[h : h + k])
        h *= 2
        if h < order:
            rows = _apply_bytes(tables, rows)
            tables = _byte_tables(rows)
    return int(_apply_bytes(first, exp[-1:])[0])


def _divisor_maps(cf: _Coefficients, n: int, dtype) -> list[np.ndarray]:
    """W[dd - 1] for dd = 1, ..., n//2: the GF(p)-linear map from the
    coefficient digits of a polynomial of degree <= n to the digits of its
    remainders modulo every monic divisor of degree dd, column block t for
    the divisor whose low coefficients are the base-Q digits of t.

    A polynomial sum c_i x**i leaves sum c_i (x**i mod d), and c_i is
    sum_k c_ik p**k over its digits, so the map's row (i, k) is the digits
    of p**k x**i mod d.  One build serves every divisor of every degree:
    ``_remainder_rows`` on n//2 coefficients, in floats of ``dtype``."""
    Q, p, f, w = cf.size, cf.p, cf.f, n // 2
    runs = [(dd, Q**dd) for dd in range(1, w + 1)]
    tails = _digits(np.concatenate([np.arange(count) for _, count in runs]), Q, w)
    rows = _remainder_rows(cf, tails, runs, n, dtype)
    maps, start = [], 0
    for dd, count in runs:
        maps.append(rows[start : start + count, :, : dd * f].transpose(1, 0, 2).reshape((n + 1) * f, -1))
        start += count
    return maps


def _smallest_irreducible(cf: _Coefficients, n: int) -> list[int]:
    """Lexicographically smallest monic irreducible polynomial of degree n
    over the coefficient field, low-degree coefficients compared first.

    Candidates with a nonzero constant term (the others are divisible by x)
    go SEARCH_BATCH at a time, in order.  A batch meets the monic divisors
    of degree 1, 2, ..., n//2 one degree at a time, all divisors of that
    degree in one product with that degree's ``_divisor_maps`` map; a
    candidate leaves at the first degree that divides it, and the first one
    left is returned.  A product's inner dimension is (n+1) f, so the maps
    and products are floats of ``_float_dtype(p, (n+1) f)``."""
    if n == 1:
        return [0, 1]  # the polynomial x; never used for reduction
    Q, p, f = cf.size, cf.p, cf.f
    dtype = _float_dtype(p, (n + 1) * f)
    place = Q ** np.arange(n - 1, -1, -1)  # c_0 is the most significant digit
    maps = _divisor_maps(cf, n, dtype)
    for start in range(Q ** (n - 1), Q**n, SEARCH_BATCH):
        t = np.arange(start, min(start + SEARCH_BATCH, Q**n))
        cand = np.ones((len(t), n + 1), dtype=np.int64)
        cand[:, :n] = t[:, None] // place % Q
        digits = cf.digits(cand).reshape(len(t), -1).astype(dtype)
        alive = np.arange(len(t))
        for dd, W in enumerate(maps, start=1):
            rem = _mul_mod(digits[alive], W, p)
            alive = alive[~(rem == 0).reshape(len(alive), -1, dd * f).all(axis=2).any(axis=1)]
            if not len(alive):
                break
        if len(alive):
            return cand[alive[0]].tolist()
    raise ArithmeticError("no irreducible polynomial found")  # unreachable for q, degree valid


def _check_order(base: int, d: int) -> None:
    """ValueError when base**d, base >= 2, exceeds MAX_FIELD_ORDER, decided
    without forming a power far past the cap: base**d >= max(base, 2**d),
    so a base above the cap or a d past its bit length is refused alone."""
    if base > MAX_FIELD_ORDER or d >= MAX_FIELD_ORDER.bit_length() or base**d > MAX_FIELD_ORDER:
        raise ValueError(f"field order {base}**{d} exceeds the cap {MAX_FIELD_ORDER}")


@lru_cache(maxsize=None)
def GF(p: int, e: int = 1) -> Field:
    """The finite field GF(p**e), given by characteristic and degree.

    p must be prime; note GF(4) is spelled GF(2, 2).  Deterministic: the
    modulus is the lexicographically smallest irreducible polynomial, so
    repeated calls (and separate runs) agree element-for-element.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise TypeError("p and e must be integers")
    if e < 1:
        raise ValueError("extension degree e must be >= 1")
    if p > 1:
        _check_order(p, e)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime (did you mean GF(p, e) with p**e = {p}?)")
    return Field(p, _smallest_irreducible(_Coefficients(p, None), e), base=None)


@lru_cache(maxsize=None)
def _extension_cached(F: Field, d: int) -> Field:
    return Field(F.p, _smallest_irreducible(_Coefficients(F.p, F), d), base=F)
