"""Finite field GF(p^e) arithmetic from lookup tables.

Elements are plain integers in ``[0, q)``.  The integer encodes the
coefficient vector of a polynomial over the coefficient field in base
``p`` (base ``|F|`` when the field is built as an extension of another
field ``F``), least-significant digit = constant term.  An element of
the coefficient field is itself a string of base-``p`` digits, so every
index is a string of ``e`` base-``p`` digits, and addition is digit-wise
addition mod ``p``.

Tables.  Each field keeps ``exp[i] = g**i`` for a multiplicative
generator ``g``, its inverse ``log``, and the Zech logarithms
``zech[n] = log(1 + g**n)`` (built on the first addition).  Every scalar
operation is a range check plus a constant number of list lookups:
``a*b = exp[log a + log b]``, ``a + b = exp[log a + zech[log b - log a]]``
and ``-a = exp[log a + log(-1)]``.

Doubling.  Multiplication by ``g`` is a GF(p)-linear map on the base-p
digit vector of an index; its e x e matrix ``M`` comes from ``e``
schoolbook products.  The exp table is filled by doubling,
``exp[h:2h] = exp[:h] * g**h``, i.e. the digit rows already filled times
``M**h`` mod p: one small integer matmul per step, log2(q) steps in all,
into one preallocated digit array of the smallest dtype that holds the
dot products.  The generator is checked to have order exactly ``q - 1``
and ``exp`` to be a bijection onto the nonzero elements.

Bulk tables.  Fields of order at most ``MAX_TABLE_ORDER`` expose numpy
add/neg/mul/inv tables (``Field.tables``) for vectorised geometry.

The reducing modulus is always the lexicographically smallest monic
irreducible polynomial, coefficients compared constant-term first, so
every field -- and everything built on top of it -- is reproducible
byte-for-byte across runs.  Size caps: q <= 2**20 for ``GF``,
q**d <= 2**24 for ``Field.extension``, q <= 2**8 for ``Field.tables``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

MAX_FIELD_ORDER = 2**20
MAX_EXTENSION_ORDER = 2**24
MAX_TABLE_ORDER = 2**8


def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        # log(-1): -1 = 1 in characteristic 2, else g**((q-1)/2)
        self._log_neg1 = 0 if p == 2 else self._order // 2
        self._build_tables()

    # -- coefficient-field arithmetic (ints mod p, or the base field) --

    def _cadd(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.base is None else self.base.add(a, b)

    def _csub(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.base is None else self.base.sub(a, b)

    def _cmul(self, a: int, b: int) -> int:
        return (a * b) % self.p if self.base is None else self.base.mul(a, b)

    # -- digit vector <-> element index --

    def _reject(self, *elems) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise ValueError(f"element index {a} out of range for field of order {self.q}")

    def coords(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of ``a`` over the coefficient field."""
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} out of range for field of order {self.q}")
        v = []
        for _ in range(self.degree):
            a, r = divmod(a, self._csize)
            v.append(r)
        return tuple(v)

    def from_coords(self, v) -> int:
        idx = 0
        for c in reversed(list(v)):
            idx = idx * self._csize + c
        return idx

    def _vec_mul_mod(self, u: list[int], w: list[int]) -> list[int]:
        """Schoolbook product of two coefficient vectors, reduced by the modulus."""
        m = self.degree
        prod = [0] * (2 * m - 1)
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, wj in enumerate(w):
                if wj:
                    prod[i + j] = self._cadd(prod[i + j], self._cmul(ui, wj))
        # reduce: x^t = -(modulus minus leading term) * x^(t-m), top down
        for t in range(2 * m - 2, m - 1, -1):
            c = prod[t]
            if c == 0:
                continue
            prod[t] = 0
            for j in range(m):
                prod[t - m + j] = self._csub(prod[t - m + j], self._cmul(c, self.modulus[j]))
        return prod[:m]

    def _raw_mul(self, a: int, b: int) -> int:
        """Schoolbook product, independent of the tables."""
        return self.from_coords(self._vec_mul_mod(list(self.coords(a)), list(self.coords(b))))

    # -- table construction --

    def _build_tables(self):
        q, p, e, order = self.q, self.p, self.e, self._order
        gen = 1 if q == 2 else None
        factors = _prime_factors(order)
        for g in range(2, q):
            if all(self._raw_pow(g, order // r) != 1 for r in factors):
                gen = g
                break
        if gen is None:
            raise ArithmeticError("no multiplicative generator found; modulus is not irreducible")
        # digits[i] = base-p digits of g**i.  step holds M**h, row j being
        # the digits of g**h * p**j; every dot product is at most e*(p-1)**2.
        dtype = np.min_scalar_type(e * (p - 1) ** 2)
        digits = np.zeros((order, e), dtype=dtype)
        digits[0, 0] = 1
        step = _digits(np.array([self._raw_mul(gen, p**j) for j in range(e)]), p, e).astype(dtype)
        h = 1
        while h < order:
            k = min(h, order - h)
            block = digits[h : h + k]
            np.matmul(digits[:k], step, out=block)
            np.remainder(block, p, out=block)
            h *= 2
            if h < order:
                step = (step @ step) % p
        exp = np.zeros(order, dtype=np.int32)  # q <= MAX_EXTENSION_ORDER < 2**31
        for j in reversed(range(e)):
            exp *= p
            exp += digits[:, j].astype(np.int32)
        del digits
        if self._raw_mul(int(exp[-1]), gen) != 1:
            raise ArithmeticError("multiplicative group is not cyclic of order q-1")
        hits = np.bincount(exp, minlength=q)
        bijective = hits[0] == 0 and (hits[1:] == 1).all()
        del hits
        if not bijective:
            raise ArithmeticError("multiplicative group is not cyclic of order q-1")
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(order, dtype=np.int32)
        self.generator = gen
        # free each numpy table once its list exists, to keep the peak low
        self._exp = exp.tolist()
        del exp
        self._log = log.tolist()

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return r

    @cached_property
    def _zech(self) -> list[int]:
        """zech[n] = log(1 + g**n), or -1 where 1 + g**n = 0.  Adding 1
        adds 1 to the constant base-p digit."""
        x = np.array(self._exp, dtype=np.int64)
        low = x % self.p
        x += (low + 1) % self.p - low
        log = np.array(self._log, dtype=np.int64)
        return np.where(x == 0, -1, log[x]).tolist()

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
        exp = np.array(self._exp)
        log = np.array(self._log)
        mul = exp[(log[:, None] + log[None, :]) % self._order]
        mul[0, :] = 0
        mul[:, 0] = 0
        inv = exp[(-log) % self._order]
        inv[0] = 0
        return FieldTables(*(t.astype(np.uint8) for t in (add, neg, mul, inv)))

    # -- public arithmetic --

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if not (0 <= a < self.q and 0 <= b < self.q):
            self._reject(a, b)
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % self._order]
        return 0 if z < 0 else self._exp[(la + z) % self._order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if not 0 <= a < self.q:
            self._reject(a)
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._log_neg1) % self._order]

    def mul(self, a: int, b: int) -> int:
        if not (0 <= a < self.q and 0 <= b < self.q):
            self._reject(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._order]

    def inv(self, a: int) -> int:
        if not 0 <= a < self.q:
            self._reject(a)
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[(-self._log[a]) % self._order]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if not 0 <= a < self.q:
            self._reject(a)
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 1 if n == 0 else 0
        return self._exp[(self._log[a] * n) % self._order]

    def frobenius(self, a: int) -> int:
        """The field automorphism a -> a**p (p = characteristic)."""
        return self.pow(a, self.p)

    def mul_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if not 0 <= a < self.q:
            self._reject(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        from math import gcd

        return self._order // gcd(self._log[a], self._order)

    def extension(self, d: int) -> "Field":
        """Degree-``d`` extension of this field.

        The result is GF(q**d) viewed as a d-dimensional vector space over
        this field: ``coords``/``from_coords`` convert between an element
        and its coefficient vector, and this field embeds as the elements
        with index < q (the constant polynomials), so the embedding is
        literally the identity on indices.
        """
        if d < 2:
            raise ValueError("extension degree must be at least 2")
        if self.q**d > MAX_EXTENSION_ORDER:
            raise ValueError(f"extension order {self.q}**{d} exceeds the cap {MAX_EXTENSION_ORDER}")
        return _extension_cached(self, d)

    def __repr__(self):
        if self.base is not None:
            return f"Field(GF({self.p}^{self.e}) as degree-{self.degree} extension of GF({self.base.q}))"
        return f"Field(GF({self.p}^{self.e}))" if self.e > 1 else f"Field(GF({self.p}))"


def _smallest_irreducible(csize: int, degree: int, cadd, csub, cmul) -> list[int]:
    """Lexicographically smallest monic irreducible polynomial of the given
    degree over a coefficient field, low-degree coefficients compared first.

    Irreducibility by trial division against every monic polynomial of
    degree 1..degree//2 (exhaustive factor test).
    """
    if degree == 1:
        return [0, 1]  # the polynomial x; never used for reduction

    def divides(div: list[int], poly: list[int]) -> bool:
        # div monic; remainder of poly / div == 0?
        rem = list(poly)
        dd = len(div) - 1
        for t in range(len(rem) - 1, dd - 1, -1):
            c = rem[t]
            if c == 0:
                continue
            for j in range(dd + 1):
                rem[t - dd + j] = csub(rem[t - dd + j], cmul(c, div[j]))
        return all(c == 0 for c in rem)

    monic_divisors = []
    for dd in range(1, degree // 2 + 1):
        for tail in product(range(csize), repeat=dd):
            monic_divisors.append(list(tail) + [1])

    for coeffs in product(range(csize), repeat=degree):
        cand = list(coeffs) + [1]
        if cand[0] == 0:
            continue  # divisible by x
        if not any(divides(d, cand) for d in monic_divisors):
            return cand
    raise ArithmeticError("no irreducible polynomial found")  # unreachable for q, degree valid


@lru_cache(maxsize=None)
def GF(p: int, e: int = 1) -> Field:
    """The finite field GF(p**e), given by characteristic and degree.

    p must be prime; note GF(4) is spelled GF(2, 2).  Deterministic: the
    modulus is the lexicographically smallest irreducible polynomial, so
    repeated calls (and separate runs) agree element-for-element.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise TypeError("p and e must be integers")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime (did you mean GF(p, e) with p**e = {p}?)")
    if e < 1:
        raise ValueError("extension degree e must be >= 1")
    if p**e > MAX_FIELD_ORDER:
        raise ValueError(f"field order {p}**{e} exceeds the cap {MAX_FIELD_ORDER}")
    modulus = _smallest_irreducible(
        p, e, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a, b: (a * b) % p
    )
    return Field(p, modulus, base=None)


@lru_cache(maxsize=None)
def _extension_cached(F: Field, d: int) -> Field:
    modulus = _smallest_irreducible(F.q, d, F.add, F.sub, F.mul)
    return Field(F.p, modulus, base=F)
