"""The fields pinned in data/field_pins.json and how each pin is taken.

A spec (p, e, d) names GF(p, e) when d is None, else its degree-d
extension.  Fields are built through the uncached constructors so that a
pass over every spec holds at most one large field at a time."""

from __future__ import annotations

import hashlib

import numpy as np

from egrtools import galois
from egrtools.galois import is_prime


def _prime_powers(p: int, limit: int) -> list[tuple[int, int, None]]:
    out, e = [], 1
    while p**e <= limit:
        out.append((p, e, None))
        e += 1
    return out


# every p^e <= 2^20 for a spread of characteristics, up to the GF cap
_SPREAD = [2, 3, 5, 7, 11, 13, 17, 19, 23, 127, 251, 1021, 65521]
# every prime field a family builds (q <= 127) or a test builds
_PRIMES = [p for p in range(29, 128) if is_prime(p) and p != 127] + [131, 257]
# the doubling's float32 exactness rule e(p-1)^2 + p <= 2^24: 4093 is the
# largest prime field inside it, 4099 the smallest past it (float64)
_FLOAT_EDGE = [4093, 4099]
# the GF(q^4) that the Singer pencil builds for every q <= 19
_PENCIL = [
    (p, e, 4) for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1), (19, 1)]
]
_OTHER_EXTENSIONS = [(2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2), (2, 4, 3), (2, 8, 2)]

FIELD_SPECS = (
    [spec for p in _SPREAD for spec in _prime_powers(p, galois.MAX_FIELD_ORDER)]
    + [(p, 1, None) for p in _PRIMES + _FLOAT_EDGE]
    + _PENCIL
    + _OTHER_EXTENSIONS
)


def spec_id(spec) -> str:
    p, e, d = spec
    return f"GF({p}^{e})" if d is None else f"GF({p}^{e})^{d}"


def build_uncached(spec) -> galois.Field:
    p, e, d = spec
    F = galois.GF.__wrapped__(p, e) if d is None else galois.GF(p, e)
    return F if d is None else galois._extension_cached.__wrapped__(F, d)


def _table_sha256(table: list[int]) -> str:
    return hashlib.sha256(np.asarray(table, dtype="<i4").tobytes()).hexdigest()


def pin_of(spec, F: galois.Field) -> dict:
    p, e, d = spec
    return {
        "p": p,
        "e": e,
        "extension": d,
        "modulus": F.modulus,
        "generator": F.generator,
        "exp_sha256": _table_sha256(F._exp),
        "log_sha256": _table_sha256(F._log),
    }
