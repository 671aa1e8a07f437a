"""Lower bounds on the order of edge-girth-regular graphs, and an
extremality certifier.

All bounds are carried as exact rationals (or integers) and only ceiled
to the parity-feasible order at the reporting boundary.  "Certified
extremal" is a bound-tightness certificate: the graph's order equals the
best applicable lower bound.  It is not a proof of minimality over all
graphs, which would require exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import EgrSignature
from .spectral import tree_walk_count


# bound_report's integers grow like k**g, and its time with their size,
# most at k = 3 and odd g.  At this cap (one thread), report and printing
# together: k = 3, g = 12617 0.3 s (29.7 s while each tree-walk term took
# its own binomial), k = 4, g = 9999 0.3 s, k = 10, g = 6019 0.2 s.  The
# CLI rejects a pair (k, g) with k**g past this many bits before any work,
# and prints every pair inside, past the float range and digit limit too.
MAX_BOUND_BITS = 20_000


def in_domain(k: int, g: int) -> bool:
    """Whether k**g, for k >= 2, has at most MAX_BOUND_BITS bits; True for
    k < 2, which bound_report rejects on its own.  k**g is not formed."""
    return k < 2 or g <= MAX_BOUND_BITS / math.log2(k)


class DegenerateBound(ArithmeticError):
    """The bound's denominator vanished for these parameters."""


def moore_bound(k: int, g: int) -> int:
    """Classical minimum order of a k-regular graph of girth g."""
    if k < 3 or g < 3:
        raise ValueError("need k >= 3 and g >= 3")
    if g % 2:
        return 1 + k * sum((k - 1) ** i for i in range((g - 1) // 2))
    return 2 * sum((k - 1) ** i for i in range(g // 2))


def dfjr_bound(k: int, g: int, lam: int, bipartite: bool = False):
    """Moore bound plus the girth-cycle deficiency term.

    Applicable for lam <= (k-1)**((g-1)//2) when g is odd and
    lam <= (k-1)**(g//2) when g is even; returns None outside that range.
    The bipartite variant doubles the ceiling term and needs even girth.
    """
    if k < 3 or g < 3 or lam < 1:
        raise ValueError("need k >= 3, g >= 3, lambda >= 1")
    if bipartite and g % 2:
        raise ValueError("bipartite graphs have even girth")
    n0 = moore_bound(k, g)
    if g % 2:
        cap = (k - 1) ** ((g - 1) // 2)
        if lam > cap:
            return None
        return n0 + cap - lam
    cap = (k - 1) ** (g // 2)
    if lam > cap:
        return None
    if bipartite:
        return n0 + 2 * math.ceil(Fraction(cap - lam, k))
    return n0 + math.ceil(Fraction(2 * (cap - lam), k))


def egr4_bound(k: int, lam: int, bipartite: bool = False) -> Fraction:
    """Order bound for girth-4 edge-girth-regular graphs, from the first
    two even closed-walk moments; doubled in the bipartite case."""
    if k < 3 or lam < 1:
        raise ValueError("need k >= 3 and lambda >= 1")
    value = Fraction(k**3 - 2 * k**2 + 2 * k - 1 + lam, lam + k - 1)
    return 2 * value if bipartite else value


def even_girth_bound(k: int, g: int, lam: int, bipartite: bool = False) -> Fraction:
    """Order bound for even girth from closed-walk moments at g/2 and g.

    The two residues of g mod 4 give different shapes because the
    half-girth walk count c(g/2, k) vanishes for odd g/2.  At g = 4 the
    g = 0 (mod 4) branch reduces exactly to egr4_bound.
    """
    if g % 2 or g < 4:
        raise ValueError("need even girth g >= 4")
    if k < 3 or lam < 1:
        raise ValueError("need k >= 3 and lambda >= 1")
    cg = tree_walk_count(g, k)
    if g % 4 == 0:
        ch = tree_walk_count(g // 2, k)
        num = cg + k * lam + k**g - 2 * ch * k ** (g // 2)
        den = cg - ch * ch + k * lam
        value = Fraction(num, den)
        return 2 * value if bipartite else value
    if bipartite:
        return Fraction(2 * k**g, cg + k * lam)
    return Fraction(cg + k * lam + k**g, cg + k * lam)


def _odd_girth_terms(k: int, g: int, lam: int) -> tuple[int, int]:
    """Numerator and denominator of the odd-girth bound's closed form."""
    cm = tree_walk_count(g - 1, k)
    inner = tree_walk_count(g + 1, k) + k * (k - 1) ** ((g + 1) // 2) - lam * k
    num = k ** (g + 1) * cm + k ** (g - 1) * inner - 2 * k ** (g + 1) * lam
    den = cm * inner - k * k * lam * lam
    return num, den


def odd_girth_bound(k: int, g: int, lam: int) -> Fraction:
    """Order bound for odd girth from the walk moments at g-1, g, g+1 and
    the per-vertex (g+1)-cycle cap.

    Raises DegenerateBound when the denominator vanishes.  The value is
    the raw rational of the closed form; callers treating it as a lower
    bound must require a positive denominator (see bound_report).
    """
    if g % 2 == 0 or g < 5:
        raise ValueError("need odd girth g >= 5")
    if k < 3 or lam < 1:
        raise ValueError("need k >= 3 and lambda >= 1")
    num, den = _odd_girth_terms(k, g, lam)
    if den == 0:
        raise DegenerateBound(f"odd-girth bound degenerate at k={k}, g={g}, lambda={lam}")
    return Fraction(num, den)


def vertex_cycle_cap(k: int, g: int, lam: int):
    """Maximum number of (g+1)-cycles through any vertex of an odd-girth
    edge-girth-regular graph: binom(k,2) * ((k-1)**h - lam/(k-1)) with
    g = 2h+1.  None when lam exceeds (k-1)**(h+1) (the cap goes negative
    and carries no information)."""
    if g % 2 == 0 or g < 5:
        raise ValueError("need odd girth g >= 5")
    if k < 3 or lam < 1:
        raise ValueError("need k >= 3 and lambda >= 1")
    h = (g - 1) // 2
    if lam > (k - 1) ** (h + 1):
        return None
    return Fraction(math.comb(k, 2)) * ((k - 1) ** h - Fraction(lam, k - 1))


def feasible_order(value, k: int, bipartite: bool) -> int:
    """Smallest graph order >= value compatible with parity: bipartite
    k-regular graphs and odd-k regular graphs have even order."""
    m = math.ceil(value)
    if (bipartite or k % 2) and m % 2:
        m += 1
    return m


@dataclass(frozen=True)
class BoundReport:
    """All applicable lower bounds for a (k, g, lambda) triple.

    Rational bounds stay exact; ``contributions`` holds each applicable
    bound after parity-feasible ceiling, and ``best`` is their maximum.
    ``vertex_cap`` is informational (a cycle cap, not an order bound).
    """

    k: int
    g: int
    lam: int
    bipartite: bool
    moore: int
    dfjr: int | None
    spectral_even: Fraction | None
    spectral_odd: Fraction | None
    vertex_cap: Fraction | None
    contributions: dict
    best: int
    notes: tuple[str, ...]


def bound_report(k: int, g: int, lam: int, bipartite: bool = False) -> BoundReport:
    """Evaluate every applicable bound for the triple and take the max."""
    if k < 3 or g < 3 or lam < 1:
        raise ValueError("need k >= 3, g >= 3, lambda >= 1")
    if bipartite and g % 2:
        raise ValueError("bipartite graphs have even girth")
    notes = []
    contributions: dict[str, int] = {}

    moore = moore_bound(k, g)
    contributions["moore"] = feasible_order(moore, k, bipartite)

    dfjr = dfjr_bound(k, g, lam, bipartite)
    if dfjr is None:
        notes.append("dfjr: lambda above the bound's validity range; omitted")
    else:
        contributions["dfjr"] = feasible_order(dfjr, k, bipartite)

    spectral_even = spectral_odd = vertex_cap = None
    if g % 2 == 0:
        spectral_even = even_girth_bound(k, g, lam, bipartite)
        contributions["spectral_even"] = feasible_order(spectral_even, k, bipartite)
    elif g < 5:
        notes += [f"{name}: defined for odd girth g >= 5; omitted" for name in ("vertex_cap", "spectral_odd")]
    else:
        vertex_cap = vertex_cycle_cap(k, g, lam)
        if vertex_cap is None:
            notes.append("vertex_cap: lambda exceeds (k-1)^(h+1); omitted")
        num, den = _odd_girth_terms(k, g, lam)
        if den == 0:
            notes.append("spectral_odd: denominator vanishes; omitted")
        else:
            spectral_odd = Fraction(num, den)
            if den > 0:
                contributions["spectral_odd"] = feasible_order(spectral_odd, k, bipartite)
            else:
                notes.append("spectral_odd: negative denominator, inequality direction lost; omitted")

    best = max(contributions.values())
    return BoundReport(
        k=k,
        g=g,
        lam=lam,
        bipartite=bipartite,
        moore=moore,
        dfjr=dfjr,
        spectral_even=spectral_even,
        spectral_odd=spectral_odd,
        vertex_cap=vertex_cap,
        contributions=contributions,
        best=best,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ExtremalityVerdict:
    """Bound-tightness verdict for a verified signature."""

    signature: EgrSignature
    report: BoundReport
    certified: bool
    gap: int
    tight_bounds: tuple[str, ...]
    statement: str


def certify_extremal(sig: EgrSignature) -> ExtremalityVerdict:
    """Compare a verified graph's order against the best applicable lower
    bound.  Certified means order == best bound; the certificate names the
    tight bounds.  This certifies bound-tightness, not minimality over all
    graphs."""
    report = bound_report(sig.k, sig.g, sig.lam, sig.bipartite)
    gap = sig.n - report.best
    if gap < 0:
        raise ArithmeticError(
            f"verified graph on {sig.n} vertices beats the proven bound {report.best}; "
            "either the verifier or a bound is wrong"
        )
    tight = tuple(sorted(name for name, v in report.contributions.items() if v == sig.n))
    certified = gap == 0
    if certified:
        statement = (
            f"order {sig.n} matches the best lower bound ({', '.join(tight)}); "
            "certified extremal in the bound-tightness sense (not an exhaustive minimality proof)"
        )
    else:
        statement = f"gap = {gap}: order {sig.n} vs best lower bound {report.best}"
    return ExtremalityVerdict(
        signature=sig,
        report=report,
        certified=certified,
        gap=gap,
        tight_bounds=tight,
        statement=statement,
    )
