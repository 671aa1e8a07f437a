"""Spectral side of the toolkit: exact closed-walk moments of the
adjacency matrix, cycle-free walk counts on the k-regular tree, and the
adjacency spectrum with multiplicity grouping.

Exact integer moments are the ground truth here; the floating spectrum
(LAPACK ``eigvalsh``) is checked against them at runtime, never the other
way around: every spectrum ``eigenvalues`` returns has matched the exact
moments of lengths 0..MOMENT_CHECK_LENGTH.  The moments take the adjacency
matrix and the exactness rule of ``graph_core`` (float32 while no count
exceeds 2**24, float64 while none exceeds 2**53, Python ints beyond), the
same ones its walk pass uses.  A caller that already holds the moments or
the spectrum passes them in (``eigenvalues(G, moments=...)``,
``certify_tight_spectrum(G, sig, spectrum=...)``), and each is checked to
belong to G.  The tight four-value spectrum of a bipartite girth-4 graph
is also decided exactly, by the symmetric-design identity of
``_tight_identity``, and the float verdict must agree with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import eigvalsh

from .graph_core import EgrSignature, Graph, _adjacency, _bfs_levels, _exact_dtype, _union_of

MAX_MOMENT_LENGTH = 16
MAX_MOMENT_VERTICES = 2048

# every spectrum is checked against the exact moments of lengths
# 0..MOMENT_CHECK_LENGTH, each within MOMENT_CHECK_RTOL * sum_i |lambda_i|**l
MOMENT_CHECK_LENGTH = 4
MOMENT_CHECK_RTOL = 1e-9


def walk_moments(G: Graph, L: int) -> list[int]:
    """Exact trace of A**l for l = 0..L, i.e. the closed-walk counts
    sum_i lambda_i**l.

    Keeps only two consecutive powers A**j, A**(j+1) and reads
    trace(A**l) as the Python-int sum of the row sums of
    A**floor(l/2) * A**ceil(l/2) entrywise (A is symmetric); row i sums to
    A**l[i, i].  So A**j costs one product each for j = 2..ceil(L/2): at
    an even last length L, A**(L/2 + 1) is never formed.  With maximum
    degree k, every entry of a power, every
    partial sum of a product and every partial row sum counts walks of at
    most L steps from one vertex, so none exceeds k**L, and the arrays take
    their dtype from graph_core._exact_dtype(k**L).

    moments[0] = n, moments[1] = 0 (no loops), moments[2] = 2|E|.
    """
    if L > MAX_MOMENT_LENGTH:
        raise ValueError(f"moment length capped at {MAX_MOMENT_LENGTH}")
    if G.n > MAX_MOMENT_VERTICES:
        raise ValueError(f"moment computation capped at {MAX_MOMENT_VERTICES} vertices")
    k = int(G.deg.max(initial=0))
    A = _adjacency([G], _exact_dtype(k**L))[0]
    moments = [G.n]
    low, high = np.eye(G.n, dtype=A.dtype), A
    for length in range(1, L + 1):
        if length % 2 == 0:
            low = high
            if length < L:  # A**(length/2 + 1), read only at length + 1
                high = high @ A
            entrywise = low * low
        else:
            entrywise = low * high
        moments.append(sum(int(d) for d in entrywise.sum(axis=1)))
    return moments


def tree_walk_count(length: int, k: int) -> int:
    """Closed walks of the given length from a vertex of the infinite
    k-regular tree (equivalently: cycle-free closed walks in any
    k-regular graph, for lengths below the girth).  Zero for odd lengths.

    A closed walk of 2s steps records its distance from the root as a
    Dyck path.  Each of its s steps away has k choices at the root and
    k-1 elsewhere, and a path returning to the root j times takes j of
    them at the root, so
    c(2s, k) = sum_j R_j k^j (k-1)^(s-j), j = 1..s, with the ballot numbers
    R_j = j/(2s-j) binom(2s-j, s): R_s = 1 and R_{j-1} = R_j (j-1)(2s-j) /
    (j(s-j+1)), exactly.  Horner's rule in k from j = s down carries R_j and
    (k-1)^(s-j) along, one big-int product per term.
    """
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    if k < 2:
        raise ValueError("tree walks need degree k >= 2")
    if length % 2:
        return 0
    s = length // 2
    total, ballot, power = 0, 1, 1
    for j in range(s, 0, -1):
        total = total * k + ballot * power
        ballot = ballot * (j - 1) * (2 * s - j) // (j * (s - j + 1))
        power *= k - 1
    return total * k if s else 1


def catalan(s: int) -> int:
    """The s-th Catalan number, binom(2s,s) - binom(2s,s+1)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return math.comb(2 * s, s) - math.comb(2 * s, s + 1)


def tree_walk_polynomial(length: int) -> list[int]:
    """Coefficients (ascending in k) of the closed tree-walk count as a
    polynomial in the degree k: the sum of ``tree_walk_count`` with each
    (k-1)^(s-j) expanded binomially.  The leading coefficient is the
    Catalan number C_{length//2}, the number of Dyck paths."""
    if length % 2:
        raise ValueError("odd walk lengths count zero walks; no polynomial")
    s = length // 2
    if s == 0:
        return [1]
    coeffs, ballot = [0] * (s + 1), 1
    for j in range(s, 0, -1):  # the ballot numbers R_j as in tree_walk_count
        m = s - j
        for i in range(m + 1):  # k^j * binom(m, i) k^i (-1)^(m-i)
            coeffs[j + i] += (-1) ** (m - i) * ballot * math.comb(m, i)
        ballot = ballot * (j - 1) * (2 * s - j) // (j * (s - j + 1))
    return coeffs


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of an adjacency matrix, descending, with multiplicity
    groups (value, count) merged within the grouping tolerance."""

    values: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def smallest(self) -> float:
        return self.values[-1]


def _check_moments(vals: np.ndarray, exact: list[int]) -> None:
    """Raise ArithmeticError unless sum_i vals[i]**l matches the exact
    walk moment exact[l] for every l = 0..MOMENT_CHECK_LENGTH."""
    for length, moment in enumerate(exact[: MOMENT_CHECK_LENGTH + 1]):
        powers = vals**length
        residual = abs(float(powers.sum()) - moment)
        scale = float(np.abs(powers).sum())
        if residual > MOMENT_CHECK_RTOL * scale:
            raise ArithmeticError(
                f"spectrum fails the exact moment check at length {length}: "
                f"sum of eigenvalue powers is off by {residual:.3e} from {moment} "
                f"(tolerance {MOMENT_CHECK_RTOL:.0e} x {scale:.3e})"
            )


def eigenvalues(G: Graph, tol: float = 1e-10, moments: list[int] | None = None) -> Spectrum:
    """All adjacency eigenvalues of G, descending, from LAPACK eigvalsh
    and checked against the exact walk moments of lengths
    0..MOMENT_CHECK_LENGTH; grouped into multiplicities at 1e4 * tol.
    Raises ArithmeticError when the check fails.

    ``moments``, when given, is ``walk_moments(G, L)`` for some
    L >= MOMENT_CHECK_LENGTH, and the check reads its first
    MOMENT_CHECK_LENGTH + 1 entries instead of computing them.  A shorter
    list, or one whose entries 0..2 are not (n, 0, 2|E|), raises
    ValueError."""
    if G.n > MAX_MOMENT_VERTICES:
        raise ValueError(f"eigensolver capped at {MAX_MOMENT_VERTICES} vertices")
    if moments is not None:
        if len(moments) <= MOMENT_CHECK_LENGTH:
            raise ValueError(
                f"need the moments of lengths 0..{MOMENT_CHECK_LENGTH}, got {len(moments)} of them"
            )
        head = [G.n, 0, 2 * G.num_edges()]
        if list(moments[:3]) != head:
            raise ValueError(f"moments 0..2 are {list(moments[:3])}, not (n, 0, 2|E|) = {head} of this graph")
    if G.n == 0:
        return Spectrum(values=(), groups=())
    vals = eigvalsh(_adjacency([G], float)[0])[::-1]
    _check_moments(vals, walk_moments(G, MOMENT_CHECK_LENGTH) if moments is None else moments)
    group_tol = 1e4 * tol
    groups: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[start]) > group_tol:
            chunk = vals[start:i]
            groups.append((float(np.mean(chunk)), len(chunk)))
            start = i
    return Spectrum(values=tuple(float(v) for v in vals), groups=tuple(groups))


@dataclass(frozen=True)
class TightSpectrumResult:
    """Outcome of checking a bipartite girth-4 graph for the four-value
    spectrum {+-k once, +-sqrt((nk-2k^2)/(n-2)) each (n-2)/2 times} that
    characterizes equality in the girth-4 order bound."""

    certified: bool
    reason: str
    lambda2_squared: Fraction | None = None
    spectrum: Spectrum | None = None

    def __bool__(self):
        return self.certified


def _tight_identity(G: Graph, k: int) -> bool:
    """Whether G is the incidence graph of a symmetric design: two colour
    classes of n/2 vertices, mu = k(k-1)/(n/2 - 1) an integer, and the
    biadjacency matrix N with NN^T = N^TN = (k - mu)I + mu J.

    Exact in float64: every entry of NN^T and N^TN counts common
    neighbours, at most k.  The identity holds exactly when G has the tight
    spectrum {+-k, +-sqrt(k - mu)^(n/2 - 1)}, and k - mu = (nk - 2k^2)/(n - 2).

    The colour classes are the parities of the BFS levels from vertex 0.
    With k >= 2, mu >= 1, so any two vertices of one class share a
    neighbour and a graph that meets the identity is connected: an
    unreached vertex, like an edge joining equal levels, means False.
    """
    level, clash = _bfs_levels(_union_of([G]))
    if G.n < 4 or (level < 0).any() or clash.size:
        return False
    right = (level % 2).astype(bool)
    if 2 * right.sum() != G.n:
        return False
    half = G.n // 2
    mu, rem = divmod(k * (k - 1), half - 1)
    if rem:
        return False
    # each vertex's position within its colour class
    pos = np.where(right, np.cumsum(right), np.cumsum(~right)) - 1
    us, vs = G.edge_arrays()
    left_end = np.where(right[us], vs, us)
    N = np.zeros((half, half))
    N[pos[left_end], pos[us + vs - left_end]] = 1
    target = np.full((half, half), float(mu))
    np.fill_diagonal(target, k)
    return np.array_equal(N @ N.T, target) and np.array_equal(N.T @ N, target)


def certify_tight_spectrum(
    G: Graph, sig: EgrSignature, tol: float = 1e-6, spectrum: Spectrum | None = None
) -> TightSpectrumResult:
    """Certificate that the spectrum matches the tight four-eigenvalue
    pattern (implying the graph meets the girth-4 lower bound with
    equality).  Refuses when the signature is not bipartite of girth 4.

    The verdict compares ``spectrum`` (default: ``eigenvalues(G)``) with
    the pattern within ``tol``.  It is then checked against the exact
    identity NN^T = N^TN = (k - mu)I + mu J on the biadjacency matrix N,
    mu = k(k-1)/(n/2 - 1), which holds exactly when the spectrum is tight
    and needs mu to be an integer; ArithmeticError is raised when the two
    disagree.  A ``spectrum`` with other than G.n values raises ValueError.
    """
    if spectrum is not None and spectrum.n != G.n:
        raise ValueError(f"spectrum has {spectrum.n} eigenvalues, the graph {G.n} vertices")
    if sig.g != 4 or not sig.bipartite:
        return TightSpectrumResult(
            certified=False,
            reason=f"precondition violated: need bipartite girth 4, got girth {sig.g}, "
            f"{'bipartite' if sig.bipartite else 'non-bipartite'}",
        )
    n, k = sig.n, sig.k
    lam2sq = Fraction(n * k - 2 * k * k, n - 2)
    if lam2sq < 0:
        return TightSpectrumResult(certified=False, reason="nk < 2k^2: no admissible spectrum", lambda2_squared=lam2sq)
    s = math.sqrt(float(lam2sq))
    expected = sorted([float(k), float(-k)] + [s] * ((n - 2) // 2) + [-s] * ((n - 2) // 2), reverse=True)
    spec = eigenvalues(G) if spectrum is None else spectrum
    deviation = max(abs(a - b) for a, b in zip(spec.values, expected))
    certified = deviation <= tol
    if _tight_identity(G, k) != certified:
        raise ArithmeticError(
            f"tight-spectrum verdict {certified} (deviation {deviation:.3e}, tolerance {tol:.1e}) "
            f"disagrees with the exact identity NN^T = N^TN = (k - mu)I + mu J"
        )
    if not certified:
        return TightSpectrumResult(
            certified=False,
            reason=f"spectrum deviates from the tight pattern by {deviation:.3e} > {tol:.1e}",
            lambda2_squared=lam2sq,
            spectrum=spec,
        )
    return TightSpectrumResult(
        certified=True,
        reason=f"spectrum is {{+-{k}, +-sqrt({lam2sq})^({(n - 2) // 2})}} within {tol:.1e}",
        lambda2_squared=lam2sq,
        spectrum=spec,
    )
