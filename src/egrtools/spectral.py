"""Spectral side of the toolkit: exact closed-walk moments of the
adjacency matrix, cycle-free walk counts on the k-regular tree, and the
adjacency spectrum with multiplicity grouping.

Exact integer moments are the ground truth here; the floating spectrum
(LAPACK ``eigvalsh``, or ``svd`` on the half-order route) is checked
against them at runtime, never the other way around: every spectrum
``eigenvalues`` returns has matched the exact moments of lengths
0..MOMENT_CHECK_LENGTH and carries those of lengths 0..``length``
(``Spectrum.moments``), from the one matrix and the one moment chain it
shares with ``walk_moments`` (``_matrix_moments``).  The moments take the
exactness rule ``graph_core._exact_dtype``: float32 while no count exceeds
2**24, float64 while none exceeds 2**53, and a ValueError, before any
product, past that.  No ``report`` comes near it: its length is g + 1, and
k**(g+1) <= 2**50 for every family and named graph under its vertex cap.
``certify_tight_spectrum`` takes a spectrum already computed, refuses one
whose moments 0..4 are not those of G's verified signature, and decides
the tight four-value spectrum of a bipartite girth-4 graph exactly as the
paper's girth-4 bound met with equality on that signature
(``bounds.egr4_bound``); the float verdict must agree with it.

The half-order route.  A connected bipartite graph with an edge (every
family ``report`` builds: each is the Levi graph of an incidence
structure) has a biadjacency matrix N, a x b with a <= b, its colour
classes from the package's one BFS (``graph_core._bipartition``, cached on
the graph).  Then A**2 = diag(NN^T, N^TN), so
trace(A**(2j)) = 2 trace((NN^T)**j) for j >= 1, every odd moment is 0,
and the eigenvalues of A are +-sigma_i, the singular values of N, and
b - a zeros (Brouwer & Haemers, *Spectra of Graphs*, 2012, section 1.3).
Both stages then run at order a <= n/2, about an eighth of the work per
matrix product.  The moments stay exact: an entry of (NN^T)**j counts
walks of 2j steps, so the k**L bound and its dtype are those of the
full-order chain.  The spectrum comes from ``svd(N)``, not from
``eigvalsh(NN^T)``: an eigenvalue of NN^T near 0 carries an absolute error
near machine epsilon, and its square root keeps only half the digits, so a
zero eigenvalue of A would come out near 1e-7 and change the 9-digit
report bytes; the singular values of N are accurate to machine epsilon
themselves.  Every other graph (not bipartite, or disconnected) takes the
full-order route on A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import eigvalsh, svd

from .graph_core import EgrSignature, Graph, _adjacency, _bipartition, _exact_dtype

MAX_MOMENT_LENGTH = 16
MAX_MOMENT_VERTICES = 2048

# every spectrum is checked against the exact moments of lengths
# 0..MOMENT_CHECK_LENGTH, each within MOMENT_CHECK_RTOL * sum_i |lambda_i|**l
MOMENT_CHECK_LENGTH = 4
MOMENT_CHECK_RTOL = 1e-9


def walk_moments(G: Graph, L: int) -> list[int]:
    """Exact trace of A**l for l = 0..L, i.e. the closed-walk counts
    sum_i lambda_i**l (``_matrix_moments``): moments[0] = n, moments[1] = 0
    (no loops), moments[2] = 2|E|.  ValueError past MAX_MOMENT_LENGTH or
    MAX_MOMENT_VERTICES, or when k**L, k the maximum degree, passes 2**53."""
    if L < 0:
        raise ValueError("moment length must be nonnegative")
    if L > MAX_MOMENT_LENGTH:
        raise ValueError(f"moment length capped at {MAX_MOMENT_LENGTH}")
    if G.n > MAX_MOMENT_VERTICES:
        raise ValueError(f"moment computation capped at {MAX_MOMENT_VERTICES} vertices")
    return _matrix_moments(G, L)[1]


def _matrix_moments(G: Graph, L: int) -> tuple[np.ndarray, list[int]]:
    """The one matrix B a spectral call builds, and trace(A**l) for
    l = 0..L exactly, from the one moment chain on it.

    A connected bipartite G with an edge takes the half-order route: B is
    its biadjacency matrix N (``_biadjacency``, rows the smaller colour
    class, so fewer than n), A**2 = diag(NN^T, N^TN), so
    trace(A**(2j)) = 2 trace((NN^T)**j) for j >= 1 and every odd moment is
    0.  The chain of ``_power_traces`` then runs on M = NN^T up to
    j = L // 2.  Any other graph has B = A in float64, of n rows, and the
    chain runs on A up to L.  Entry (u, v) of M**j counts the walks of 2j
    steps from u to v, so the bound below holds on either route, and M
    itself (entries at most k, formed in float64) is exact.

    With maximum degree k, every entry of a power, every partial sum of a
    product and every partial row sum counts walks of at most L steps from
    one vertex, so none exceeds k**L, and the chain takes its dtype from
    graph_core._exact_dtype(k**L), which raises ValueError, before any
    product, past 2**53."""
    dtype = _exact_dtype(int(G.deg.max(initial=0)) ** L)
    N = _biadjacency(G)
    if N is None:
        A = _adjacency(G, float)
        return A, [G.n] + _power_traces(A.astype(dtype, copy=False), L)
    half = _power_traces((N @ N.T).astype(dtype, copy=False), L // 2)
    return N, [G.n] + [0 if length % 2 else 2 * half[length // 2 - 1] for length in range(1, L + 1)]


def _power_traces(B: np.ndarray, J: int) -> list[int]:
    """trace(B**j) for j = 1..J of the symmetric matrix B, as Python ints:
    the one moment chain, run on A or on NN^T (``_matrix_moments``).

    Keeps only two consecutive powers B**i, B**(i+1) and reads
    trace(B**j) as the Python-int sum of the row sums of
    B**floor(j/2) * B**ceil(j/2) entrywise (B is symmetric); row r sums to
    B**j[r, r].  So B**i costs one product each for i = 2..ceil(J/2): at an
    even last power J, B**(J/2 + 1) is never formed.  The products run in
    B's dtype."""
    traces = []
    low, high = np.eye(len(B), dtype=B.dtype), B
    for j in range(1, J + 1):
        if j % 2 == 0:
            low = high
            if j < J:  # B**(j/2 + 1), read only at j + 1
                high = high @ B
            entrywise = low * low
        else:
            entrywise = low * high
        traces.append(sum(int(d) for d in entrywise.sum(axis=1)))
    return traces


def _biadjacency(G: Graph) -> np.ndarray | None:
    """The read-only 0/1 float64 biadjacency matrix N of G when G is
    connected, bipartite and has an edge (``graph_core._bipartition``),
    else None.  Its rows are the smaller colour class, vertex 0's on a tie,
    and its columns the other class, each in vertex order."""
    right = _bipartition(G)
    if right is None:
        return None
    rows = right if 2 * right.sum() < G.n else ~right
    # each vertex's position within its colour class
    pos = np.where(rows, np.cumsum(rows), np.cumsum(~rows)) - 1
    src = np.arange(G.n).repeat(G.deg)
    own = rows[src]
    a = int(rows.sum())
    N = np.zeros((a, G.n - a))
    N[pos[src[own]], pos[G.indices[own]]] = 1
    N.setflags(write=False)
    return N


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


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of an adjacency matrix, descending, with multiplicity
    groups (value, count) merged within the grouping tolerance, and the
    exact moments ``walk_moments(G, length)`` they were checked against."""

    values: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    moments: tuple[int, ...]

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


def eigenvalues(G: Graph, tol: float = 1e-10, length: int = MOMENT_CHECK_LENGTH) -> Spectrum:
    """All adjacency eigenvalues of G, descending, checked against the
    exact walk moments of lengths 0..MOMENT_CHECK_LENGTH; grouped into
    multiplicities at 1e4 * tol, each group's value the mean of its
    members.  The returned ``moments`` are ``walk_moments(G, length)``,
    from the same matrix as the spectrum; ``length`` must lie in
    MOMENT_CHECK_LENGTH..MAX_MOMENT_LENGTH, else ValueError, as for a
    graph past MAX_MOMENT_VERTICES or one whose k**length passes 2**53.
    Raises ArithmeticError when the check fails.

    A connected bipartite G with an edge takes the half-order route: the
    eigenvalues are +-sigma, sigma the singular values of its a x b
    biadjacency matrix N (LAPACK ``svd``), and b - a zeros.  ``svd`` and not
    ``eigvalsh(NN^T)``, because the square root of a near-zero eigenvalue
    of NN^T keeps only half the digits: a zero eigenvalue would read about
    1e-7 (module docstring).  Every other graph takes LAPACK ``eigvalsh`` on
    the adjacency matrix."""
    if not MOMENT_CHECK_LENGTH <= length <= MAX_MOMENT_LENGTH:
        raise ValueError(f"moment length must lie in {MOMENT_CHECK_LENGTH}..{MAX_MOMENT_LENGTH}, got {length}")
    if G.n > MAX_MOMENT_VERTICES:
        raise ValueError(f"eigensolver capped at {MAX_MOMENT_VERTICES} vertices")
    B, moments = _matrix_moments(G, length)
    if G.n == 0:
        return Spectrum(values=(), groups=(), moments=tuple(moments))
    if len(B) == G.n:
        vals = eigvalsh(B)[::-1]
    else:
        sigma = svd(B, compute_uv=False)
        vals = np.concatenate((sigma, np.zeros(abs(B.shape[0] - B.shape[1])), -sigma[::-1]))
    _check_moments(vals, moments)
    group_tol = 1e4 * tol
    values = vals.tolist()
    groups: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > group_tol:
            groups.append((float(np.mean(vals[start:i])), i - start))
            start = i
    return Spectrum(values=tuple(values), groups=tuple(groups), moments=tuple(moments))


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


def certify_tight_spectrum(
    G: Graph, sig: EgrSignature, tol: float = 1e-6, spectrum: Spectrum | None = None
) -> TightSpectrumResult:
    """Certificate that the spectrum matches the tight four-eigenvalue
    pattern, the equality case of the bipartite girth-4 order bound.
    Refuses when the signature is not bipartite of girth 4.

    The verdict compares ``spectrum`` (default: ``eigenvalues(G)``) with
    the pattern within ``tol``.  It is then checked against the exact
    verdict on the verified signature, n = ``bounds.egr4_bound(k, lambda,
    bipartite=True)``; ArithmeticError is raised when the two disagree.
    The bound is Cauchy-Schwarz on the squares of the n/2 nonnegative
    eigenvalues, given m_2 = nk and m_4 = nk(2k - 1 + lambda): each vertex
    starts k^2 + k(k - 1) closed 4-walks that trace no cycle, and each of
    the nk lambda / 8 4-cycles gives 8 more.  Equality holds exactly when
    the spectrum is tight (Brouwer & Haemers, *Spectra of Graphs*, 2012,
    section 1.3).  A ``spectrum`` whose moments 0..2 are not (n, 0, 2|E|)
    of G raises ValueError, and so does any spectrum, passed or computed,
    whose moments 0..4 are not (n, 0, nk, 0, nk(2k - 1 + lambda)) of the
    signature: either is one of another graph.
    """
    from .bounds import egr4_bound  # bounds imports this module

    head = (G.n, 0, 2 * G.num_edges())
    if spectrum is not None and spectrum.moments[:3] != head:
        raise ValueError(
            f"spectrum moments 0..2 are {spectrum.moments[:3]}, not (n, 0, 2|E|) = {head} of this graph"
        )
    if sig.g != 4 or not sig.bipartite:
        return TightSpectrumResult(
            certified=False,
            reason=f"precondition violated: need bipartite girth 4, got girth {sig.g}, "
            f"{'bipartite' if sig.bipartite else 'non-bipartite'}",
        )
    n, k = sig.n, sig.k
    spec = eigenvalues(G) if spectrum is None else spectrum
    signature = (n, 0, n * k, 0, n * k * (2 * k - 1 + sig.lam))
    if spec.moments[:5] != signature:
        raise ValueError(
            f"spectrum moments 0..4 are {spec.moments[:5]}, "
            f"not (n, 0, nk, 0, nk(2k - 1 + lambda)) = {signature} of the signature"
        )
    lam2sq = Fraction(n * k - 2 * k * k, n - 2)
    s = math.sqrt(float(lam2sq))
    expected = sorted([float(k), float(-k)] + [s] * ((n - 2) // 2) + [-s] * ((n - 2) // 2), reverse=True)
    deviation = max(abs(a - b) for a, b in zip(spec.values, expected))
    certified = deviation <= tol
    if (n == egr4_bound(k, sig.lam, bipartite=True)) != certified:
        raise ArithmeticError(
            f"tight-spectrum verdict {certified} (deviation {deviation:.3e}, tolerance {tol:.1e}) "
            f"disagrees with the exact identity n = egr4_bound(k, lambda, bipartite=True)"
        )
    if certified:
        reason = f"spectrum is {{+-{k}, +-sqrt({lam2sq})^({(n - 2) // 2})}} within {tol:.1e}"
    else:
        reason = f"spectrum deviates from the tight pattern by {deviation:.3e} > {tol:.1e}"
    return TightSpectrumResult(certified=certified, reason=reason, lambda2_squared=lam2sq, spectrum=spec)
