"""Spectral side of the toolkit: exact closed-walk moments of the
adjacency matrix, cycle-free walk counts on the k-regular tree, and the
adjacency spectrum with multiplicity grouping.

Exact integer moments are the ground truth here; the floating spectrum
(LAPACK ``eigvalsh``, or ``svd`` on the half-order route) is checked
against them at runtime, never the other way around: every spectrum
``eigenvalues`` returns has matched the exact moments of lengths
0..MOMENT_CHECK_LENGTH.  The moments take the adjacency matrix and the
exactness rule of ``graph_core`` (float32 while no count exceeds 2**24,
float64 while none exceeds 2**53, Python ints past that), the same ones its
walk pass uses.  A caller that already holds the moments or the spectrum
passes them in (``eigenvalues(G, moments=...)``,
``certify_tight_spectrum(G, sig, spectrum=...)``), and each is checked to
belong to G.  The tight four-value spectrum of a bipartite girth-4 graph
is also decided exactly, by the symmetric-design identity of
``_tight_identity``, and the float verdict must agree with it.

The half-order route.  A connected bipartite graph with an edge (every
family ``report`` builds: each is the Levi graph of an incidence
structure) has a biadjacency matrix N, a x b with a <= b, its colour
classes from the package's one BFS (``graph_core._bipartition``, cached on
the graph); N is built once per graph and cached too (``_biadjacency_of``).
Then A**2 = diag(NN^T, N^TN), so
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

from .graph_core import EgrSignature, Graph, _adjacency, _bipartition, _exact_dtype, _widen

MAX_MOMENT_LENGTH = 16
MAX_MOMENT_VERTICES = 2048

# every spectrum is checked against the exact moments of lengths
# 0..MOMENT_CHECK_LENGTH, each within MOMENT_CHECK_RTOL * sum_i |lambda_i|**l
MOMENT_CHECK_LENGTH = 4
MOMENT_CHECK_RTOL = 1e-9


def walk_moments(G: Graph, L: int) -> list[int]:
    """Exact trace of A**l for l = 0..L, i.e. the closed-walk counts
    sum_i lambda_i**l.

    A connected bipartite G with an edge takes the half-order route: with
    N its biadjacency matrix (rows the smaller colour class),
    A**2 = diag(NN^T, N^TN), so trace(A**(2j)) = 2 trace((NN^T)**j) for
    j >= 1 and every odd moment is 0.  The chain of ``_power_traces`` then
    runs on M = NN^T, of order at most n/2, up to j = L // 2.  Any other
    graph runs the same chain on A up to L.  Entry (u, v) of M**j counts
    the walks of 2j steps from u to v, so the bound below holds on either
    route, and M itself (entries at most k, formed in float64) is exact.

    With maximum degree k, every entry of a power, every partial sum of a
    product and every partial row sum counts walks of at most L steps from
    one vertex, so none exceeds k**L, and the arrays take their dtype from
    graph_core._exact_dtype(k**L).

    moments[0] = n, moments[1] = 0 (no loops), moments[2] = 2|E|.
    """
    if L > MAX_MOMENT_LENGTH:
        raise ValueError(f"moment length capped at {MAX_MOMENT_LENGTH}")
    if G.n > MAX_MOMENT_VERTICES:
        raise ValueError(f"moment computation capped at {MAX_MOMENT_VERTICES} vertices")
    k = int(G.deg.max(initial=0))
    dtype = _exact_dtype(k**L)
    N = _biadjacency_of(G)
    if N is None:
        return [G.n] + _power_traces(_adjacency([G], dtype)[0], L)
    half = _power_traces(_widen(N @ N.T, dtype), L // 2)
    return [G.n] + [0 if length % 2 else 2 * half[length // 2 - 1] for length in range(1, L + 1)]


def _power_traces(B: np.ndarray, J: int) -> list[int]:
    """trace(B**j) for j = 1..J of the symmetric matrix B, as Python ints:
    the one moment chain, run on A or on NN^T (``walk_moments``).

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


def _biadjacency_of(G: Graph) -> np.ndarray | None:
    """``_biadjacency(G)``, built on the first call and kept on G
    (``G._biadj``: None until built, False when G has none), so that
    ``walk_moments``, ``eigenvalues`` and ``_tight_identity`` share one N.
    At the report cap of 2048 vertices N holds at most 1024 x 1024 float64
    entries, 8 MiB, for as long as G lives."""
    if G._biadj is None:
        N = _biadjacency(G)
        G._biadj = False if N is None else N
    return None if G._biadj is False else G._biadj


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
    """All adjacency eigenvalues of G, descending, checked against the
    exact walk moments of lengths 0..MOMENT_CHECK_LENGTH; grouped into
    multiplicities at 1e4 * tol, each group's value the mean of its
    members.  Raises ArithmeticError when the check fails.

    A connected bipartite G with an edge takes the half-order route: the
    eigenvalues are +-sigma, sigma the singular values of its a x b
    biadjacency matrix N (LAPACK ``svd``), and b - a zeros.  ``svd`` and not
    ``eigvalsh(NN^T)``, because the square root of a near-zero eigenvalue
    of NN^T keeps only half the digits: a zero eigenvalue would read about
    1e-7 (module docstring).  Every other graph takes LAPACK ``eigvalsh`` on
    the adjacency matrix.

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
    N = _biadjacency_of(G)
    if N is None:
        vals = eigvalsh(_adjacency([G], float)[0])[::-1]
    else:
        sigma = svd(N, compute_uv=False)
        vals = np.concatenate((sigma, np.zeros(abs(N.shape[0] - N.shape[1])), -sigma[::-1]))
    _check_moments(vals, walk_moments(G, MOMENT_CHECK_LENGTH) if moments is None else moments)
    group_tol = 1e4 * tol
    values = vals.tolist()
    groups: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > group_tol:
            groups.append((float(np.mean(vals[start:i])), i - start))
            start = i
    return Spectrum(values=tuple(values), groups=tuple(groups))


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

    Exact in float64: every entry of NN^T counts common neighbours, at most
    k.  The identity holds exactly when G has the tight spectrum
    {+-k, +-sqrt(k - mu)^(n/2 - 1)}, and k - mu = (nk - 2k^2)/(n - 2).

    One product decides it.  N is 0/1, so the diagonal of NN^T = (k - mu)I
    + mu J says N's row sums are k: NJ = kJ.  Row sums are at most n/2, so
    mu <= k.  When k > mu, NN^T is invertible (eigenvalues k - mu and
    k - mu + mu n/2 = k^2), hence so is N, and 1^T N N^T = k^2 1^T = k 1^T N^T
    gives column sums k too: JN = kJ.  Then N^TN = N^-1 (NN^T) N
    = (k - mu)I + mu N^-1 J N = (k - mu)I + mu J.  When k = mu, k = n/2
    (N has an edge, so k >= 1), so N = J and N^TN = kJ as well.

    N is ``_biadjacency_of``'s.  With k >= 2, mu >= 1, so any two vertices of
    one class share a neighbour and a graph that meets the identity is
    connected: a graph without colour classes (disconnected, or not
    bipartite) means False.
    """
    N = None if G.n < 4 else _biadjacency_of(G)
    if N is None or 2 * len(N) != G.n:
        return False
    half = G.n // 2
    mu, rem = divmod(k * (k - 1), half - 1)
    if rem:
        return False
    target = np.full((half, half), float(mu))
    np.fill_diagonal(target, k)
    return np.array_equal(N @ N.T, target)


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
