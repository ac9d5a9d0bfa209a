"""Quasi-momentum fiber matrices, zone scans, and ground-space extraction."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .model import DEFAULT_GRID_PER_DIM, DEFAULT_REFINEMENTS, DEFAULT_TOL_THETA, MAX_REFINEMENTS
from .model import ConvergenceError, HoppingOperator, LatticeGeometry, _require_count

# stride per axis of the grid points solved first: an upper bound on its minimum
# and the anchors of a lower bound elsewhere
COARSE_STRIDE = 8


@dataclass(frozen=True)
class FloquetMatrix:
    """The fiber of a periodic hopping operator at quasi-momentum theta;
    ``build_floquet`` makes ``matrix`` exactly Hermitian."""

    theta: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class GroundSpaceData:
    """Full fiber eigendata at one theta plus the degenerate ground basis."""

    theta: np.ndarray
    eigenvalues: np.ndarray  # ascending, full spectrum
    p: int
    basis: np.ndarray  # cell_size x p, orthonormal columns
    gap: float | None  # None when p == cell_size
    fiber: FloquetMatrix
    eigenvectors: np.ndarray  # all columns, for downstream pseudoinverses

    @property
    def e0(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class ThetaSet:
    """Minimizers of the lowest band and its minimum E0, for ``hopping``."""

    minimizers: tuple[np.ndarray, ...]
    E0: float
    resolution: float
    hopping: HoppingOperator  # the scanned operator, shifted when the scan asked for it


def build_floquet(hopping: HoppingOperator, theta) -> FloquetMatrix:
    """Assemble the fiber matrix M(theta)(k,k') = sum_m e^{i theta.m} H0(k, k'-m)."""
    theta = np.asarray(theta, dtype=float)
    matrix = hopping.fiber(theta)
    matrix = 0.5 * (matrix + matrix.conj().T)  # symmetrize rounding noise only
    return FloquetMatrix(theta, matrix)


def fiber_eigh(fiber: FloquetMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with an explicit residual certificate."""
    try:
        eigenvalues, vectors = np.linalg.eigh(fiber.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed on fiber at theta={fiber.theta}") from exc
    scale = max(float(np.abs(eigenvalues).max()), 1e-300)  # the 2-norm of a Hermitian fiber
    residual = np.abs(fiber.matrix @ vectors - vectors * eigenvalues).max()
    if residual > 1e-12 * scale:
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds 1e-12 * norm")
    ortho = np.abs(vectors.conj().T @ vectors - np.eye(len(eigenvalues))).max()
    if ortho > 1e-12:
        raise ConvergenceError(f"eigenvector orthonormality defect {ortho:.3e}")
    return eigenvalues, vectors


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    fixed = np.array(vectors)
    for j in range(fixed.shape[1]):
        pivot = int(np.argmax(np.abs(fixed[:, j])))
        entry = fixed[pivot, j]
        if abs(entry) > 0:
            fixed[:, j] *= np.conj(entry) / abs(entry)
    return fixed


def _proven_above(stack: np.ndarray, shift) -> np.ndarray:
    """Whether LAPACK Cholesky of each matrix of ``stack`` minus shift*I (one
    shift, or one per matrix) has only finite positive pivots, from one batched
    ?potrf call.  It reads the lower triangle alone, as eigvalsh does.  A failed
    factor is NaN, and a NaN pivot passes potrf's ``<= 0`` test: every pivot is checked."""
    n = stack.shape[-1]
    a = stack.copy()
    a.reshape(-1, n * n)[:, :: n + 1] -= np.reshape(shift, (-1, 1))  # on each diagonal
    with np.errstate(all="ignore"):
        pivots = np.diagonal(_umath_linalg.cholesky_lo(a, signature="D->D", out=a), 0, -2, -1).real
    return ((pivots > 0) & (pivots < np.inf)).all(-1)


def _certificate_margin(hopping: HoppingOperator, level, perturbation=None):
    """delta = 8 n (n+1) u (scale + |level|) for the n x n fibers of ``hopping``
    plus ``perturbation``, the margin of the certificates on eigvalsh's bottom.

    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 10.3,
    which holds for any order of the inner products: Cholesky of A - sI that
    runs to completion gives L L^H = A - sI + E with |E| <= g |L| |L^H|,
    g = gamma_(n+1) <= 3 (n+1) u for complex data.  So ||E|| <= g ||L||_F^2 =
    g trace(L L^H) <= g n ||A - sI + E||, and lambda_min(A) > s - ||E|| >=
    s - 6 n (n+1) u (||A|| + |s|), with ||A|| <= scale (the fiber's
    hopping_scale() plus the perturbation's entry sum).  delta leaves
    2 n (n+1) u (scale + |s|) for the rounding of the level and of eigvalsh;
    the certificate and eigvalsh read the same rounded fiber sums.
    """
    size = hopping.geometry.cell_size
    scale = hopping.hopping_scale() + (0.0 if perturbation is None else np.abs(perturbation).sum())
    return 8 * size * (size + 1) * (np.finfo(float).eps / 2) * (scale + np.abs(level))


def zone_grid(geometry: LatticeGeometry, n: int) -> np.ndarray:
    """The n^d zone grid theta_j = j * 2pi / (n N), in meshgrid "ij" order."""
    axis = np.arange(n) * (2.0 * np.pi / geometry.N / n)
    mesh = np.meshgrid(*([axis] * geometry.d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], -1)


@functools.lru_cache  # the 128 layouts used last
def _grid_layout(geometry: LatticeGeometry, n: int, folded: bool) -> tuple[np.ndarray, ...]:
    """The bookkeeping of ``grid_band_bottom`` on the n^d ``zone_grid``, built
    once per geometry, n and folding and kept read-only, as every call that
    hits the cache shares it.

    ``solved`` is the first point of each pair {j, (-j) mod n} when folded,
    else every point, and ``pair`` each point's position in it.  ``coarse``
    and ``tested`` are the positions of the pairs whose first point lies on
    every COARSE_STRIDE-th line of each axis, and of the rest.  For each
    corner c of the coarse cell of each tested point (2^d rows, one column
    per point), ``anchor`` is the position in ``coarse`` of c's pair, or
    len(coarse) if that pair is not coarse, and ``steps`` is the sup
    distance |j - c|_inf in grid steps along the unwrapped displacement: a
    cell that runs past the last coarse point ends at the period, whose
    pair is the point 0's.
    """
    d, shape, axis = geometry.d, (n,) * geometry.d, np.arange(n)
    rep = np.arange(n**d)
    if folded:
        rep = np.minimum(rep, np.ravel_multi_index(np.ix_(*[-axis % n] * d), shape).ravel())
    first = rep == np.arange(n**d)
    solved, pair = np.flatnonzero(first), np.cumsum(first)[rep] - 1
    off_lines = functools.reduce(np.maximum, np.ix_(*[axis % COARSE_STRIDE] * d)).ravel() > 0
    coarse, tested = np.flatnonzero(~off_lines[solved]), np.flatnonzero(off_lines[solved])
    position = np.full(len(solved), len(coarse))
    position[coarse] = np.arange(len(coarse))
    ends = np.append(axis[::COARSE_STRIDE], n)  # an axis's coarse points, then the period
    at_ends = position[pair[np.ravel_multi_index(np.ix_(*[ends % n] * d), shape)]]
    # per axis a, the two cell ends (rows) of each point, viewed along axes a
    # and d + a of the (2,)*d + (n,)*d array of corners and points
    cell = np.stack([axis // COARSE_STRIDE, axis // COARSE_STRIDE + 1])
    views = [tuple(np.concatenate([1 + e, 1 + (n - 1) * e])) for e in np.eye(d, dtype=int)]
    anchor = at_ends[tuple(cell.reshape(v) for v in views)]
    steps = functools.reduce(np.maximum, [abs(axis - ends[cell]).reshape(v) for v in views])
    columns = solved[tested]
    anchor = anchor.reshape(2**d, -1)[:, columns]
    steps = steps.reshape(2**d, -1)[:, columns].astype(np.int8)  # at most COARSE_STRIDE
    layout = (zone_grid(geometry, n), solved, pair, coarse, tested, anchor, steps)
    for array in layout:
        array.setflags(write=False)
    return layout


def grid_band_bottom(
    hopping: HoppingOperator, n: int, window: float, perturbation=None
) -> tuple[np.ndarray, np.ndarray]:
    """The n^d ``zone_grid`` (read-only, shared between calls) and the band
    bottom of M (plus ``perturbation``) at every point that can lie within
    ``window`` of the grid minimum, with the bits of ``band_bottom``.

    The bottoms at every COARSE_STRIDE-th point per axis, kept there, bound the
    minimum by ``upper``.  They also anchor a lower bound: with G =
    lipschitz_bound(), a point where max_c lambda(c) - G |theta - theta_c|_inf
    - mu > upper + window, over the 2^d corners c of its coarse cell, gets
    +inf with no fiber built.  Another point where Cholesky of M - s*I, s =
    upper + window + delta, has only finite positive pivots has lambda_min >
    upper + window; it is not eigensolved and gets +inf.  delta covers that
    factorization's backward error, and mu the anchor bound's rounding
    (derived below).

    A real table and perturbation give M(-theta) = conj M(theta), and M has
    period 2pi/N per axis, so points j and (-j) mod n share a bottom: only the
    first of each pair is solved, and a coarse point whose pair's first point
    is not coarse anchors nothing.  Otherwise every point is solved.
    """
    _require_count("n", n, 1)
    if not 0 <= window < np.inf:
        raise ValueError(f"window must be finite and at least 0, got {window!r}")
    geom = hopping.geometry
    folded = hopping.real and (perturbation is None or not np.imag(perturbation).any())
    points, solved, pair, coarse, tested, anchor, steps = _grid_layout(geom, n, folded)
    values = np.full(len(solved), np.inf)
    values[coarse] = hopping.band_bottom(points[solved[coarse]], perturbation)
    level = float(values.min()) + window  # upper + window
    delta = _certificate_margin(hopping, level, perturbation)
    # mu, with u the unit roundoff, s the scale of delta and P = 2pi/N:
    # - eigvalsh at the anchor errs by <= 2n(n+1)u(s + |lambda(c)|) <= delta/2,
    #   and the bound must clear the level by 2n(n+1)u(s + |level|) <= delta/4
    #   for eigvalsh at theta to stay above it, as the Cholesky test does;
    # - each fiber entry sums <= D = len(offsets) terms a e^{-i phi}, phi =
    #   theta.m with sum_a |theta_a m_a| < 2 pi d rounded d times; with 4 ulps
    #   for cos and sin, the products, the sum and the perturbation's addition
    #   it errs by <= u(4 pi d^2 + 22 + 2D) times its terms' and P_ij's
    #   moduli, so the Hermitian matrix eigvalsh reads from the lower triangle
    #   errs in norm by <= 2u(4 pi d^2 + 22 + 2D)s; both fibers together, by
    #   <= (pi d^2 + 6 + D/2) delta;
    # - the distances steps * fl(P/n) lie within 5uP of the true ones (also
    #   for an anchor read through its pair or across the period), and G is
    #   rounded up, so with the two products and the subtractions the bound
    #   loses <= 10uGP + 2us <= (4d + 1) delta, as GP <= 2 pi d s: G is at most
    #   the entry sum of S = sum_m |m|_1 |H_m|, and |m|_1 <= dN.
    # As delta >= 16us, mu = (8 + 4d(d + 1) + D) delta covers the sum.
    mu = (8 + 4 * geom.d * (geom.d + 1) + len(hopping.offsets)) * delta
    # a pair with no value yet anchors at -inf, and a NaN anchor gives a NaN
    # bound: neither clears a point
    anchors = np.append(values[coarse] - mu, -np.inf)[anchor]
    slope = hopping.lipschitz_bound() * (2.0 * np.pi / geom.N / n)
    rest = tested[~((anchors - slope * steps).max(0) > level)]
    shift = level + delta
    values[rest] = hopping.band_bottom(
        points[solved[rest]], perturbation, lambda stack, _: _proven_above(stack, shift)
    )
    return points, values[pair]


def scan_theta_set(
    hopping: HoppingOperator,
    grid_per_dim: int = DEFAULT_GRID_PER_DIM,
    refinements: int = DEFAULT_REFINEMENTS,
    tol_theta: float = DEFAULT_TOL_THETA,
    tol_shift: float | None = None,
) -> ThetaSet:
    """Locate the minimizer set of the lowest band over [0, 2pi/N)^d.

    A coarse grid scan (``grid_band_bottom`` with window tol_theta: a point
    its anchor bound or Cholesky test proves more than tol_theta above the
    grid minimum is +inf) keeps the points within tol_theta of the grid
    minimum and clusters them once: in (value, theta) order each joins the
    first cluster with a grid neighbour among its members (sup-torus distance
    one spacing), else heads a new one.  Each round then halves the spacing
    and moves every head to the lowest of its 3^d neighbours, the centre
    first so a tie stays put: a compass search, all heads in one batch.  Runs
    the requested number of rounds and keeps refining until the per-round
    improvement of the minimum drops below tol/4; raises ConvergenceError if
    that has not happened after MAX_REFINEMENTS rounds.  The heads within
    tol_theta of the final minimum are the minimizers.

    With ``tol_shift`` the same scan also zeroes the band bottom: it refines
    to tol = min(tol_shift, tol_theta), and if |E0| > tol_shift the result
    carries the operator shifted by E0 and E0 re-evaluated on it at the
    minimizers.  Without it tol = tol_theta.
    """
    _require_count("grid_per_dim", grid_per_dim, 1)
    _require_count("refinements", refinements, 0)
    if refinements > MAX_REFINEMENTS:
        raise ValueError(f"refinements must be <= {MAX_REFINEMENTS}, got {refinements}")
    for name, value in (("tol_theta", tol_theta), ("tol_shift", tol_shift)):
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    tol = tol_theta if tol_shift is None else min(tol_shift, tol_theta)
    geom = hopping.geometry
    width = 2.0 * np.pi / geom.N
    spacing = width / grid_per_dim
    points, values = grid_band_bottom(hopping, grid_per_dim, tol_theta)
    minimum = float(values.min())
    steps = np.array(list(itertools.product((0, -1, 1), repeat=geom.d)))  # centre first
    near = np.flatnonzero(values <= minimum + tol_theta)
    near = near[np.argsort(values[near], kind="stable")]  # (value, theta) order
    shape = (grid_per_dim,) * geom.d
    cells = zip(np.unravel_index(near, shape), steps.T)
    neighbours = np.ravel_multi_index(tuple(c[:, None] + s for c, s in cells), shape, mode="wrap")
    cluster: dict[int, int] = {}  # grid index -> cluster id, the index of its head
    heads: list[int] = []
    for j, around in zip(near.tolist(), neighbours.tolist()):
        cluster[j] = min((cluster[k] for k in around if k in cluster), default=len(heads))
        if cluster[j] == len(heads):
            heads.append(j)
    heads, lowest = points[heads], values[heads]
    rounds, improvement = 0, np.inf
    while rounds < refinements or improvement > tol / 4:
        if rounds == MAX_REFINEMENTS:
            raise ConvergenceError(
                f"minimum still improving by {improvement:.3e} (> {tol / 4:.3e}) "
                f"after {rounds} refinement rounds"
            )
        spacing /= 2.0
        rounds += 1
        trial = np.mod(heads[:, None, :] + steps * spacing, width)
        trial_values = hopping.band_bottom(trial.reshape(-1, geom.d)).reshape(len(heads), -1)
        best = (np.arange(len(heads)), trial_values.argmin(1))
        heads, lowest = trial[best], trial_values[best]
        improvement = minimum - float(lowest.min())
        minimum = min(minimum, float(lowest.min()))
    kept = sorted(heads[lowest <= minimum + tol_theta], key=tuple)
    if tol_shift is not None and abs(minimum) > tol_shift:
        hopping = hopping.shifted(minimum)
        minimum = float(hopping.band_bottom(np.array(kept)).min())
    return ThetaSet(tuple(kept), minimum, spacing, hopping)


def ground_space(
    hopping: HoppingOperator,
    theta,
) -> GroundSpaceData:
    """Eigendata of the fiber at theta with the near-degenerate ground cluster."""
    fiber = build_floquet(hopping, theta)
    eigenvalues, vectors = fiber_eigh(fiber)
    tol_deg = max(1e-10, 1e-8 * float(np.abs(eigenvalues).max()))
    p = int(np.count_nonzero(eigenvalues <= eigenvalues[0] + tol_deg))
    basis = _fix_phases(vectors[:, :p])
    gap = None if p == len(eigenvalues) else float(eigenvalues[p] - eigenvalues[0])
    return GroundSpaceData(
        theta=np.asarray(theta, dtype=float),
        eigenvalues=eigenvalues,
        p=p,
        basis=basis,
        gap=gap,
        fiber=fiber,
        eigenvectors=vectors,
    )
