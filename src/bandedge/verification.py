"""Independent numerical oracles for the predicted spectral-edge bounds.

Everything here recomputes spectra from scratch (finite tori, truncated trial
states, coupling sweeps) so that the perturbation-theory coefficients are
checked against brute force rather than against themselves.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .floquet import GroundSpaceData, build_floquet, grid_band_bottom
from .floquet import _certificate_margin, _proven_above
from .model import (
    SAMPLER_CONSTANT,
    SAMPLER_ENDPOINT,
    SAMPLER_UNIFORM,
    ConvergenceError,
    DisorderSupport,
    HoppingOperator,
    SingleCellPotential,
    _require_count,
    _require_epsilon,
    preset_model,
)
from .perturbation import (
    CASE_LINEAR,
    CASE_NO_MOTION,
    CASE_QUADRATIC,
    EdgeCoefficients,
    edge_bound,
    perron_frobenius_check,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_SITE_CUTOFF = 4096
# past the cutoff sigma sits this share of ||H - H_avg|| below lambda_min(H_avg): of 0, 0.1,
# 0.3 and 1 it takes the fewest LOBPCG steps on random couplings, and 0 can exhaust the budget
PRECONDITIONER_SHIFT = 0.1
MAX_ITERATIONS = 1000  # LOBPCG steps before the solve is given up
SLACK_FACTOR = 1.25  # sweep residuals may exceed the fitted remainder by this factor


@dataclass(frozen=True)
class FiberMinResult:
    epsilon: float
    q_star: float
    value: float


@dataclass(frozen=True)
class BoxSpectrumSample:
    omega: np.ndarray
    lambda_min: float


@dataclass(frozen=True)
class ExponentFit:
    eta: float
    prefactor: float
    r_squared: float
    excluded: int = 0


def fiber_min_over_q(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    disorder: DisorderSupport,
    theta,
    epsilon: float,
) -> FiberMinResult:
    """Minimum over the coupling support of the perturbed fiber bottom.

    lambda_min(M + eps q V) is the minimum over unit v of a function affine in
    q, hence concave in q: its minimum over [s_minus, s_plus] sits at an
    endpoint, and only the two endpoints are solved. eigvalsh reads the lower
    triangle alone, so the family it solves is Hermitian and affine for any input.
    """
    _require_epsilon(epsilon)
    return _endpoint_minima(build_floquet(hopping, theta).matrix, potential, disorder, [epsilon])[0]


def _endpoint_minima(base, potential, disorder, epsilons) -> list[FiberMinResult]:
    """``fiber_min_over_q`` on the fiber ``base`` at each epsilon, all endpoint
    matrices in one eigvalsh, which solves each with the bits of a lone call."""
    couplings = np.outer(np.asarray(epsilons, dtype=float), [disorder.s_minus, disorder.s_plus])
    stack = base + couplings.reshape(-1, 1, 1) * potential.matrix
    bottoms = np.linalg.eigvalsh(stack)[:, 0].reshape(-1, 2).tolist()
    return [
        FiberMinResult(e, *((disorder.s_minus, lo) if lo <= hi else (disorder.s_plus, hi)))
        for e, (lo, hi) in zip(epsilons, bottoms)
    ]


@dataclass(frozen=True)
class SandwichRow:
    epsilon: float
    value: float
    predicted: float
    residual: float
    lower_ok: bool
    upper_ok: bool


@dataclass(frozen=True)
class SandwichReport:
    case: str
    C: float
    remainder_power: float | None
    rows: tuple[SandwichRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.lower_ok and r.upper_ok for r in self.rows)


def fiber_bound_sandwich(
    potential: SingleCellPotential,
    disorder: DisorderSupport,
    ground: GroundSpaceData,
    coeffs: EdgeCoefficients,
    epsilon_list,
) -> SandwichReport:
    """Check the coupling-swept fiber bottom at ``ground.theta`` against the
    expansion ``coeffs`` predicts there: ``ground.e0`` plus its edge motion.
    It solves from ``ground.fiber``, with the bits of ``fiber_min_over_q``.

    The remainder constant C is fitted from the two largest positive epsilons
    (where the remainder dominates rounding; 0 when there are none); every
    epsilon must then stay within C * SLACK_FACTOR times the remainder power,
    so residuals decaying at the predicted order or faster pass. NoMotion
    predicts no shift: only the lower side is checked, to a rounding floor.
    """
    epsilons = sorted(float(e) for e in epsilon_list)
    if not epsilons:
        raise ValueError("epsilon_list is empty: the sweep would pass vacuously")
    for e in epsilons:
        _require_epsilon(e)
    power = {CASE_LINEAR: 1.5, CASE_QUADRATIC: 3.0, CASE_NO_MOTION: None}[coeffs.case]

    results = _endpoint_minima(ground.fiber.matrix, potential, disorder, epsilons)
    predicted = [ground.e0 + edge_bound(coeffs, e) for e in epsilons]
    residuals = [r.value - p for r, p in zip(results, predicted)]

    floor = 1e-12 * (1.0 + abs(ground.e0))
    fitted = [(r.epsilon, res) for r, res in zip(results, residuals) if r.epsilon > 0][-2:]
    C = 0.0 if power is None else max((abs(res) / e**power for e, res in fitted), default=0.0)
    rows = []
    for r, p, res in zip(results, predicted, residuals):
        slack = floor if power is None else SLACK_FACTOR * C * r.epsilon**power + floor
        rows.append(
            SandwichRow(
                epsilon=r.epsilon,
                value=r.value,
                predicted=p,
                residual=res,
                lower_ok=res >= -slack,
                upper_ok=power is None or res <= slack,
            )
        )
    return SandwichReport(coeffs.case, C, power, tuple(rows))


def _window_quotients(
    hopping: HoppingOperator, potential: SingleCellPotential, coupling: float, parts, n_list
) -> np.ndarray:
    """Rayleigh quotients of H0 + coupling * (potential in every cell) for
    u = sum_a c_a ext(u0_a, theta_a), one term per part (c, theta, u0), cut to
    n^d cells, for each n in n_list; ext(u0, theta) is u0 e^{-i N theta.c} in cell c.

    A hop by m = N t joins the cells c and c + t both in the window, per axis
    c = lo, ..., hi - 1 with lo = max(0, -t), hi = n - max(0, t), so
    <u_a, H u_b> = sum_m e^{-i theta_b.m} (u0_a^H H_m u0_b) prod_axes sum_c z^c
    with z = e^{i phi}, phi = N (theta_a - theta_b); the potential and the norm
    take t = 0. Each sum is z^lo expm1(i phi (hi - lo)) / expm1(i phi), or the
    count (n - |t|)+ when phi = 0: the cost does not grow with n.
    """
    geom = hopping.geometry
    c, thetas, u0 = (np.array(x) for x in zip(*parts))
    shifts = np.vstack([np.zeros(geom.d), hopping.offsets / geom.N])  # row 0: t = 0
    lo = np.maximum(-shifts, 0.0)
    count = np.maximum(np.reshape(n_list, (-1, 1, 1, 1, 1)) - np.abs(shifts), 0.0)
    phi = geom.N * (thetas[:, None] - thetas[None, :])[:, :, None, :]  # (a, b, 1, axis)
    flat = phi == 0.0
    ratio = np.exp(1j * phi * lo) * np.expm1(1j * phi * count) / np.expm1(1j * (phi + flat))
    weights = np.where(flat, count, ratio).prod(axis=-1)  # (n, a, b, t = 0 then each m)
    forms = np.einsum("ai,mij,bj->abm", u0.conj(), hopping.blocks, u0)
    energy = (weights[..., 1:] * forms * np.exp(-1j * thetas @ hopping.offsets.T)).sum(-1)
    energy += coupling * weights[..., 0] * (u0.conj() @ potential.matrix @ u0.T)
    pair = c.conj()[:, None] * c
    norm = (pair * weights[..., 0] * (u0.conj() @ u0.T)).sum((1, 2)).real
    return (pair * energy).sum((1, 2)).real / norm


def _cell_vector(u0, cell_size: int) -> np.ndarray:
    """``u0`` as a complex array, refused unless finite and nonzero with ``cell_size`` entries."""
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (cell_size,) or not (np.isfinite(u0).all() and u0.any()):
        raise ValueError(f"u0 must be a nonzero cell vector of {cell_size} finite entries: {u0}")
    return u0


def _require_coupling(epsilon: float, q: float | None) -> None:
    _require_epsilon(epsilon)
    if q is not None and not np.isfinite(q):
        raise ValueError(f"coupling q must be finite, got {q!r}")


def quasiperiodic_rayleigh(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    q: float,
    epsilon: float,
    theta,
    u0,
    n_list,
) -> list[float]:
    """Rayleigh quotients of truncated quasi-periodic extensions of a cell vector.

    The extension obeys u(x + k) = e^{-i theta.k} u(x) for sublattice shifts k
    and is cut to a window of n cells per dimension; the quotients converge to
    the fiber quotient at rate O(1/n).
    """
    _require_coupling(epsilon, q)
    geom = hopping.geometry
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (geom.d,):
        raise ValueError(f"theta must have shape ({geom.d},), got {theta.shape}")
    hopping._require_finite_phases(theta[None], "theta")
    u0 = _cell_vector(u0, geom.cell_size)
    n_list = [int(n) for n in n_list]
    if any(not 1 <= n <= 2**53 for n in n_list):
        raise ValueError(f"window sizes in n_list must be positive and at most 2^53, got {n_list}")
    return _window_quotients(hopping, potential, epsilon * q, [(1.0, theta, u0)], n_list).tolist()


def fiber_quotient(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    q: float,
    epsilon: float,
    theta,
    u0,
) -> float:
    """The limiting value of quasiperiodic_rayleigh for the same data."""
    _require_coupling(epsilon, q)
    u0 = _cell_vector(u0, hopping.geometry.cell_size)
    matrix = build_floquet(hopping, theta).matrix + epsilon * q * potential.matrix
    return float(np.vdot(u0, matrix @ u0).real / np.vdot(u0, u0).real)


def _draw_couplings(
    disorder: DisorderSupport, n_cells: int, sampler: str, seed, q: float | None
) -> np.ndarray:
    if sampler == SAMPLER_CONSTANT:
        return np.full(n_cells, float(q))
    rng = np.random.default_rng(seed)
    if sampler == SAMPLER_ENDPOINT:
        # rng.choice's draw and its values, without its overhead
        return np.array([disorder.s_minus, disorder.s_plus])[rng.integers(0, 2, size=n_cells)]
    if sampler == SAMPLER_UNIFORM:
        return rng.uniform(disorder.s_minus, disorder.s_plus, size=n_cells)
    raise ValueError(f"unknown sampler {sampler!r}")


@dataclass(frozen=True, eq=False)
class TorusStructure:
    """What every disorder sample on one torus shares (see ``torus_structure``):
    the CSR pattern of hopping plus potential, holding the hopping values, and
    the value and CSR slot of each nonzero potential entry in every cell."""

    hopping: HoppingOperator
    potential: SingleCellPotential
    L: int
    pattern: sp.csr_matrix
    values: np.ndarray  # the nonzero V[a, b], in the pattern's dtype
    slots: np.ndarray  # (len(values), L^d), all distinct: one site pair per entry and cell

    def fill(self, epsilon: float, omega) -> sp.csr_matrix:
        """The torus with couplings ``epsilon * omega``. It shares the index
        arrays of ``pattern``, so neither may change them in place."""
        import scipy.sparse as sp

        pattern = self.pattern
        data = pattern.data.copy()
        data[self.slots] += self.values[:, None] * (epsilon * np.asarray(omega))
        return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)

    @functools.cached_property
    def band(self) -> tuple[np.ndarray, ...]:
        """The layout of the banded solver, built on first use: the reverse
        Cuthill-McKee ``order`` of the pattern; ``base``, the hopping values as
        the lower band ``base[i - j, j]`` of the reordered torus; the flat index
        into ``base`` of each potential slot on or below the diagonal, with its
        value and cell (a slot above it holds the conjugate of one below); the
        row of each entry of ``base[1:]``, for row sums; and the seeded start
        vector of the inverse iteration. ``base`` and ``start`` are read-only."""
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        pattern = self.pattern
        n = pattern.shape[0]
        order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        rank = np.argsort(order)  # the inverse permutation
        rows = rank[np.repeat(np.arange(n), np.diff(pattern.indptr))]
        cols = rank[pattern.indices]
        lower = rows >= cols
        b = int((rows - cols)[lower].max(initial=0))
        flat = (rows - cols) * n + cols  # each slot's base[i - j, j], where lower holds
        base = np.zeros((b + 1, n), dtype=pattern.dtype)
        base.flat[flat[lower]] = pattern.data[lower]
        entry, cell = np.nonzero(lower[self.slots])
        # base[k, j] is H[j + k, j]; past row n - 1 the band holds zeros
        below = np.minimum(np.arange(1, b + 1)[:, None] + np.arange(n), n - 1).ravel()
        start = np.random.default_rng(0).standard_normal(n).astype(pattern.dtype)
        base.flags.writeable = start.flags.writeable = False
        return order, base, flat[self.slots[entry, cell]], self.values[entry], cell, below, start


def _require_finite(hopping: HoppingOperator, potential: SingleCellPotential) -> None:
    if not (np.isfinite(hopping.blocks).all() and np.isfinite(potential.matrix).all()):
        raise ValueError("hopping amplitudes and potential entries must be finite")


def torus_structure(
    hopping: HoppingOperator, potential: SingleCellPotential, L: int
) -> TorusStructure:
    """The coupling-independent part of the operator on a torus of L^d cells
    with periodic boundary. Its matrices are float64 when every hopping
    amplitude and every potential entry is real, and complex otherwise. A
    non-finite amplitude or entry raises ``ValueError`` before anything is built.
    """
    _require_finite(hopping, potential)
    import scipy.sparse as sp  # here, not at module top: only torus work needs scipy
    geom = hopping.geometry
    d, N = geom.d, geom.N
    n_sites = (L * N) ** d
    # cell corners in the order of omega: lexicographic over the L^d cells
    corners = N * np.indices((L,) * d).reshape(d, 1, -1)

    def site_ids(offsets) -> np.ndarray:
        """Torus site ids of corner + offset, shape (len(offsets), L^d)."""
        shifted = corners + np.asarray(offsets, dtype=int).reshape(-1, d).T[:, :, None]
        return np.ravel_multi_index(tuple(shifted), (L * N,) * d, mode="wrap")

    table = hopping.coefficients
    amplitudes = np.array(list(table.values()), dtype=complex)
    a, b = np.nonzero(potential.matrix)
    cell = np.array(geom.cell_sites())
    # one row of sites per hop, then one per nonzero potential entry
    rows = site_ids([k for k, _, _ in table] + cell[a].tolist())
    cols = site_ids([np.add(kp, m) for _, kp, m in table] + cell[b].tolist())
    data = np.zeros(rows.shape, dtype=complex)
    data[: len(table)] = amplitudes[:, None]
    values = potential.matrix[a, b]
    if not (amplitudes.imag.any() or values.imag.any()):
        data, values = data.real, values.real
    # wraparound at L = 1, 2 folds distinct hops onto the same entry; the COO
    # to CSR conversion sums the duplicates
    pattern = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), (n_sites,) * 2).tocsr()
    # the CSR slots run row by row with sorted columns: row * n + column increases
    keys = np.repeat(np.arange(n_sites), np.diff(pattern.indptr)) * n_sites + pattern.indices
    slots = np.searchsorted(keys, rows[len(table) :] * n_sites + cols[len(table) :])
    return TorusStructure(hopping, potential, L, pattern, values, slots)


def assemble_torus(
    hopping: HoppingOperator, potential: SingleCellPotential, epsilon: float, L: int, omega
) -> sp.csr_matrix:
    """The random operator on a torus of L^d cells with periodic boundary and
    couplings ``epsilon * omega``: ``torus_structure`` then its ``fill``."""
    return torus_structure(hopping, potential, L).fill(epsilon, omega)


def _shifted_cholesky(band: np.ndarray, shift: float) -> np.ndarray | None:
    """LAPACK ?pbtrf factor of ``band - shift*I``, or None when that matrix is
    not positive definite, which means ``shift >= lambda_min``."""
    import scipy.linalg as sla

    shifted = band.copy()
    shifted[0] -= shift
    factor, info = sla.get_lapack_funcs("pbtrf", (band,))(shifted, lower=1, overwrite_ab=1)
    return None if info else factor


def _norm(x: np.ndarray):
    """np.linalg.norm of a vector by numpy's own arithmetic, without its overhead."""
    if x.dtype.kind == "c":
        return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(x.dot(x))


def _banded_lowest(
    structure: TorusStructure, epsilon: float, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The torus ``structure.fill(epsilon, omega)`` as its lower band in the
    structure's reverse Cuthill-McKee order, filled straight from the slots;
    its lowest eigenvector in that order; and the bound ``scale`` on its norm.
    See README, ``bandedge.verification``."""
    import scipy.linalg as sla

    _, base, slots, values, cells, below, start = structure.band
    b, n = len(base) - 1, base.shape[1]
    band = base.copy()
    band.reshape(-1)[slots] += values * (epsilon * omega)[cells]  # fill's arithmetic, its bits
    # Gershgorin radii: row i's off-diagonal entries are H[i, i - k] = band[k, i - k] and,
    # by Hermitian symmetry, H[i, i + k] = conj band[k, i]
    magnitudes = np.abs(band)
    radii = np.bincount(below, magnitudes[1:].ravel(), n) + magnitudes[1:].sum(0)
    scale = float((magnitudes[0] + radii).max())
    x = np.zeros(n, dtype=band.dtype)
    if b == 0:  # a diagonal torus, such as one site: its lowest unit vector is exact
        x[np.argmin(band[0].real)] = 1.0
    else:
        pbtrs = sla.get_lapack_funcs("pbtrs", (band,))
        lo = float((band[0].real - radii).min()) - 1e-10 * scale  # below Gershgorin's bound
        hi = float(band[0].real.min())  # a Rayleigh quotient
        factor, failed = _shifted_cholesky(band, lo), False
        if factor is None:
            raise ConvergenceError(f"Cholesky below the Gershgorin bound failed on {n} sites")
        y = start
        for _ in range(100):  # a budget: an unconverged iterate fails the certificate
            for _ in range(2):
                x = y / _norm(y)
                y = pbtrs(factor, x, lower=1)[0]
            # (H - lo) y = x gives the Rayleigh quotient lo + mu of y and its
            # residual without a product with H
            mu = np.vdot(y, x).real / np.vdot(y, y).real
            residual = _norm(x - mu * y) / _norm(y)
            if not residual > 1e-13 * scale:  # converged, or NaN: the certificate decides
                break
            hi = min(hi, lo + mu)
            shift = lo + mu - residual  # rho - r, else bisect: see README
            if failed or shift >= hi:
                shift = 0.5 * (lo + hi)
            if shift > lo:
                better = _shifted_cholesky(band, shift)
                failed = better is None
                if failed:
                    hi = shift
                else:
                    factor, lo = better, shift
        x = y / _norm(y)
    return x, band, scale


def _shifted_inverses(symbol: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """``(S - shift*I)^-1`` of each Hermitian block ``S = symbol[:, :, j]`` by
    Gauss-Jordan without pivoting, and whether its pivots, the D of LDL^H, were
    all positive: by Sylvester's law of inertia, whether ``shift < lambda_min(S)``."""
    a = symbol - shift * np.eye(len(symbol)).reshape(symbol.shape[:2] + (1,) * (symbol.ndim - 2))
    above = np.ones(symbol.shape[2:], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(len(a)):
            pivot = a[k, k].copy()
            above &= pivot.real > 0  # a NaN after a failed pivot compares False
            a[k] /= pivot
            column = a[:, k].copy()
            column[k], a[:, k], a[k, k] = 0.0, 0.0, 1.0 / pivot
            a -= column[:, None] * a[k][None]
    return a, above


def _translation_average(
    structure: TorusStructure, matrix: sp.csr_matrix, epsilon: float, omega, scale: float
):
    """The preconditioner ``x -> (H_avg - sigma)^-1 x`` of the torus ``matrix`` = H, its
    shift sigma and the Weyl bound ``lambda_min(H_avg) + ||H - H_avg||_inf >= lambda_min(H)``.
    H_avg, every coupling at the mean of ``omega``, is block-diagonalised by the FFT over
    the cells; its Bloch symbol is read off its CSR."""
    import numpy.fft as fft  # here, not at module top: ``import numpy`` does not load it

    geom = structure.hopping.geometry
    d, N, L, n = geom.d, geom.N, structure.L, matrix.shape[0]
    average = structure.fill(epsilon, float(np.mean(omega)))
    distance = float(np.bincount(matrix.indices, np.abs(matrix.data - average.data), n).max())
    # site vectors have axes (c_1, k_1, ..., c_d, k_d); blocks put all k first
    split, blocks, axes = (L, N) * d, (N**d,) + (L,) * d, tuple(range(1, d + 1))
    to_blocks = [*range(1, 2 * d, 2), *range(0, 2 * d, 2)]
    # h[k', k, c] = H_avg[(c, k'), (0, k)] from the columns of cell 0's sites,
    # the conjugates of their rows; its FFT over c is the symbol S[:, :, j]
    ids = np.ravel_multi_index(np.indices((N,) * d).reshape(d, -1), (L * N,) * d)
    columns = average[ids].toarray().conj().reshape((-1,) + split)
    h = columns.transpose([0] + [1 + a for a in to_blocks]).reshape((-1,) + blocks).swapaxes(0, 1)
    # a real torus has S[:, :, -j] = conj S[:, :, j]: its FFTs keep half the last axis
    forward, backward = (fft.rfftn, fft.irfftn) if h.dtype.kind == "f" else (fft.fftn, fft.ifftn)
    symbol = forward(h, axes=tuple(a + 1 for a in axes))

    def bottom(stack: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(np.moveaxis(stack, (0, 1), (-2, -1)))[..., 0].min())

    # an upper bound from every 8th block per axis; a block below the shift it
    # gives fails a pivot, and the lowest of those blocks is the lowest of all
    below = PRECONDITIONER_SHIFT * distance + 1e-9 * scale  # how far sigma sits below
    lowest = bottom(symbol[(slice(None),) * 2 + (slice(None, None, 8),) * d])
    inverse, above = _shifted_inverses(symbol, lowest - below)
    if not above.all():
        lowest = min(lowest, bottom(symbol[:, :, ~above]))
        inverse = _shifted_inverses(symbol, lowest - below)[0]

    def precondition(x: np.ndarray) -> np.ndarray:
        spectral = forward(x.reshape(split).transpose(to_blocks).reshape(blocks), axes=axes)
        y = backward(np.einsum("ij...,j...->i...", inverse, spectral), (L,) * d, axes=axes)
        return y.reshape((N,) * d + (L,) * d).transpose(np.argsort(to_blocks)).reshape(n)

    return precondition, lowest - below, lowest + distance


def _lobpcg_lowest_vector(matrix: sp.csr_matrix, precondition, scale: float) -> np.ndarray:
    """Lowest eigenvector of a Hermitian torus by single-vector LOBPCG (Knyazev, SIAM J.
    Sci. Comput. 23, 2001) on an orthonormal basis [x, w, p] (Hetmaniuk & Lehoucq, J.
    Comput. Phys. 218, 2006)."""
    n = matrix.shape[0]
    basis = np.empty((3, n), dtype=matrix.dtype)  # orthonormal rows: x, then p and w if kept
    images = np.empty_like(basis)  # the torus times each row
    basis[0] = np.random.default_rng(0).standard_normal(n)
    basis[0] /= _norm(basis[0])

    def extend(rows: int, v: np.ndarray, image: np.ndarray | None) -> int:
        size = _norm(v)  # orthonormalise v against the first rows: Gram-Schmidt, twice
        for _ in range(2):
            c = basis[:rows].conj() @ v
            v, image = v - c @ basis[:rows], None if image is None else image - c @ images[:rows]
        rest = _norm(v)
        kept = rest > 1e-12 * size  # else v was (nearly) in their span, or NaN
        if kept:
            basis[rows] = v / rest
            images[rows] = matrix @ basis[rows] if image is None else image / rest
        return rows + kept

    rows = 1
    for _ in range(MAX_ITERATIONS):
        x = basis[0]
        images[0] = matrix @ x  # afresh: the stopping test sees the true residual
        r = images[0] - np.vdot(x, images[0]).real * x
        if not _norm(r) > 1e-12 * scale:  # converged (the zero torus at once), or NaN
            return x.copy()
        rows = extend(rows, precondition(r), None)
        # Rayleigh-Ritz: x is the lowest Ritz vector, p its part off the old x
        c = np.linalg.eigh(basis[:rows].conj() @ images[:rows].T)[1][:, 0]
        x, p, hp = c @ basis[:rows], c[1:] @ basis[1:rows], c[1:] @ images[1:rows]
        basis[0], images[0] = x / _norm(x), (c @ images[:rows]) / _norm(x)
        rows = extend(1, p, hp)
    raise ConvergenceError(f"iterative eigensolver failed on {n} sites")


def box_min_eig(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    disorder: DisorderSupport,
    epsilon: float,
    L: int,
    sampler: str = SAMPLER_ENDPOINT,
    seed=0,
    q: float | None = None,
    dense_cutoff: int = DENSE_SITE_CUTOFF,
    *,
    structure: TorusStructure | None = None,
) -> BoxSpectrumSample:
    """Certified smallest eigenvalue of the torus ``structure.fill(epsilon, omega)``
    (``structure`` defaults to ``torus_structure(hopping, potential, L)``): a Rayleigh
    quotient with residual at most ``1e-10*scale``, shown lowest by a banded Cholesky
    factor up to ``dense_cutoff`` sites and by the Weyl bound past it, else
    ``ConvergenceError``. Bad input raises ``ValueError`` before any structure is
    built. See README, ``bandedge.verification``."""
    _require_count("L", L, 1)
    _require_coupling(epsilon, q)
    if (q is None) == (sampler == SAMPLER_CONSTANT):
        raise ValueError(f"sampler {sampler!r} {'needs' if q is None else 'takes no'} q")

    omega = _draw_couplings(disorder, L**hopping.geometry.d, sampler, seed, q)
    if structure is None:
        _require_finite(hopping, potential)
        structure = torus_structure(hopping, potential, L)
    elif not (
        structure.hopping is hopping and structure.potential is potential and structure.L == L
    ):
        raise ValueError("structure was built for another hopping, potential or L")

    if structure.pattern.shape[0] <= max(dense_cutoff, 1):  # one site is banded: LOBPCG needs two
        import scipy.linalg as sla

        vec, band, scale = _banded_lowest(structure, epsilon, omega)
        product = sla.get_blas_funcs("sbmv" if band.dtype.kind == "f" else "hbmv", (band,))
        image, weyl = product(len(band) - 1, 1.0, band, vec, lower=1), np.inf
    else:
        matrix = structure.fill(epsilon, omega)
        # the inf-norm bounds the operator norm; a Hermitian torus's column sums are its row sums
        scale = float(np.bincount(matrix.indices, np.abs(matrix.data)).max(initial=0.0))
        precondition, _, weyl = _translation_average(structure, matrix, epsilon, omega, scale)
        vec, band = _lobpcg_lowest_vector(matrix, precondition, scale), None
        image = matrix @ vec
    bound = 1e-10 * max(scale, 1e-300)
    lam = float(np.vdot(vec, image).real / np.vdot(vec, vec).real)
    residual = float(np.linalg.norm(image - lam * vec))
    if not residual <= bound:  # a NaN residual fails too
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds certificate bound")
    if lam > weyl + bound or (band is not None and _shifted_cholesky(band, lam - bound) is None):
        raise ConvergenceError(f"Rayleigh quotient {lam!r} is not the lowest eigenvalue")
    return BoxSpectrumSample(omega=omega, lambda_min=lam)


def torus_dual_minimum(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    epsilon: float,
    q: float,
    L: int,
) -> float:
    """Fiber-decomposition value of the constant-coupling torus bottom.

    The torus of L^d cells is exactly the direct sum of fibers on the dual
    grid theta_j = 2 pi j / (L N), which ``grid_band_bottom`` solves with
    window 0: a point its anchor bound or Cholesky test proves above the
    minimum is +inf and not eigensolved, so the minimum keeps its bits.
    """
    _require_count("L", L, 1)
    _require_coupling(epsilon, q)
    return float(grid_band_bottom(hopping, L, 0.0, epsilon * q * potential.matrix)[1].min())


def fit_exponent(epsilons, values) -> ExponentFit:
    """Least-squares slope of log(-value) against log(epsilon), over epsilon > 0."""
    epsilons = np.asarray(list(epsilons), dtype=float)
    values = np.asarray(list(values), dtype=float)
    positive = epsilons > 0
    usable = positive & (values < 0)
    excluded, bad_eps = int(np.count_nonzero(~usable)), int(np.count_nonzero(~positive))
    if excluded:
        counts = {"nonnegative value(s)": excluded - bad_eps, "point(s) at epsilon <= 0": bad_eps}
        dropped = " and ".join(f"{n} {kind}" for kind, n in counts.items() if n)
        warnings.warn(f"fit_exponent: excluded {dropped}", stacklevel=2)
    if usable.sum() < 3:
        raise ValueError(f"need at least 3 negative values to fit, have {usable.sum()}")
    x = np.log(epsilons[usable])
    y = np.log(-values[usable])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ExponentFit(
        eta=float(slope), prefactor=float(np.exp(intercept)), r_squared=r2, excluded=excluded
    )


QUARTIC_TRIAL_K = 4.0


def quartic_required_n(epsilon: float, xi: float) -> int:
    """Default window, in cells, for the quartic trial state: ceil(K e^-(1+2xi)),
    e = max(eps, 1e-6), and at least 1; ValueError past 2^53 cells, the
    counts float64 holds exactly.

    The sharp cut at the window ends adds about 4/(3K) eps^(1+2xi) to the
    quotient, a third of eps^(1+2xi) at K = QUARTIC_TRIAL_K = 4. That is twice
    the (1/6) eps^(1+2xi) target, so this window does not make truncation
    negligible; the cost falls only as 1/K.
    """
    with np.errstate(over="ignore"):
        cells = np.ceil(QUARTIC_TRIAL_K * np.float64(max(epsilon, 1e-6)) ** -(1.0 + 2.0 * xi))
    if not cells <= 2.0**53:
        raise ValueError(f"the window for epsilon={epsilon!r}, xi={xi!r} exceeds 2^53 cells")
    return max(int(cells), 1)


def quartic_trial_energy(epsilon: float, xi: float, n: int | None = None) -> float:
    """Rayleigh quotient of the two-momentum trial state for the quartic model.

    The trial state superposes the theta = 0 ground state and an
    epsilon^xi-weighted copy at theta = epsilon^xi, truncated to n cells, with
    constant coupling q = 1.
    """
    if not 0.25 < xi < np.inf:
        raise ValueError(f"xi must exceed 1/4 and be finite, got {xi!r}")
    _require_epsilon(epsilon)
    with np.errstate(over="ignore"):  # for eps >= 1 this also bounds eps^xi
        if not np.isfinite(np.float64(epsilon) ** (1.0 + 2.0 * xi)):
            raise ValueError(f"eps^(1+2xi) overflows at epsilon={epsilon!r}, xi={xi!r}")
    required = quartic_required_n(epsilon, xi)
    n = required if n is None else n
    _require_count("n", n, 1)
    if n > 2**53:
        raise ValueError(f"n must be at most 2^53 cells, got {n!r}")
    if epsilon > 0 and n < required:
        raise ValueError(
            f"n={n} too small for epsilon={epsilon}, xi={xi}: the window cut adds "
            f"more than {4.0 / (3.0 * QUARTIC_TRIAL_K):.3g} eps^(1+2xi) to the quotient; "
            f"need n >= {required}"
        )

    hopping, potential, _ = preset_model("quartic")
    eta = epsilon**xi
    # the ground fiber state (1, e^{-i theta}, e^{-2i theta}) extended by
    # u(x + 3) = e^{-3 i theta} u(x): the plane wave e^{-i theta x}. Left
    # unnormalised, the theta = 0 forms are exact and their O(n) sum cancels.
    parts = [(c, [theta], np.exp(-1j * theta * np.arange(3))) for c, theta in ((1, 0), (eta, eta))]
    return float(_window_quotients(hopping, potential, epsilon * 1.0, parts, [n])[0])


KS_SLACK = 1e-9  # band motion may leave the Kirsch-Simon sandwich by this much


def _ks_dispersion(thetas: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Folded free dispersion at each row of ``thetas`` (shape (b, d)), and
    kappa = theta + 2 pi b* / N on the branch b* that attains the fold.

    The fold over the N^d branches theta + 2 pi b / N of a sum over axes is the
    sum of per-axis minima, b* the first minimal b_a per axis: rounded addition
    is monotone, so the sum in axis order has the bits of the least branch sum.
    """
    shifted = thetas[:, :, None] + 2.0 * np.pi * np.arange(N) / N  # (b, d, N)
    per_axis = 2.0 * (1.0 - np.cos(shifted))
    best = per_axis.argmin(axis=2)[:, :, None]
    folded = np.take_along_axis(per_axis, best, 2)[:, :, 0]
    return np.sum(folded, axis=1), np.take_along_axis(shifted, best, 2)[:, :, 0]


def _ks_trial_quotients(stack: np.ndarray, psi: np.ndarray, kappa: np.ndarray, geom) -> np.ndarray:
    """v^H A v / |v|^2 for the trial states v_x = psi_x e^{-i kappa.x} (x the cell
    sites), A the Hermitian matrix eigvalsh reads from the lower triangle of M."""
    trial = psi * np.exp(-1j * (kappa @ np.array(geom.cell_sites()).T))
    weights = np.abs(trial) ** 2
    strict = (np.tril(stack, -1) @ trial[:, :, None])[:, :, 0]
    diagonal = np.sum(np.diagonal(stack, axis1=1, axis2=2).real * weights, axis=1)
    return (2 * np.sum(trial.conj() * strict, axis=1).real + diagonal) / np.sum(weights, axis=1)


@dataclass(frozen=True)
class KirschSimonReport:
    a_minus: float
    a_plus: float
    n_points: int
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def kirsch_simon_sandwich(hopping: HoppingOperator, theta_grid) -> KirschSimonReport:
    """Flag each row of ``theta_grid`` (shape (b, d), or (b,) when d = 1) where
    eigvalsh's E0(theta) - E0(0) leaves [lower - KS_SLACK, upper + KS_SLACK]:
    (a_minus/a_plus)^2 and (a_plus/a_minus)^2 times the free dispersion folded
    over the N^d branches theta + 2 pi b / N, a_minus and a_plus the extreme
    entries of the ground state at theta = 0 that ``perron_frobenius_check``
    passed (Kirsch & Simon, J. Funct. Anal. 75, 1987)."""
    geom = hopping.geometry
    thetas = np.asarray(theta_grid, dtype=float)
    thetas = thetas[:, None] if thetas.ndim == 1 and geom.d == 1 else thetas
    if thetas.ndim != 2 or thetas.shape[1] != geom.d:
        raise ValueError(f"theta_grid must have shape (b, {geom.d}), got {thetas.shape}")
    if not len(thetas):
        raise ValueError("theta_grid is empty: the sandwich would hold vacuously")
    hopping._require_finite_phases(thetas, "theta_grid")
    pf = perron_frobenius_check(hopping)
    if not pf.applicable:
        raise ValueError("sandwich check applies only to operators of the form -Delta + W")
    if not pf.passed:
        raise ConvergenceError("ground state at theta = 0 is not simple and strictly positive")
    psi, e0 = pf.ground.basis[:, 0], pf.ground.e0
    a_minus, a_plus = float(psi.real.min()), float(psi.real.max())

    disp, kappa = _ks_dispersion(thetas, geom.N)
    lower = (a_minus / a_plus) ** 2 * disp
    upper = (a_plus / a_minus) ** 2 * disp
    # Rounding is monotone, so a bottom in [s_lo, s_hi] is never flagged.  Below:
    # _certificate_margin's Cholesky test at s_lo + delta.  Above: lambda_min(A) <=
    # the exact quotient q of the computed trial state v, A as eigvalsh reads it;
    # its two products are off by (n+2) u |v|^T |A| |v| <= (n+2) u scale |v|^2 each,
    # the norm and division by (n+3) u |q| <= (n+3) u (scale + |s_hi|); so quotient
    # + delta < s_hi leaves 8n(n+1) - (3n+7) >= 2n(n+1) u (scale + |s_hi|), as below.
    s_lo = e0 + (lower - KS_SLACK)
    s_hi = e0 + (upper + KS_SLACK)
    above = s_lo + _certificate_margin(hopping, s_lo)
    below = s_hi - _certificate_margin(hopping, s_hi)

    def inside(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
        quotients = _ks_trial_quotients(stack, psi, kappa[rows], geom)
        return (quotients < below[rows]) & _proven_above(stack, above[rows])

    motion = hopping.band_bottom(thetas, proven=inside) - e0  # +inf where proven inside
    flagged = np.isfinite(motion) & ((motion < lower - KS_SLACK) | (motion > upper + KS_SLACK))
    violations = tuple(
        {
            "theta": thetas[i].tolist(),
            "motion": float(motion[i]),
            "lower": float(lower[i]),
            "upper": float(upper[i]),
        }
        for i in np.flatnonzero(flagged)
    )
    return KirschSimonReport(a_minus, a_plus, len(thetas), violations)
