"""Independent numerical oracles for the predicted spectral-edge bounds.

Everything here recomputes spectra from scratch (finite tori, truncated trial
states, coupling sweeps) so that the perturbation-theory coefficients are
checked against brute force rather than against themselves.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .floquet import GroundSpaceData, build_floquet, ground_space
from .model import (
    ConvergenceError,
    DisorderSupport,
    HoppingOperator,
    SingleCellPotential,
    alloy_periodic_background,
    preset_model,
)
from .perturbation import (
    CASE_LINEAR,
    CASE_NO_MOTION,
    CASE_QUADRATIC,
    EdgeCoefficients,
    edge_bound,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_SITE_CUTOFF = 4096
# a dense torus is solved through its band when BAND_RATIO * b <= n: the
# banded bisection beats a dense subset eigh on a 1-D ring (b = 2) and ties
# with it on a d = 2, L = 8 torus (b = 31, n = 64)
BAND_RATIO = 16
# past the dense cutoff, Lanczos runs on the degree-FILTER_DEGREE Chebyshev
# polynomial of the torus, with its lower edge a share FILTER_GAP of the way
# from the coarse Ritz value up to the norm bound
FILTER_DEGREE = 16  # must be even: see _filtered_lowest_vector
FILTER_GAP = 0.01
GUARD_POINTS = 9  # interior couplings that guard the endpoint minimum
SLACK_FACTOR = 1.25  # sweep residuals may exceed the fitted remainder by this factor


@dataclass(frozen=True)
class FiberMinResult:
    epsilon: float
    theta: np.ndarray
    q_star: float
    value: float


@dataclass(frozen=True)
class BoxSpectrumSample:
    L: int
    omega: np.ndarray
    epsilon: float
    lambda_min: float


@dataclass(frozen=True)
class ExponentFit:
    epsilons: np.ndarray
    values: np.ndarray
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

    The smallest eigenvalue of an affine Hermitian family is concave in the
    coupling, so the minimum over [s_minus, s_plus] sits at an endpoint; an
    interior grid guards that assumption.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    base = build_floquet(hopping, theta).matrix
    interior = np.linspace(disorder.s_minus, disorder.s_plus, GUARD_POINTS + 2)[1:-1]
    couplings = np.concatenate([[disorder.s_minus, disorder.s_plus], interior])
    stack = base + (epsilon * couplings)[:, None, None] * potential.matrix
    bottoms = np.linalg.eigvalsh(stack)[:, 0].tolist()

    lo, hi = bottoms[:2]
    if lo <= hi:
        q_star, value = disorder.s_minus, lo
    else:
        q_star, value = disorder.s_plus, hi

    for q, bottom in zip(interior, bottoms[2:]):
        if bottom < value - 1e-12 * (1.0 + abs(value)):
            raise ConvergenceError(
                f"interior coupling q={q} beats both endpoints; concavity violated"
            )
    return FiberMinResult(epsilon=epsilon, theta=theta, q_star=q_star, value=value)


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
    remainder_power: float | None
    C: float
    rows: tuple[SandwichRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.lower_ok and r.upper_ok for r in self.rows)


def fiber_bound_sandwich(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    disorder: DisorderSupport,
    ground: GroundSpaceData,
    coeffs: EdgeCoefficients,
    epsilon_list,
) -> SandwichReport:
    """Check the coupling-swept fiber bottom at ``ground.theta`` against the
    expansion ``coeffs`` predicts there.

    The remainder constant C is fitted from the two largest epsilons (where
    the remainder dominates rounding); every epsilon must then stay within
    C * SLACK_FACTOR times the remainder power, so residuals decaying at the
    predicted order or faster pass. NoMotion predicts no shift: only the lower
    side is checked, to a rounding floor.
    """
    epsilons = sorted(float(e) for e in epsilon_list)
    power = {CASE_LINEAR: 1.5, CASE_QUADRATIC: 3.0, CASE_NO_MOTION: None}[coeffs.case]

    results = [fiber_min_over_q(hopping, potential, disorder, ground.theta, e) for e in epsilons]
    predicted = [edge_bound(coeffs, e) for e in epsilons]
    residuals = [r.value - p for r, p in zip(results, predicted)]

    floor = 1e-12 * (1.0 + abs(ground.e0))
    if power is None:
        C = 0.0
    else:
        C = max(abs(res) / (r.epsilon**power) for r, res in zip(results[-2:], residuals[-2:]))
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
    return SandwichReport(coeffs.case, power, C, tuple(rows))


def _apply_lattice_operator(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    coupling: float,
    u: np.ndarray,
    n_cells: int,
) -> np.ndarray:
    """Apply H0 + coupling * (potential in every cell) to a truncated vector.

    One space dimension; ``u`` covers n_cells consecutive cells, zero outside.
    """
    geom = hopping.geometry
    if geom.d != 1:
        raise NotImplementedError("direct lattice application implemented for d = 1")
    N = geom.N
    size = n_cells * N
    y = np.zeros(size, dtype=complex)
    for (k, kp, m), value in hopping:
        shift = kp[0] + m[0] - k[0]
        xs = np.arange(k[0], size, N)
        targets = xs + shift
        valid = (targets >= 0) & (targets < size)
        y[xs[valid]] += value * u[targets[valid]]
    if coupling != 0.0:
        blocks = u.reshape(n_cells, N)
        y += coupling * (blocks @ potential.matrix.T).reshape(size)
    return y


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
    geom = hopping.geometry
    theta = np.asarray(theta, dtype=float)
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (geom.cell_size,) or not np.linalg.norm(u0):
        raise ValueError("u0 must be a nonzero cell vector")
    coupling = epsilon * q

    norm0 = float(np.vdot(u0, u0).real)
    v_energy = float(np.vdot(u0, potential.matrix @ u0).real)
    # a hop by m = N t survives truncation in (n - |t_i|)+ window positions
    # per dimension: weight the offset stack and take the fiber quotient
    cells = np.abs(hopping.offsets) / geom.N
    phases = np.exp(-1j * (hopping.offsets @ theta))
    quotients = []
    for n in n_list:
        n = int(n)
        weights = np.prod(np.maximum(n - cells, 0.0), axis=1) / float(n**geom.d)
        fiber = np.tensordot(weights * phases, hopping.blocks, axes=1)
        h_energy = float(np.vdot(u0, fiber @ u0).real)
        quotients.append((h_energy + coupling * v_energy) / norm0)
    return quotients


def fiber_quotient(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    q: float,
    epsilon: float,
    theta,
    u0,
) -> float:
    """The limiting value of quasiperiodic_rayleigh for the same data."""
    u0 = np.asarray(u0, dtype=complex)
    matrix = build_floquet(hopping, theta).matrix + epsilon * q * potential.matrix
    return float(np.vdot(u0, matrix @ u0).real / np.vdot(u0, u0).real)


SAMPLER_ENDPOINT = "EndpointBernoulli"
SAMPLER_UNIFORM = "Uniform"
SAMPLER_CONSTANT = "PeriodicConstant"


def _draw_couplings(
    disorder: DisorderSupport, n_cells: int, sampler: str, seed, q: float | None
) -> np.ndarray:
    if sampler == SAMPLER_CONSTANT:
        if q is None:
            raise ValueError("PeriodicConstant sampler needs q")
        return np.full(n_cells, float(q))
    rng = np.random.default_rng(seed)
    if sampler == SAMPLER_ENDPOINT:
        return rng.choice([disorder.s_minus, disorder.s_plus], size=n_cells)
    if sampler == SAMPLER_UNIFORM:
        return rng.uniform(disorder.s_minus, disorder.s_plus, size=n_cells)
    raise ValueError(f"unknown sampler {sampler!r}")


def assemble_torus(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    epsilon: float,
    L: int,
    omega: np.ndarray,
) -> sp.csr_matrix:
    """The random operator on a torus of L^d cells with periodic boundary.

    The matrix is float64 when every hopping amplitude and every potential
    entry is real, and complex otherwise.
    """
    import scipy.sparse as sp  # here, not at module top: only torus work needs scipy
    geom = hopping.geometry
    d, N = geom.d, geom.N
    side = L * N
    n_sites = side**d
    strides = side ** np.arange(d - 1, -1, -1)
    # cell corners in the order of omega: lexicographic over the L^d cells
    corners = N * np.array(list(itertools.product(range(L), repeat=d)))

    def site_ids(offsets) -> np.ndarray:
        """Torus site ids of corner + offset, shape (len(offsets), L^d)."""
        return ((corners + np.asarray(offsets, dtype=int).reshape(-1, 1, d)) % side) @ strides

    table = hopping.coefficients
    amplitudes = np.array(list(table.values()), dtype=complex)
    rows = [site_ids([k for k, _, _ in table])]
    cols = [site_ids([np.add(kp, m) for _, kp, m in table])]
    vals = [np.repeat(amplitudes[:, None], len(corners), axis=1)]
    if epsilon != 0.0:
        a, b = np.nonzero(potential.matrix)
        cell = np.array(geom.cell_sites())
        rows.append(site_ids(cell[a]))
        cols.append(site_ids(cell[b]))
        vals.append(potential.matrix[a, b][:, None] * (epsilon * np.asarray(omega)))
    data = np.concatenate(vals).ravel()
    if not (amplitudes.imag.any() or potential.matrix.imag.any()):
        data = data.real
    # wraparound at L = 1, 2 folds distinct hops onto the same entry; the COO
    # to CSR conversion sums the duplicates
    ij = (np.concatenate(rows).ravel(), np.concatenate(cols).ravel())
    return sp.coo_matrix((data, ij), shape=(n_sites, n_sites)).tocsr()


def _banded_lowest_vector(matrix: sp.csr_matrix, scale: float) -> np.ndarray | None:
    """Lowest eigenvector of a Hermitian torus through its band, or None when
    the band is too wide to beat a dense solve.

    Reverse Cuthill-McKee orders the sites, LAPACK's banded bisection
    (?sbevx / ?hbevx) gives the lowest eigenvalue, and two steps of inverse
    iteration from a fixed seeded vector, shifted 1e-12*scale below it, give
    the vector in the original site order. A diagonal matrix (b = 0, such as
    a one-site torus) needs no solve: its lowest unit vector is exact.
    """
    import scipy.linalg as sla
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = matrix.shape[0]
    order = reverse_cuthill_mckee(matrix, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    entries = matrix.tocoo()
    nonzero = entries.data != 0
    rows, cols = rank[entries.row[nonzero]], rank[entries.col[nonzero]]
    b = int(np.abs(rows - cols).max(initial=0))
    if BAND_RATIO * b > n:
        return None
    # LAPACK's general band layout: band[b + i - j, j] = a[i, j], so row b
    # is the diagonal and rows b..2b are the lower band eig_banded reads
    band = np.zeros((2 * b + 1, n), dtype=matrix.dtype)
    band[b + rows - cols, cols] = entries.data[nonzero]
    if b == 0:
        x = np.zeros(n, dtype=matrix.dtype)
        x[np.argmin(band[0].real)] = 1.0
    else:
        lam = sla.eig_banded(
            band[b:], lower=True, eigvals_only=True, select="i", select_range=(0, 0),
            check_finite=False,
        )[0]
        band[b] -= lam - 1e-12 * scale
        x = np.random.default_rng(0).standard_normal(n).astype(matrix.dtype)
        for _ in range(2):
            try:
                x = sla.solve_banded((b, b), band, x, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"shifted banded solve failed on {n} sites") from exc
            x /= np.linalg.norm(x)
    vec = np.empty_like(x)
    vec[order] = x
    return vec


def _filtered_lowest_vector(matrix: sp.csr_matrix, scale: float) -> np.ndarray:
    """Lowest eigenvector of a large Hermitian torus by Chebyshev-filtered
    Lanczos (Zhou & Saad, SIAM J. Matrix Anal. Appl. 29, 2007); see
    ``box_min_eig``. ``scale`` must bound the spectrum.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = matrix.shape[0]
    identity = sp.identity(n, dtype=matrix.dtype, format="csr")
    v0 = np.random.default_rng(0).standard_normal(n).astype(matrix.dtype)
    if scale == 0.0:  # the zero torus: ARPACK rejects it, and any vector will do
        return v0
    try:
        ritz, vecs = spla.eigsh(
            matrix + scale * identity, k=1, which="SA", tol=1e-2, maxiter=20000, v0=v0
        )
        rho = float(ritz[0]) - scale
        width = scale - rho
        if width <= 1e-12 * scale:
            return vecs[:, 0]
        # T_m with m even maps the spectrum below lo above 1, and lo > rho >=
        # lambda_min keeps the bottom there. An odd m (the bottom maps below
        # -1) or a lo below lambda_min would make a non-lowest eigenpair the
        # dominant one, and it would still pass the residual certificate.
        lo = rho + FILTER_GAP * width
        # the affine map of [lo, scale] onto [-1, 1], in one CSR copy
        mapped = ((2.0 / (scale - lo)) * matrix - ((scale + lo) / (scale - lo)) * identity).tocsr()

        def filtered(x: np.ndarray) -> np.ndarray:
            previous, current = x, mapped @ x
            for _ in range(FILTER_DEGREE - 1):
                previous, current = current, 2.0 * (mapped @ current) - previous
            return current

        operator = spla.LinearOperator((n, n), matvec=filtered, dtype=matrix.dtype)
        # a restart here costs FILTER_DEGREE times the products of an
        # unfiltered one: divide the cap of 20,000 restarts to keep the
        # product budget, and so the time to fail, of an unfiltered solve
        _, vecs = spla.eigsh(
            operator, k=1, which="LA", tol=1e-12, maxiter=20000 // FILTER_DEGREE, v0=v0
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"iterative eigensolver failed on {n} sites") from exc
    return vecs[:, 0]


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
) -> BoxSpectrumSample:
    """Certified smallest eigenvalue of one disorder realization on a torus:
    only the lowest eigenpair is computed, and its residual is the certificate.

    Up to ``dense_cutoff`` sites the torus is ordered by reverse
    Cuthill-McKee and its half-bandwidth ``b`` is read off. When
    ``BAND_RATIO * b <= n`` (a 1-D ring has ``b = 2``), the lowest eigenvalue
    comes from LAPACK's banded bisection and the vector from two steps of
    inverse iteration shifted ``1e-12*scale`` below it. Wider bands take a
    dense subset ``eigh``.

    Past ``dense_cutoff`` sites the solve is Chebyshev-filtered Lanczos, in
    real space. A coarse ARPACK solve (``tol=1e-2``) on ``matrix + scale*I``
    gives a Ritz value ``rho``; as a Rayleigh quotient it is at least
    ``lambda_min``. Then ARPACK (``which="LA"``, ``tol=1e-12``) runs on
    ``T_m`` of the torus with ``[lo, scale]`` mapped onto [-1, 1], where
    ``lo = rho + FILTER_GAP*(scale - rho)`` and ``T_m`` is the Chebyshev
    polynomial of even degree ``m = FILTER_DEGREE``. ``scale`` bounds the
    spectrum, so every eigenvalue above ``lo`` maps into [-1, 1], and every
    eigenvalue below it maps above 1, the lower the larger; as
    ``lo > rho >= lambda_min``, the eigenvector of ``lambda_min`` is the
    dominant one of the filtered operator. Each Krylov step costs ``m``
    matrix-vector products, so far fewer steps re-orthogonalise against
    the stored Lanczos vectors. Both solves start from a fixed seeded
    Gaussian, so the result does not depend on earlier ARPACK calls in the
    process. When ``scale - rho`` is within rounding (a multiple of the
    identity) the coarse Ritz pair goes straight to the certificate.

    On every path the eigenvalue is the Rayleigh quotient of the returned
    vector on the unshifted matrix, and the pair must pass the same
    certificate: residual at most ``1e-10*scale``. A pair that misses it (or
    is not finite) raises ``ConvergenceError``. The dense and banded paths
    return the lowest eigenvalue; past the cutoff the residual certifies
    *an* eigenpair, not that it is the lowest. Bad input (``L < 1``, a
    negative or non-finite ``epsilon``, a non-finite coupling, hopping or
    potential) raises ``ValueError`` before any assembly.
    """
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if q is not None and not np.isfinite(q):
        raise ValueError(f"coupling q must be finite, got {q!r}")
    if not (np.isfinite(hopping.blocks).all() and np.isfinite(potential.matrix).all()):
        raise ValueError("hopping amplitudes and potential entries must be finite")
    # here, not at module top: only torus work needs scipy
    import scipy.linalg as sla

    geom = hopping.geometry
    n_cells = L**geom.d
    omega = _draw_couplings(disorder, n_cells, sampler, seed, q)
    matrix = assemble_torus(hopping, potential, epsilon, L, omega)
    n_sites = matrix.shape[0]
    scale = float(abs(matrix).sum(axis=1).max())  # inf-norm bound on the operator norm

    if n_sites <= max(dense_cutoff, 1):  # ARPACK needs k < n: one site is dense
        vec = _banded_lowest_vector(matrix, scale)
        if vec is None:
            vec = sla.eigh(matrix.toarray(), subset_by_index=[0, 0])[1][:, 0]
    else:
        vec = _filtered_lowest_vector(matrix, scale)
    lam = float(np.vdot(vec, matrix @ vec).real / np.vdot(vec, vec).real)
    residual = float(np.linalg.norm(matrix @ vec - lam * vec))
    if not residual <= 1e-10 * max(scale, 1e-300):  # a NaN residual fails too
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds certificate bound")
    return BoxSpectrumSample(L=L, omega=omega, epsilon=epsilon, lambda_min=lam)


def torus_dual_minimum(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    epsilon: float,
    q: float,
    L: int,
) -> float:
    """Fiber-decomposition value of the constant-coupling torus bottom.

    The torus of L^d cells is exactly the direct sum of fibers on the dual
    grid theta_j = 2 pi j / (L N).
    """
    geom = hopping.geometry
    axis = 2.0 * np.pi * np.arange(L) / (L * geom.N)
    thetas = np.array(list(itertools.product(axis, repeat=geom.d)))
    return float(hopping.band_bottom(thetas, epsilon * q * potential.matrix).min())


def fit_exponent(epsilons, values) -> ExponentFit:
    """Least-squares slope of log(-value) against log(epsilon)."""
    epsilons = np.asarray(list(epsilons), dtype=float)
    values = np.asarray(list(values), dtype=float)
    usable = values < 0
    excluded = int(np.count_nonzero(~usable))
    if excluded:
        warnings.warn(f"fit_exponent: excluded {excluded} nonnegative value(s)", stacklevel=2)
    eps = epsilons[usable]
    vals = values[usable]
    if len(eps) < 3:
        raise ValueError(f"need at least 3 negative values to fit, have {len(eps)}")
    x = np.log(eps)
    y = np.log(-vals)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ExponentFit(
        epsilons=eps,
        values=vals,
        eta=float(slope),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
        excluded=excluded,
    )


QUARTIC_TRIAL_K = 4.0


def quartic_required_n(epsilon: float, xi: float, K: float = QUARTIC_TRIAL_K) -> int:
    """Default window, in cells, for the quartic trial state: ceil(K eps^-(1+2xi)).

    The sharp cut at the window ends adds about 4/(3K) eps^(1+2xi) to the
    quotient, a third of eps^(1+2xi) at the default K = 4. That is twice the
    (1/6) eps^(1+2xi) target, so this window does not make truncation
    negligible; the cost falls only as 1/K.
    """
    return int(np.ceil(K * epsilon ** -(1.0 + 2.0 * xi)))


def quartic_trial_energy(
    epsilon: float,
    xi: float,
    n: int | None = None,
    K: float = QUARTIC_TRIAL_K,
) -> float:
    """Rayleigh quotient of the two-momentum trial state for the quartic model.

    The trial state superposes the theta = 0 ground state and an
    epsilon^xi-weighted copy at theta = epsilon^xi, truncated to n cells, with
    constant coupling q = 1.
    """
    if xi <= 0.25:
        raise ValueError("xi must exceed 1/4")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    required = quartic_required_n(max(epsilon, 1e-6), xi, K)
    if n is None:
        n = required
    elif epsilon > 0 and n < required:
        raise ValueError(
            f"n={n} too small for epsilon={epsilon}, xi={xi}: the window cut adds "
            f"more than {4.0 / (3.0 * K):.3g} eps^(1+2xi) to the quotient; "
            f"need n >= {required}"
        )

    hopping, potential, _ = preset_model("quartic")
    N = hopping.geometry.N
    eta = epsilon**xi

    def truncated_state(theta: float) -> np.ndarray:
        # ground fiber state (1, e^{-i theta}, e^{-2i theta})/sqrt(3) extended
        # by u(x + 3) = e^{-3 i theta} u(x): a plane wave e^{-i theta x}
        xs = np.arange(n * N)
        return np.exp(-1j * theta * xs) / np.sqrt(3.0)

    u = truncated_state(0.0) + eta * truncated_state(eta)
    y = _apply_lattice_operator(hopping, potential, epsilon * 1.0, u, n)
    return float(np.vdot(u, y).real / np.vdot(u, u).real)


KS_FOLDED = "folded"
KS_ONE_MINUS_COS = "one_minus_cos"
KS_LITERAL = "literal"
KS_SLACK = 1e-9  # band motion may leave the Kirsch-Simon sandwich by this much


def _ks_dispersion(thetas: np.ndarray, N: int, variant: str) -> np.ndarray:
    """Free dispersion factor at each row of ``thetas`` (shape (b, d))."""
    d = thetas.shape[1]
    if variant == KS_ONE_MINUS_COS:
        return np.sum(1.0 - np.cos(thetas), axis=1)
    if variant == KS_LITERAL:
        return 2 * d - np.sum(np.cos(thetas), axis=1)
    if variant == KS_FOLDED:
        # the fold over the N^d branches theta + 2 pi b / N
        branches = 2.0 * np.pi * np.array(list(itertools.product(range(N), repeat=d))) / N
        shifted = thetas[:, None, :] + branches
        return np.sum(2.0 * (1.0 - np.cos(shifted)), axis=2).min(axis=1)
    raise ValueError(f"unknown dispersion variant {variant!r}")


@dataclass(frozen=True)
class KirschSimonReport:
    a_minus: float
    a_plus: float
    variant: str
    violations: tuple[dict, ...]
    n_points: int

    @property
    def passed(self) -> bool:
        return not self.violations


def kirsch_simon_sandwich(
    hopping: HoppingOperator,
    theta_grid,
    variant: str = KS_FOLDED,
) -> KirschSimonReport:
    """Two-sided comparison of the lowest band with the free dispersion.

    The band motion E0(theta) - E0(0) of -Delta + W is sandwiched between
    (a_minus/a_plus)^2 and (a_plus/a_minus)^2 times a free-Laplacian
    dispersion factor, where a_minus/a_plus are the extreme entries of the
    positive ground state at theta = 0.
    """
    if alloy_periodic_background(hopping) is None:
        raise ValueError("sandwich check applies only to operators of the form -Delta + W")
    geom = hopping.geometry
    ground = ground_space(hopping, np.zeros(geom.d))
    psi = ground.basis[:, 0]
    if np.abs(psi.imag).max() > 1e-10 or psi.real.min() <= 0:
        raise ConvergenceError("ground state at theta = 0 is not strictly positive")
    a_minus = float(psi.real.min())
    a_plus = float(psi.real.max())
    e0 = ground.e0
    lo_factor = (a_minus / a_plus) ** 2
    hi_factor = (a_plus / a_minus) ** 2

    thetas = np.asarray(theta_grid, dtype=float).reshape(-1, geom.d)
    disp = _ks_dispersion(thetas, geom.N, variant)
    motion = hopping.band_bottom(thetas) - e0
    lower = lo_factor * disp
    upper = hi_factor * disp
    violations = tuple(
        {
            "theta": thetas[i].tolist(),
            "motion": float(motion[i]),
            "lower": float(lower[i]),
            "upper": float(upper[i]),
        }
        for i in np.flatnonzero((motion < lower - KS_SLACK) | (motion > upper + KS_SLACK))
    )
    return KirschSimonReport(
        a_minus=a_minus,
        a_plus=a_plus,
        variant=variant,
        violations=violations,
        n_points=len(thetas),
    )
