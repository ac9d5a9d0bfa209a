"""Lattice geometry, periodic hopping operators, single-cell potentials, disorder data.

All matrices over the periodicity cell use one fixed site ordering:
lexicographic on the integer points of [0, N-1]^d.  Hopping tables store
amplitudes H0(k, k' + m) keyed by (k, k', m) with k, k' cell sites and m a
sublattice vector with |m|_inf <= N; larger hops are rejected at
construction (a finite-range operator can always be reduced to range N).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

Site = tuple[int, ...]

DEFAULT_TOL_SHIFT = 1e-9
FIBER_CHUNK = 256  # thetas per batched fiber eigensolve
# cap on the points a scan refines per round (a flat band keeps the whole zone)
MAX_CANDIDATES = 4096


class ConvergenceError(RuntimeError):
    """A grid scan or iterative solve failed to converge to tolerance."""


@dataclass(frozen=True)
class LatticeGeometry:
    """Dimension d and period N of the sublattice gamma = N * Z^d."""

    d: int
    N: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.N < 1:
            raise ValueError(f"period must be >= 1, got {self.N}")

    @property
    def cell_size(self) -> int:
        return self.N**self.d

    def cell_sites(self) -> list[Site]:
        """Cell sites in the canonical (lexicographic) order."""
        return list(itertools.product(range(self.N), repeat=self.d))

    def site_index(self, site: Site) -> int:
        site = tuple(site)
        if len(site) != self.d or any(not 0 <= s < self.N for s in site):
            raise ValueError(f"{site} is not a cell site for N={self.N}, d={self.d}")
        idx = 0
        for s in site:
            idx = idx * self.N + s
        return idx


def _as_site(value, d: int) -> Site:
    site = tuple(int(v) for v in value)
    if len(site) != d:
        raise ValueError(f"expected a length-{d} site, got {value!r}")
    return site


@dataclass(frozen=True)
class HoppingOperator:
    """A gamma-periodic finite-range Hermitian hopping operator.

    ``coefficients[(k, kp, m)]`` is the amplitude H0(k, kp + m); the stored
    range never exceeds |m|_inf <= N.  ``energy_shift`` records the constant
    already subtracted from the diagonal so that inf spec(H0) = 0.
    """

    geometry: LatticeGeometry
    coefficients: Mapping[tuple[Site, Site, Site], complex]
    energy_shift: float = 0.0
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (n_m, d) shifts m
    blocks: np.ndarray = field(init=False, repr=False, compare=False)  # (n_m, n, n) blocks H_m

    def __post_init__(self) -> None:
        geom = self.geometry
        clean: dict[tuple[Site, Site, Site], complex] = {}
        for (k, kp, m), value in dict(self.coefficients).items():
            k = _as_site(k, geom.d)
            kp = _as_site(kp, geom.d)
            m = _as_site(m, geom.d)
            if any(mi % geom.N != 0 for mi in m):
                raise ValueError(f"hop offset {m} is not in the sublattice N*Z^d")
            if any(abs(mi) > geom.N for mi in m):
                raise ValueError(f"hop offset {m} exceeds the reduced range N={geom.N}")
            geom.site_index(k)
            geom.site_index(kp)
            clean[(k, kp, m)] = complex(value)
        object.__setattr__(self, "coefficients", clean)

        # offset stack: one cell_size x cell_size block H_m per distinct shift m
        index = {site: i for i, site in enumerate(geom.cell_sites())}
        slots: dict[Site, int] = {}
        for _, _, m in clean:
            slots.setdefault(m, len(slots))
        blocks = np.zeros((len(slots), geom.cell_size, geom.cell_size), dtype=complex)
        for (k, kp, m), value in clean.items():
            blocks[slots[m], index[k], index[kp]] = value
        offsets = np.array(list(slots), dtype=float).reshape(len(slots), geom.d)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "blocks", blocks)

    def __iter__(self) -> Iterator[tuple[tuple[Site, Site, Site], complex]]:
        return iter(self.coefficients.items())

    def hopping_scale(self) -> float:
        """Sum of stored amplitude magnitudes; an upper bound on the fiber norm."""
        return sum(abs(v) for v in self.coefficients.values()) or 1.0

    def lipschitz_bound(self) -> float:
        """Bound L with |lambda_min(theta) - lambda_min(theta')| <= L * |theta - theta'|_inf."""
        return sum(abs(v) * sum(abs(mi) for mi in m) for (_, _, m), v in self)

    def fiber(self, theta) -> np.ndarray:
        """The cell_size x cell_size quasi-momentum fiber matrix at theta."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.geometry.d,):
            raise ValueError(f"theta must have shape ({self.geometry.d},), got {theta.shape}")
        return self.fibers(theta[None])[0]

    def fibers(self, thetas) -> np.ndarray:
        """Fiber matrices at a batch of thetas, shape (len(thetas), cell_size, cell_size).

        M(theta) = sum_m e^{-i theta.m} H_m over the offset stack.  Only
        elementwise real operations are used (complex multiply, matmul and
        einsum change their rounding with the array shape), so each theta's
        matrix has the same bits in any batch.
        """
        geom = self.geometry
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != geom.d:
            raise ValueError(f"thetas must have shape (b, {geom.d}), got {thetas.shape}")
        angles = sum(thetas[:, [a]] * self.offsets[:, a] for a in range(geom.d))
        shape = (len(thetas), geom.cell_size, geom.cell_size)
        real, imag = np.zeros(shape), np.zeros(shape)
        cos, sin = np.cos(angles).T[:, :, None, None], np.sin(angles).T[:, :, None, None]
        for c, s, re, im in zip(cos, sin, self.blocks.real, self.blocks.imag):
            real += c * re + s * im
            imag += c * im - s * re
        matrices = real.astype(complex)
        matrices.imag = imag
        return matrices

    def band_bottom(self, thetas, perturbation=None) -> np.ndarray:
        """Lowest eigenvalue of M(theta) (plus ``perturbation``) at each theta.

        Eigensolves run in chunks of FIBER_CHUNK thetas, which bounds the
        memory of the stacked fibers.
        """
        thetas = np.asarray(thetas, dtype=float)
        bottoms = np.empty(len(thetas))
        for start in range(0, len(thetas), FIBER_CHUNK):
            stack = self.fibers(thetas[start : start + FIBER_CHUNK])
            if perturbation is not None:
                stack += perturbation
            bottoms[start : start + FIBER_CHUNK] = np.linalg.eigvalsh(stack)[:, 0]
        return bottoms

    def shifted(self, delta: float) -> "HoppingOperator":
        """Subtract ``delta`` from the diagonal and record it in energy_shift."""
        geom = self.geometry
        coeffs = dict(self.coefficients)
        zero = (0,) * geom.d
        for site in geom.cell_sites():
            key = (site, site, zero)
            coeffs[key] = coeffs.get(key, 0.0) - delta
        return HoppingOperator(geom, coeffs, self.energy_shift + delta)


@dataclass(frozen=True)
class SingleCellPotential:
    """The Hermitian single-cell perturbation matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"potential must be square, got shape {matrix.shape}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


@dataclass(frozen=True)
class DisorderSupport:
    """Endpoints (s_minus, s_plus) of the coupling support and the sign regime."""

    s_minus: float
    s_plus: float
    regime: str  # "sign_changing" | "positive"

    SIGN_CHANGING = "sign_changing"
    POSITIVE = "positive"

    def __post_init__(self) -> None:
        if self.regime not in (self.SIGN_CHANGING, self.POSITIVE):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == self.SIGN_CHANGING and not self.s_minus < 0 < self.s_plus:
            raise ValueError("sign-changing regime needs s_minus < 0 < s_plus")
        if self.regime == self.POSITIVE and not 0 <= self.s_minus < self.s_plus:
            raise ValueError("positive regime needs 0 <= s_minus < s_plus")

    @property
    def coupling_scale(self) -> float:
        return max(abs(self.s_minus), abs(self.s_plus))


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    witness: dict


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def validate_hypotheses(
    hopping: HoppingOperator,
    potential: SingleCellPotential,
    hermitian_tol: float = 0.0,
) -> ValidationReport:
    """Check the standing model hypotheses and report each with a witness.

    Always returns a report; callers decide whether failures abort a run.
    The disorder support needs no check here: ``DisorderSupport`` rejects a
    support that does not fit its regime when it is built.
    """
    geom = hopping.geometry
    checks: list[HypothesisCheck] = []

    worst_pair = None
    worst_err = 0.0
    for (k, kp, m), value in hopping:
        mirror = hopping.coefficients.get((kp, k, tuple(-mi for mi in m)), 0.0)
        err = abs(value - np.conj(mirror))
        if err > worst_err:
            worst_err = err
            worst_pair = {"k": k, "k_prime": kp, "m": m, "value": value, "mirror": mirror}
    scale = hopping.hopping_scale()
    checks.append(
        HypothesisCheck(
            "hopping_hermitian",
            worst_err <= hermitian_tol * scale + 1e-14 * scale,
            {"max_asymmetry": worst_err, "pair": worst_pair},
        )
    )

    origin = (0,) * geom.d
    witness_hop = None
    for (k, kp, m), value in hopping:
        if k == origin and value != 0:
            absolute = tuple(kpi + mi for kpi, mi in zip(kp, m))
            if absolute != origin:
                witness_hop = {"k0": absolute, "amplitude": value}
                break
    checks.append(HypothesisCheck("hopping_nontrivial", witness_hop is not None, witness_hop or {}))

    vnorm = potential.norm
    checks.append(
        HypothesisCheck(
            "potential_hermitian",
            bool(np.array_equal(potential.matrix, potential.matrix.conj().T)),
            {"max_asymmetry": float(np.abs(potential.matrix - potential.matrix.conj().T).max())},
        )
    )
    checks.append(HypothesisCheck("potential_nontrivial", vnorm > 0, {"norm": vnorm}))
    expected = (
        potential.matrix.shape[0] == geom.cell_size
    )
    checks.append(
        HypothesisCheck(
            "potential_cell_sized",
            expected,
            {"shape": potential.matrix.shape, "cell_size": geom.cell_size},
        )
    )

    return ValidationReport(tuple(checks))


def _theta_grid(geometry: LatticeGeometry, points_per_dim: int) -> np.ndarray:
    width = 2.0 * math.pi / geometry.N
    axis = np.arange(points_per_dim) * (width / points_per_dim)
    grids = np.meshgrid(*([axis] * geometry.d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _refine_scan(
    hopping: HoppingOperator,
    grid_per_dim: int,
    min_refinements: int,
    tol: float,
    max_refinements: int = 60,
    keep_tol: float | None = None,
) -> tuple[list[tuple[np.ndarray, float]], float, float]:
    """Coarse grid scan plus local torus bisection around the running minimum.

    The coarse grid and each round's deduplicated refinement points are
    evaluated as one batch.  Returns (candidate (theta, value) pairs, minimum
    value, final spacing).  Raises ConvergenceError if the minimum keeps
    improving by more than ``tol`` when the refinement budget is exhausted.
    """
    geom = hopping.geometry
    width = 2.0 * math.pi / geom.N
    spacing = width / grid_per_dim
    keep = tol if keep_tol is None else keep_tol

    thetas = _theta_grid(geom, grid_per_dim)
    values = hopping.band_bottom(thetas)
    best = float(values.min())
    kept = values <= best + keep
    candidates, values = thetas[kept], values[kept]

    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=geom.d)), dtype=float)
    rounds = 0
    while True:
        spacing /= 2.0
        rounds += 1
        points = np.mod(candidates[:, None, :] + offsets * spacing, width).reshape(-1, geom.d)
        keys = np.round(points / (spacing / 4)).astype(int)
        # first point per key, in generation order
        first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
        values = hopping.band_bottom(points[first])
        new_best = float(values.min())
        improvement = best - new_best
        best = min(best, new_best)
        kept = np.flatnonzero(values <= best + keep)[:MAX_CANDIDATES]
        candidates, values = keys[first][kept] * (spacing / 4), values[kept]
        if rounds >= min_refinements and improvement <= tol / 4:
            break
        if rounds >= max_refinements:
            raise ConvergenceError(
                f"minimum still improving by {improvement:.3e} (> {tol:.3e}) "
                f"after {rounds} refinement rounds"
            )
    return list(zip(candidates, values.tolist())), best, spacing


def shift_to_zero(
    hopping: HoppingOperator,
    bz_resolution: int = 64,
    tol_shift: float = DEFAULT_TOL_SHIFT,
) -> HoppingOperator:
    """Shift the diagonal so the global fiber minimum over the zone is zero."""
    _, minimum, _ = _refine_scan(hopping, bz_resolution, min_refinements=6, tol=tol_shift)
    if abs(minimum) <= tol_shift:
        return hopping
    return hopping.shifted(minimum)


def _laplacian_coefficients(geom: LatticeGeometry) -> dict[tuple[Site, Site, Site], complex]:
    """Hopping table of -Delta on Z^d reduced to the cell of period N."""
    coeffs: dict[tuple[Site, Site, Site], complex] = {}
    zero = (0,) * geom.d
    for k in geom.cell_sites():
        coeffs[(k, k, zero)] = 2.0 * geom.d
        for axis in range(geom.d):
            for step in (-1, 1):
                target = list(k)
                target[axis] += step
                m = [0] * geom.d
                if target[axis] < 0:
                    target[axis] += geom.N
                    m[axis] = -geom.N
                elif target[axis] >= geom.N:
                    target[axis] -= geom.N
                    m[axis] = geom.N
                key = (k, tuple(target), tuple(m))
                coeffs[key] = coeffs.get(key, 0.0) - 1.0
    return coeffs


def _quartic_coefficients(geom: LatticeGeometry) -> dict[tuple[Site, Site, Site], complex]:
    """Hopping table of (-Delta_Z)^2: amplitudes 6, -4, 1 at distances 0, 1, 2."""
    amplitude = {0: 6.0, 1: -4.0, 2: 1.0, -1: -4.0, -2: 1.0}
    coeffs: dict[tuple[Site, Site, Site], complex] = {}
    for (k,) in geom.cell_sites():
        for (kp,) in geom.cell_sites():
            for m in (-geom.N, 0, geom.N):
                dist = kp + m - k
                if dist in amplitude:
                    coeffs[((k,), (kp,), (m,))] = amplitude[dist]
    return coeffs


def preset_model(
    name: str, **params
) -> tuple[HoppingOperator, SingleCellPotential, DisorderSupport]:
    """Build one of the reference models by name.

    Names: ``anderson`` (d-dimensional, N=1, V = delta_0), ``dipole``
    (V = delta_0 - delta_e1, N=2), ``quartic`` (H0 = squared 1-d Laplacian,
    N=3), ``alloy`` (-Delta + periodic W; requires ``W``).
    Disorder defaults to sign-changing couplings on [-1, 1]; override with
    ``s_minus`` / ``s_plus`` / ``regime``.
    """
    name = name.lower()
    s_minus = float(params.pop("s_minus", -1.0))
    s_plus = float(params.pop("s_plus", 1.0))
    regime = params.pop("regime", None)
    if regime is None:
        regime = DisorderSupport.SIGN_CHANGING if s_minus < 0 else DisorderSupport.POSITIVE
    disorder = DisorderSupport(s_minus, s_plus, regime)

    if name == "anderson":
        d = int(params.pop("d", 1))
        _reject_extra(name, params)
        geom = LatticeGeometry(d, 1)
        hopping = HoppingOperator(geom, _laplacian_coefficients(geom))
        potential = SingleCellPotential(np.array([[1.0]]))
    elif name == "dipole":
        d = int(params.pop("d", 1))
        _reject_extra(name, params)
        geom = LatticeGeometry(d, 2)
        hopping = HoppingOperator(geom, _laplacian_coefficients(geom))
        diag = np.zeros(geom.cell_size)
        diag[geom.site_index((0,) * d)] = 1.0
        e1 = (1,) + (0,) * (d - 1)
        diag[geom.site_index(e1)] = -1.0
        potential = SingleCellPotential(np.diag(diag))
    elif name == "quartic":
        _reject_extra(name, params)
        geom = LatticeGeometry(1, 3)
        hopping = HoppingOperator(geom, _quartic_coefficients(geom))
        # single-site values -1/2, 1, -1/2 on the symmetric cell (-1, 0, 1);
        # site -1 is canonical site 2
        potential = SingleCellPotential(np.diag([1.0, -0.5, -0.5]))
    elif name == "alloy":
        d = int(params.pop("d", 1))
        N = int(params.pop("N"))
        W = np.asarray(params.pop("W"), dtype=float).reshape(-1)
        pot = params.pop("potential", None)
        _reject_extra(name, params)
        geom = LatticeGeometry(d, N)
        if W.size != geom.cell_size:
            raise ValueError(f"W must have {geom.cell_size} entries, got {W.size}")
        coeffs = _laplacian_coefficients(geom)
        zero = (0,) * d
        for i, site in enumerate(geom.cell_sites()):
            coeffs[(site, site, zero)] += W[i]
        hopping = HoppingOperator(geom, coeffs)
        if pot is None:
            diag = np.zeros(geom.cell_size)
            diag[0] = 1.0
            potential = SingleCellPotential(np.diag(diag))
        else:
            potential = SingleCellPotential(np.asarray(pot, dtype=complex))
    else:
        raise ValueError(f"unknown preset {name!r}")
    return hopping, potential, disorder


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for preset {name!r}: {sorted(params)}")


def alloy_periodic_background(hopping: HoppingOperator) -> np.ndarray | None:
    """Recover W if the operator is -Delta + W (plus a constant); else None."""
    geom = hopping.geometry
    zero = (0,) * geom.d
    laplacian = _laplacian_coefficients(geom)
    diag = np.zeros(geom.cell_size)
    for (k, kp, m), value in hopping:
        if (k, kp, m) == (k, k, zero) and kp == k:
            if abs(value.imag) > 1e-12:
                return None
            diag[geom.site_index(k)] = value.real - 2.0 * geom.d
            continue
        expected = laplacian.get((k, kp, m), 0.0)
        if abs(value - expected) > 1e-12:
            return None
    for key, expected in laplacian.items():
        k, kp, m = key
        if k == kp and m == zero:
            continue
        if abs(hopping.coefficients.get(key, 0.0) - expected) > 1e-12:
            return None
    return diag


# --- JSON model files ----------------------------------------------------


def model_to_dict(
    hopping: HoppingOperator, potential: SingleCellPotential, disorder: DisorderSupport
) -> dict:
    regime_name = "SignChanging" if disorder.regime == DisorderSupport.SIGN_CHANGING else "Positive"
    return {
        "dimension": hopping.geometry.d,
        "period": hopping.geometry.N,
        "energy_shift": hopping.energy_shift,
        "hoppings": [
            {"k": list(k), "k_prime": list(kp), "m": list(m), "re": v.real, "im": v.imag}
            for (k, kp, m), v in sorted(hopping.coefficients.items())
        ],
        "potential": [
            [[entry.real, entry.imag] for entry in row] for row in np.asarray(potential.matrix)
        ],
        "disorder": {
            "s_minus": disorder.s_minus,
            "s_plus": disorder.s_plus,
            "regime": regime_name,
        },
    }


def model_from_dict(data: dict) -> tuple[HoppingOperator, SingleCellPotential, DisorderSupport]:
    geom = LatticeGeometry(int(data["dimension"]), int(data["period"]))
    coeffs = {
        (tuple(h["k"]), tuple(h["k_prime"]), tuple(h["m"])): complex(h["re"], h["im"])
        for h in data["hoppings"]
    }
    hopping = HoppingOperator(geom, coeffs, float(data.get("energy_shift", 0.0)))
    potential = SingleCellPotential(
        np.array([[complex(re, im) for re, im in row] for row in data["potential"]])
    )
    dis = data["disorder"]
    regime = (
        DisorderSupport.SIGN_CHANGING
        if str(dis["regime"]).lower() in ("signchanging", "sign_changing")
        else DisorderSupport.POSITIVE
    )
    disorder = DisorderSupport(float(dis["s_minus"]), float(dis["s_plus"]), regime)
    return hopping, potential, disorder


def save_model(path, hopping, potential, disorder) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(hopping, potential, disorder), fh, indent=2)


def load_model(path) -> tuple[HoppingOperator, SingleCellPotential, DisorderSupport]:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
