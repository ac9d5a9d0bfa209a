"""Lattice geometry, periodic hopping operators, single-cell potentials, disorder data.

All matrices over the periodicity cell use one fixed site ordering:
lexicographic on the integer points of [0, N-1]^d.  Hopping tables store
amplitudes H0(k, k' + m) keyed by (k, k', m) with k, k' cell sites and m a
sublattice vector with |m|_inf <= N; larger hops are rejected at
construction (a finite-range operator can always be reduced to range N).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

Site = tuple[int, ...]

DEFAULT_TOL_SHIFT = 1e-9
FIBER_CHUNK = 256  # thetas per batched fiber eigensolve
# scan and sampling defaults live here, not in floquet or verification, so that
# the run configs in pipeline read them without importing either module
DEFAULT_TOL_THETA = 1e-9
DEFAULT_GRID_PER_DIM = 64
DEFAULT_REFINEMENTS = 6
MAX_REFINEMENTS = 60
SAMPLER_ENDPOINT = "EndpointBernoulli"
SAMPLER_UNIFORM = "Uniform"
SAMPLER_CONSTANT = "PeriodicConstant"
PRESETS = ("anderson", "dipole", "quartic", "alloy")  # the names preset_model builds


def _require_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


MAX_EPSILON = float(np.finfo(float).max ** (1 / 3))  # the sweep raises epsilon to powers up to 3


def _require_epsilon(epsilon) -> None:
    if not 0 <= epsilon <= MAX_EPSILON:
        raise ValueError(
            f"epsilon must be finite and nonnegative, at most {MAX_EPSILON:.3g}, got {epsilon!r}"
        )


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


def _as_int(value, name: str) -> int:
    """``value`` as an int; a bool or a fractional, non-finite or non-numeric
    value is refused, not truncated."""
    if type(value) is int:  # the common case, first: every shift rebuilds a table
        return value
    numeric = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, (bool, np.bool_)) or not numeric or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_site(value, d: int) -> Site:
    site = tuple(_as_int(v, "a site coordinate") for v in value)
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
    real: bool = field(init=False, repr=False, compare=False)  # no H_m has an imaginary part
    terms: tuple = field(init=False, repr=False, compare=False)  # fibers' positions and term rows

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
            clean[(k, kp, m)] = complex(value)
        object.__setattr__(self, "coefficients", clean)

        # offset stack: one cell_size x cell_size block H_m per distinct shift m
        slots: dict[Site, int] = {}
        for _, _, m in clean:
            slots.setdefault(m, len(slots))
        blocks = np.zeros((len(slots), geom.cell_size, geom.cell_size), dtype=complex)
        for (k, kp, m), value in clean.items():
            blocks[slots[m], geom.site_index(k), geom.site_index(kp)] = value  # checks the sites
        offsets = np.array(list(slots), dtype=float).reshape(len(slots), geom.d)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "real", not blocks.imag.any())
        stack = blocks.reshape(len(blocks), geom.cell_size**2)
        columns = np.flatnonzero(stack.any(0))  # the P positions i*n + j where some H_m is nonzero
        slot = np.argsort(stack[:, columns] == 0, axis=0, kind="stable")  # at each position its
        value = np.take_along_axis(stack[:, columns], slot, 0)  # terms in slot order, then zeros
        depth = value.any(1).sum()  # D, the most terms at one position
        object.__setattr__(self, "terms", (columns, slot[:depth], value[:depth, :, None]))

    def __iter__(self) -> Iterator[tuple[tuple[Site, Site, Site], complex]]:
        return iter(self.coefficients.items())

    def hopping_scale(self) -> float:
        """Sum of stored amplitude magnitudes; an upper bound on the fiber norm."""
        return self._hopping_scale

    def lipschitz_bound(self) -> float:
        """Bound G with |lambda_min(theta) - lambda_min(theta')| <= G * |theta - theta'|_inf.

        |M(theta) - M(theta')| <= S |theta - theta'|_inf entrywise, S = sum_m
        |m|_1 |H_m|, as |e^{-i theta.m} - e^{-i theta'.m}| <= |m|_1 |theta -
        theta'|_inf.  As ||B||_2 <= || |B| ||_2, monotone in |B|'s entries, ||S||_2
        is a G by Weyl.  G is the smaller of two bounds on it, sqrt(||S||_1
        ||S||_inf) and the block sum sum_m |m|_1 sqrt(||H_m||_1 ||H_m||_inf),
        neither above the entry sum sum |amplitude| |m|_1.

        Rounded up: with nonnegative operands each rounding keeps at least
        (1 - u) of its exact result, in any order (u the unit roundoff).  abs
        (hypot, under 1 ulp) counts 2, the weight's product 1, the D block and
        n row or column terms D - 1 and n - 1, the norms' product 1, and sqrt
        halves the count and adds 1: either bound keeps (1 - u)^(n + D + 2.5).
        The exact factor 1 + 2(n + D + 4)u and its product's rounding leave
        (1 - u)^(n + D + 3.5) (1 + 2(n + D + 4)u) > 1 times the exact bound.
        """
        return self._lipschitz_bounds[0]

    def axis_lipschitz_bounds(self) -> tuple[float, ...]:
        """Bounds G_a <= G with |lambda_min(theta) - lambda_min(theta')|
        <= sum_a G_a |theta_a - theta'_a|.

        Entrywise |M(theta) - M(theta')| <= sum_a |theta_a - theta'_a| S_a, S_a =
        sum_m |m_a| |H_m|, as |theta.m - theta'.m| <= sum_a |m_a| |theta_a -
        theta'_a|.  So by Weyl, as for G, sqrt(||S_a||_1 ||S_a||_inf) >=
        ||S_a||_2 is a G_a, rounded up as G is.  A step along one axis a costs
        at most G |theta_a - theta'_a| too, so walking the axes in turn shows
        that min(G_a, G) is a G_a.  In d = 1, S_1 = S and G_1 = G.
        """
        return self._lipschitz_bounds[1]

    # both depend on the table alone: computed on first use, then kept
    @functools.cached_property
    def _hopping_scale(self) -> float:
        return sum(abs(v) for v in self.coefficients.values()) or 1.0

    @functools.cached_property
    def _lipschitz_bounds(self) -> tuple[float, tuple[float, ...]]:
        magnitudes, weights, n = np.abs(self.blocks), np.abs(self.offsets), self.geometry.cell_size
        rounding = 1 + (n + len(self.blocks) + 4) * np.finfo(float).eps

        def spectral(entrywise):  # sqrt(||S||_1 ||S||_inf) for each S in the stack
            return np.sqrt(entrywise.sum(-2).max(-1) * entrywise.sum(-1).max(-1))

        weight = weights.sum(1)  # |m|_1
        bound = min(spectral(magnitudes) @ weight, spectral(np.tensordot(weight, magnitudes, 1)))
        bound *= rounding
        if self.geometry.d == 1:  # S_1 = S
            return bound, (bound,)
        per_axis = (weights.T @ magnitudes.reshape(len(weights), -1)).reshape(-1, n, n)  # the S_a
        return bound, tuple(np.minimum(spectral(per_axis) * rounding, bound))

    def _require_finite_phases(self, thetas: np.ndarray, name: str) -> None:
        """Refuse quasi-momenta a caller gives, the rows of ``thetas`` (b, d),
        unless every entry and every phase theta.m that ``fibers`` takes is finite."""
        with np.errstate(invalid="ignore", over="ignore"):
            phases = sum(thetas[:, [a]] * self.offsets[:, a] for a in range(self.geometry.d))
        bad = ~(np.isfinite(thetas).all(1) & np.isfinite(phases).all(1))
        if bad.any():
            row = thetas[bad][0].tolist()
            raise ValueError(f"{name} must be finite, got {row} (non-finite entry or phase)")

    def fiber(self, theta) -> np.ndarray:
        """The cell_size x cell_size quasi-momentum fiber matrix at theta."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.geometry.d,):
            raise ValueError(f"theta must have shape ({self.geometry.d},), got {theta.shape}")
        self._require_finite_phases(theta[None], "theta")
        return self.fibers(theta[None])[0]

    def fibers(self, thetas) -> np.ndarray:
        """Fiber matrices at a batch of thetas, shape (len(thetas), cell_size, cell_size).

        M(theta) = sum_m e^{-i theta.m} H_m over the stored ``terms``, added row by
        row in slot order to sums that start at +0: those never turn -0, so each
        skipped zero term is a no-op and the bits, zero signs too, are the dense
        loop's.  Only elementwise real operations are used (complex multiply,
        matmul, einsum and np.add.reduce change their rounding with the array
        shape), so a theta's matrix has the same bits in any batch.  A non-finite
        phase (``_require_finite_phases`` refuses one) leaves the zeros at 0.
        """
        geom = self.geometry
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != geom.d:
            raise ValueError(f"thetas must have shape (b, {geom.d}), got {thetas.shape}")
        angles = sum(thetas[:, [a]] * self.offsets[:, a] for a in range(geom.d))
        columns, slot, value = self.terms
        cos, sin = np.cos(angles).T[slot], np.sin(angles).T[slot]  # (D, P, b)
        real_terms = cos * value.real if self.real else cos * value.real + sin * value.imag
        imag_terms = sin * value.real if self.real else sin * value.real - cos * value.imag
        real, imag = np.zeros((2,) + cos.shape[1:])
        for real_term, imag_term in zip(real_terms, imag_terms):
            real += real_term
            imag -= imag_term
        matrices = np.zeros((len(thetas), geom.cell_size**2), dtype=complex)
        matrices.real[:, columns], matrices.imag[:, columns] = real.T, imag.T
        return matrices.reshape(len(thetas), geom.cell_size, geom.cell_size)

    def band_bottom(self, thetas, perturbation=None, proven=None) -> np.ndarray:
        """Lowest eigenvalue of M(theta) (plus ``perturbation``) at each theta.

        Eigensolves run in chunks of FIBER_CHUNK thetas, which bounds the
        memory of the stacked fibers.  A point where ``proven(stack, rows)`` on
        its chunk's matrices at thetas[rows] is True is not solved and gets +inf.
        """
        thetas = np.asarray(thetas, dtype=float)
        bottoms = np.full(len(thetas), np.inf)
        for start in range(0, len(thetas), FIBER_CHUNK):
            rows = slice(start, start + FIBER_CHUNK)
            stack = self.fibers(thetas[rows])
            if perturbation is not None:
                stack += perturbation
            keep = slice(None) if proven is None else ~proven(stack, start + np.arange(len(stack)))
            bottoms[rows][keep] = np.linalg.eigvalsh(stack[keep])[:, 0]
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
    """Finite endpoints s_minus < s_plus, with s_plus > 0, of the coupling support."""

    s_minus: float
    s_plus: float

    SIGN_CHANGING = "sign_changing"
    POSITIVE = "positive"

    def __post_init__(self) -> None:
        if not (-np.inf < self.s_minus < self.s_plus < np.inf and self.s_plus > 0):
            raise ValueError(
                f"support needs s_minus < s_plus and s_plus > 0, both finite, got {self}"
            )

    @property
    def regime(self) -> str:
        """Sign-changing couplings when s_minus < 0, nonnegative ones otherwise."""
        return self.SIGN_CHANGING if self.s_minus < 0 else self.POSITIVE

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
) -> ValidationReport:
    """Check the standing model hypotheses and report each with a witness.

    Always returns a report; callers decide whether failures abort a run.
    The disorder support needs no check here: ``DisorderSupport`` rejects an
    invalid support when it is built.
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
            "hopping_hermitian",  # an inf or NaN amplitude has no mirror to match
            worst_err <= 1e-14 * scale and np.isfinite(hopping.blocks).all(),
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

    matrix = potential.matrix
    finite = np.isfinite(matrix).all()  # an inf or NaN entry has no SVD and no finite asymmetry
    vnorm = potential.norm if finite else np.inf
    asymmetry = float(np.abs(matrix - matrix.conj().T).max()) if finite else np.nan
    checks.append(
        HypothesisCheck(
            "potential_hermitian", asymmetry <= 1e-14 * vnorm, {"max_asymmetry": asymmetry}
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


def shift_to_zero(hopping: HoppingOperator) -> HoppingOperator:
    """Shift the diagonal so the global fiber minimum over the zone is zero."""
    from .pipeline import scan_zone  # here, not at the top: pipeline imports model

    return scan_zone(hopping).hopping


def _stencil_coefficients(
    geom: LatticeGeometry, stencil: Mapping[Site, float]
) -> dict[tuple[Site, Site, Site], complex]:
    """Hopping table of the hops x -> x + s with amplitude stencil[s] on Z^d,
    reduced to the cell: (k, (k + s) mod N, k + s - (k + s) mod N), sites in
    cell order and each site's hops in stencil order."""
    coeffs: dict[tuple[Site, Site, Site], complex] = {}
    for k in geom.cell_sites():
        for step, amplitude in stencil.items():
            target = tuple(ki + si for ki, si in zip(k, step))
            site = tuple(t % geom.N for t in target)
            coeffs[(k, site, tuple(t - c for t, c in zip(target, site)))] = amplitude
    return coeffs


def _laplacian_coefficients(geom: LatticeGeometry) -> dict[tuple[Site, Site, Site], complex]:
    """Hopping table of -Delta on Z^d reduced to the cell of period N."""
    units = [tuple(s * (i == a) for i in range(geom.d)) for a in range(geom.d) for s in (-1, 1)]
    return _stencil_coefficients(geom, {(0,) * geom.d: 2.0 * geom.d, **dict.fromkeys(units, -1.0)})


def preset_model(
    name: str, **params
) -> tuple[HoppingOperator, SingleCellPotential, DisorderSupport]:
    """Build one of the reference models by name.

    Names: ``anderson`` (d-dimensional, N=1, V = delta_0), ``dipole``
    (V = delta_0 - delta_e1, N=2), ``quartic`` (H0 = squared 1-d Laplacian,
    N=3), ``alloy`` (-Delta + periodic W; requires ``W``).
    Disorder defaults to sign-changing couplings on [-1, 1]; override with
    ``s_minus`` / ``s_plus``.
    """
    name = name.lower()
    disorder = DisorderSupport(float(params.pop("s_minus", -1.0)), float(params.pop("s_plus", 1.0)))

    if name == "anderson":
        d = _as_int(params.pop("d", 1), "d")
        _reject_extra(name, params)
        geom = LatticeGeometry(d, 1)
        hopping = HoppingOperator(geom, _laplacian_coefficients(geom))
        potential = SingleCellPotential(np.array([[1.0]]))
    elif name == "dipole":
        d = _as_int(params.pop("d", 1), "d")
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
        # (-Delta_Z)^2: amplitudes 6, -4, 1 at distances 0, 1, 2; the hop to -2
        # comes first, so it is the witness of the hopping_nontrivial check
        stencil = {(0,): 6.0, (-2,): 1.0, (1,): -4.0, (-1,): -4.0, (2,): 1.0}
        hopping = HoppingOperator(geom, _stencil_coefficients(geom, stencil))
        # single-site values -1/2, 1, -1/2 on the symmetric cell (-1, 0, 1);
        # site -1 is canonical site 2
        potential = SingleCellPotential(np.diag([1.0, -0.5, -0.5]))
    elif name == "alloy":
        d = _as_int(params.pop("d", 1), "d")
        if missing := sorted({"N", "W"} - params.keys()):
            raise ValueError(f"preset 'alloy' requires {' and '.join(missing)}")
        N = _as_int(params.pop("N"), "N")
        W = np.asarray(params.pop("W"), dtype=float).reshape(-1)
        _reject_extra(name, params)
        geom = LatticeGeometry(d, N)
        if W.size != geom.cell_size:
            raise ValueError(f"W must have {geom.cell_size} entries, got {W.size}")
        coeffs = _laplacian_coefficients(geom)
        zero = (0,) * d
        for i, site in enumerate(geom.cell_sites()):
            coeffs[(site, site, zero)] += W[i]
        hopping = HoppingOperator(geom, coeffs)
        diag = np.zeros(geom.cell_size)
        diag[0] = 1.0
        potential = SingleCellPotential(np.diag(diag))
    else:
        raise ValueError(f"unknown preset {name!r}")
    return hopping, potential, disorder


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for preset {name!r}: {sorted(params)}")


def is_alloy(hopping: HoppingOperator) -> bool:
    """Whether the operator is -Delta + W (plus a constant): a real diagonal and
    the Laplacian's amplitudes off it."""
    table, laplacian = hopping.coefficients, _laplacian_coefficients(hopping.geometry)
    return all(
        abs(table.get(key, 0.0).imag) <= 1e-12
        if key[0] == key[1] and not any(key[2])
        else abs(table.get(key, 0.0) - laplacian.get(key, 0.0)) <= 1e-12
        for key in table.keys() | laplacian.keys()
    )


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
    def read(name: str, parse, source=data):
        try:  # a payload that is not an object fails at its first field
            return parse(source[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model field {name!r} is missing or malformed: {exc!r}") from exc

    d, N = (read(key, functools.partial(_as_int, name=key)) for key in ("dimension", "period"))
    geom = LatticeGeometry(d, N)
    coeffs = read("hoppings", lambda hops: {
        tuple(_as_site(h[key], geom.d) for key in ("k", "k_prime", "m")): complex(h["re"], h["im"])
        for h in hops
    })
    hopping = HoppingOperator(geom, coeffs, read("energy_shift", float, {"energy_shift": 0} | data))
    potential = SingleCellPotential(
        read("potential", lambda rows: np.array([[complex(x, y) for x, y in r] for r in rows]))
    )
    dis = read("disorder", dict)
    disorder = DisorderSupport(read("s_minus", float, dis), read("s_plus", float, dis))
    stated = str(dis.get("regime", disorder.regime)).lower()
    sign_changing = {"signchanging": True, "sign_changing": True, "positive": False}
    if stated not in sign_changing:
        raise ValueError(f"unknown regime {dis['regime']!r}: expected SignChanging or Positive")
    if sign_changing[stated] != (disorder.regime == DisorderSupport.SIGN_CHANGING):
        raise ValueError(f"regime {dis['regime']!r} contradicts the support {disorder}")
    return hopping, potential, disorder


def save_model(path, hopping, potential, disorder) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(hopping, potential, disorder), fh, indent=2)


def load_model(path) -> tuple[HoppingOperator, SingleCellPotential, DisorderSupport]:
    try:
        with open(path) as fh:
            return model_from_dict(json.load(fh))
    except ValueError as exc:  # bad JSON or a field model_from_dict cannot read
        raise ValueError(f"model file {path}: {exc}") from exc
