import itertools

import numpy as np

from bandedge import verification
from bandedge.model import (
    DisorderSupport,
    HoppingOperator,
    LatticeGeometry,
    SingleCellPotential,
)


# the presets a pipeline run takes, in d = 1 and d = 2
PIPELINE_PRESETS = [
    ("anderson", {"d": 1}),
    ("anderson", {"d": 2}),
    ("dipole", {"d": 1}),
    ("dipole", {"d": 2}),
    ("dipole", {"d": 1, "s_minus": 0.0, "s_plus": 1.0}),
    ("dipole", {"d": 2, "s_minus": 0.0, "s_plus": 1.0}),
    ("quartic", {}),
    ("alloy", {"d": 1, "N": 3, "W": [0.3, 1.1, 0.7]}),
    ("alloy", {"d": 2, "N": 3, "W": [0.3, 1.1, 0.7, 0.2, 1.9, 0.4, 1.2, 0.8, 0.05]}),
]


def random_hopping(rng: np.random.Generator, d: int = 1, N: int = 2) -> HoppingOperator:
    """Random Hermitian finite-range hopping table on the cell of period N."""
    geom = LatticeGeometry(d, N)
    sites = geom.cell_sites()
    offsets = [tuple(o) for o in itertools.product((-N, 0, N), repeat=d)]
    raw = {}
    for k in sites:
        for kp in sites:
            for m in offsets:
                raw[(k, kp, m)] = complex(rng.standard_normal(), rng.standard_normal())
    coeffs = {}
    for (k, kp, m), value in raw.items():
        mirror = raw[(kp, k, tuple(-x for x in m))]
        coeffs[(k, kp, m)] = 0.5 * (value + np.conj(mirror))
    return HoppingOperator(geom, coeffs)


def random_potential(rng: np.random.Generator, size: int) -> SingleCellPotential:
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return SingleCellPotential(0.5 * (raw + raw.conj().T))


def sign_changing(rng: np.random.Generator) -> DisorderSupport:
    return DisorderSupport(-float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))


def no_motion_model():
    """Decoupled site-0 chain plus an isolated site-1 level; V kills the ground space."""
    geom = LatticeGeometry(1, 2)
    coeffs = {
        ((0,), (0,), (0,)): 2.0,
        ((0,), (0,), (2,)): -1.0,
        ((0,), (0,), (-2,)): -1.0,
        ((1,), (1,), (0,)): 5.0,
    }
    hopping = HoppingOperator(geom, coeffs)
    potential = SingleCellPotential(np.diag([0.0, 1.0]))
    disorder = DisorderSupport(-1.0, 1.0)
    return hopping, potential, disorder


def refuse(name):
    """A stand-in for ``name`` that fails the test when it is called."""

    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refused


def halve_ks_dispersion(monkeypatch):
    """Halve the Kirsch-Simon folded dispersion, so the sandwich misses the
    band's true motion away from theta = 0."""
    dispersion = verification._ks_dispersion

    def halved(thetas, N):
        disp, kappa = dispersion(thetas, N)
        return disp / 2, kappa

    monkeypatch.setattr(verification, "_ks_dispersion", halved)
