"""Shared random-problem construction for the equation-chain suites.

Problems are built roots-first so that the lattice ansatz is provably
adequate: pick the two indicial roots d1 <= d2 on (1/2)Z, then synthesize
(psi, eta, z2) realizing them.  psi and the target p, r series are given
integer exponent gaps, which decouples the even and odd coefficient chains;
with adjacent roots (d2 = d1 + 1/2) both seed coefficients are genuinely
free and the solver produces two independent solutions on one lattice.

The BV suites share one oracle here too: :func:`delta_nabla_residual`, the
inner-derivation residual of a connection on one vector, built from the
model's own operations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from novikov.graded import vec_add, vec_scale
from novikov.ode import ODEProblem, LatticeSeed
from novikov.series import NovikovSeries

F = Fraction


def _small(rng: random.Random, nonzero=False) -> Fraction:
    while True:
        c = F(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        if c or not nonzero:
            return c


def random_problem(rng: random.Random, gap: Fraction, trunc=10):
    """Problem whose indicial roots are (d1, d1 + gap); returns
    (problem, d1, d2)."""
    d1 = F(rng.randint(-3, 3), 2)
    d2 = d1 + gap
    p_lead = 1 - d1 - d2          # q^-1 coefficient of p = eta - psi'/psi
    r_lead = d1 * d2              # q^-2 coefficient of r = -4*z2*psi^2
    v = F(rng.choice([-1, 0, 1]), 2)
    psi = NovikovSeries(
        [(v, _small(rng, nonzero=True))]
        + [(v + j, _small(rng)) for j in (1, 2)], truncation=trunc)
    eta = NovikovSeries(
        [(-1, p_lead + v)] + [(j, _small(rng)) for j in (0, 1)],
        truncation=trunc)
    r = NovikovSeries([(-2, r_lead)] + [(j, _small(rng)) for j in (-1, 0)],
                      truncation=trunc)
    z2 = F(-1, 4) * r * (psi * psi).invert(order=trunc)
    return ODEProblem(psi, eta, z2), d1, d2


def adjacent_root_problem(rng: random.Random, trunc=10):
    """gap = step = 1/2: both lattice seeds are free."""
    return random_problem(rng, F(1, 2), trunc)


def seed_for(root: Fraction, coeffs=(F(1), F(0))) -> LatticeSeed:
    return LatticeSeed(step=F(1, 2), base_exponent=root, coeffs=tuple(coeffs))


def delta_nabla_residual(nabla, a, x, model):
    """nabla(Delta x) - Delta(nabla x) + [a, x]; zero when the connection
    satisfies the inner-derivation relation."""
    return vec_add(nabla.apply(model.delta_apply(x)),
                   vec_scale(-1, model.delta_apply(nabla.apply(x))), model.bracket(a, x))
