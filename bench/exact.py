"""Dense exact power series, independent of the package under test.

A series is a list ``c`` of Fractions: ``c[k]`` is the coefficient of
``q^k`` and the list length is the order below which every coefficient is
known.  Only nonnegative integer exponents occur, which is all the
benchmark's generators need.  Expected outcomes are derived with this
module, never with ``novikov`` itself.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def pad(a: list, n: int) -> list:
    """The first *n* coefficients of *a*, zero-extended (a is a polynomial)."""
    return (list(a) + [ZERO] * n)[:n]


def add(a: list, b: list, n: int) -> list:
    a, b = pad(a, n), pad(b, n)
    return [x + y for x, y in zip(a, b)]


def scale(f, a: list) -> list:
    return [f * x for x in a]


def mul(a: list, b: list, n: int) -> list:
    """Product truncated below q^n."""
    out = [ZERO] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def deriv(a: list) -> list:
    return [k * a[k] for k in range(1, len(a))]


def inverse(a: list, n: int) -> list:
    """1/a below q^n; a[0] must be nonzero."""
    a = pad(a, n)
    b = [1 / a[0]] + [ZERO] * (n - 1)
    for k in range(1, n):
        b[k] = -sum(a[j] * b[k - j] for j in range(1, k + 1)) * b[0]
    return b


def solve_chain_ode(psi: list, eta: list, z2: list, c0, c1, n: int) -> list:
    """Coefficients below q^n of the solution rho = c0 + c1*q + ... of

        psi*rho'' + (eta*psi - psi')*rho' - 4*z2*psi^3*rho = 0

    for polynomial psi, eta, z2 with psi[0] != 0.  The q^m equation fixes
    c_{m+2} through the factor psi[0]*(m+2)*(m+1), which never vanishes.
    """
    a = pad(psi, n)
    b = add(mul(eta, psi, n), scale(-1, deriv(pad(psi, n + 1))), n)
    c = scale(-4, mul(z2, mul(psi, mul(psi, psi, n), n), n))
    rho = [Fraction(c0), Fraction(c1)] + [ZERO] * (n - 2)
    for m in range(n - 2):
        known = sum(a[j] * (m - j + 2) * (m - j + 1) * rho[m - j + 2]
                    for j in range(1, m + 1))
        known += sum(b[j] * (m - j + 1) * rho[m - j + 1] for j in range(m + 1))
        known += sum(c[j] * rho[m - j] for j in range(m + 1))
        rho[m + 2] = -known / (a[0] * (m + 2) * (m + 1))
    return rho[:n]


def to_json(a: list, trunc) -> dict:
    """The package's series encoding of *a*, truncated at *trunc*
    ("inf" keeps *a* as an exact polynomial)."""
    terms = [{"exp": str(k), "coeff": str(x)} for k, x in enumerate(a) if x]
    return {"terms": terms, "trunc": str(trunc)}
