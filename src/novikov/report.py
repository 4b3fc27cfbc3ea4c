"""Verification report records shared by the check engines and the CLI.

A residual row is decided here and nowhere else: :meth:`Report.residual`
and :meth:`Report.identity` pass a row when each of its residuals
vanishes (:func:`vanishes`) and render the residual as its detail
(:func:`render`).  A residual is a :class:`NovikovSeries`, a
:class:`USeries`, or a class-valued vector (a dict).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graded import vec_is_zero, vec_render


def vanishes(residual) -> bool:
    """The verdict rule: True when *residual* has no nonzero term."""
    return vec_is_zero(residual) if isinstance(residual, dict) else residual.is_zero()


def render(residual, var: str = "q") -> str:
    return vec_render(residual) if isinstance(residual, dict) else residual.render(var)


@dataclass
class CheckResult:
    """One verified identity: a stable name, the equation it instantiates,
    pass/fail, and a rendering of the residual (or other detail)."""

    name: str
    equation: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "equation": self.equation,
                "status": "pass" if self.passed else "fail",
                "detail": self.detail}


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, equation: str, passed: bool, detail: str = "") -> CheckResult:
        result = CheckResult(name, equation, passed, detail)
        self.checks.append(result)
        return result

    def residual(self, name: str, equation: str, *residuals,
                 detail: str | None = None, var: str = "q") -> CheckResult:
        """A row that passes when every residual vanishes.  Its detail is
        *detail* if given, else the residual, or ``(r1, r2)`` for two."""
        if detail is None:
            shown = [render(r, var) for r in residuals]
            detail = shown[0] if len(shown) == 1 else f"({', '.join(shown)})"
        return self.add(name, equation, all(map(vanishes, residuals)), detail)

    def identity(self, name: str, equation: str, cases,
                 label: str | None = None) -> CheckResult:
        """One row for an identity over (key, residual) cases: it passes
        when every residual vanishes, and its detail names the first case
        that does not.  No case after that one is evaluated.  The case is
        named by its key, or with a *label* format by ``label.format(*key)``,
        so only a failing case's label is ever built."""
        for key, res in cases:
            if not vanishes(res):
                text = key if label is None else label.format(*key)
                return self.add(name, equation, False, f"{text}: {render(res)}")
        return self.add(name, equation, True, "0")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)
