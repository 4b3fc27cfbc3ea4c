"""Span tracer for the benchmark's traced pass.

``Tracer.install`` wraps the callables at each layer boundary of the
loaded ``novikov`` modules, replacing every reference callers look up: a
module function is replaced in each ``novikov`` module that imported it by
name (``cli`` imports the ``ode`` functions that way, ``bv`` calls its own
module-level ``vec_*`` helpers), and a method under every class attribute
bound to it (``__radd__`` is ``__add__``).  Nothing in ``src/`` changes;
``uninstall`` restores the originals.

Spans are kept in memory as parallel arrays (name, start, end, parent,
task id) and written out once the pass ends.  A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

INF = float("inf")
PACKAGE = "novikov"

# layer -> (module, attribute path) of every callable recorded under it.
LAYERS = {
    "series.init": [("series", "NovikovSeries.__init__")],
    "series.mul": [("series", "NovikovSeries.__mul__")],
    "series.add": [("series", "NovikovSeries.__add__")],
    "series.invert": [("series", "NovikovSeries.invert")],
    "series.d_q": [("series", "NovikovSeries.d_q")],
    "useries.mul": [("useries", "USeries.__mul__")],
    "useries.scale": [("useries", "USeries.scale")],
    "ode.solve": [("ode", "solve_second_order")],
    "ode.residual": [("ode", name) for name in (
        "system_residual", "second_order_residual", "riccati_residual",
        "projective_residual", "schwarz_residual", "mirror_a_residual",
        "mirror_ode_residual")],
    "quantum.table_mul": [("quantum", "CohomologyModel.cup_mul"),
                          ("quantum", "CohomologyModel.quantum_piece")],
    "quantum.check": [("quantum", name) for name in (
        "divisor_relations_check", "wdvv_check", "relative_z2_check",
        "psi_eta_check", "gauss_manin_check", "uueq_rewrite_check")],
    "bv.mul": [("bv", "BVModel.mul")],
    "bv.bracket": [("bv", "BVModel.bracket")],
    "bv.vec": [("bv", f"vec_{name}") for name in (
        "get", "add", "scale", "sub", "is_zero", "render")],
    "bv.check": [("bv", name) for name in (
        "check_bv_axioms", "check_leibniz", "check_delta_nabla",
        "check_minus1_delta", "minus1_ambiguity_check",
        "r_endomorphism_check", "class_equation_suite")],
    "operad.compose": [("operad", "compose")],
    "operad.glue": [("operad", "glue")],
    "cli.run": [("cli", "run")],
    "cli.decode": [("series", "NovikovSeries.from_json"),
                   ("ode", "ODEProblem.from_json"),
                   ("ode", "LatticeSeed.from_json"),
                   ("quantum", "CohomologyModel.from_json"),
                   ("quantum", "GWData.from_json"),
                   ("bv", "BVModel.from_json"),
                   ("operad", "DiscConfiguration.from_json")],
    "cli.render": [("cli", "render_report")],
}


def _count_below(a_exps, b_exps, bound) -> int:
    """Pairs (x, y) of two ascending sequences with x + y < bound."""
    j = len(b_exps)
    count = 0
    for x in a_exps:
        while j and x + b_exps[j - 1] >= bound:
            j -= 1
        if not j:
            break
        count += j
    return count


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.task_id = -1
        self.counts = Counter()
        self._stack = [-1]
        self._patches = []

    # -- patching ------------------------------------------------------------

    def _wrap(self, layer_id: int, fn, after=None):
        names, starts, ends = self.name, self.start, self.end
        parents, tasks, stack = self.parent, self.task, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(layer_id)
            parents.append(stack[-1])
            tasks.append(self.task_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every callable in LAYERS inside the loaded package."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        hooks = {"series.init": self._after_init, "series.mul": self._after_mul,
                 "operad.compose": self._after_compose}
        for layer_id, layer in enumerate(self.layers):
            for module, path in LAYERS[layer]:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = self._wrap(layer_id, raw.__func__, hooks.get(layer))
                    self._patch(owner, attr, classmethod(wrapped))
                    continue
                wrapped = self._wrap(layer_id, raw, hooks.get(layer))
                if outer:
                    aliases = [(owner, a) for a, v in list(owner.__dict__.items())
                               if v is raw]
                else:
                    aliases = [(m, a) for m in modules
                               for a, v in list(vars(m).items()) if v is raw]
                for target, alias in aliases:
                    self._patch(target, alias, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters ------------------------------------------------------------

    def _after_init(self, args, result):
        terms = len(args[0].terms)
        if terms > self.counts["series.peak_terms"]:
            self.counts["series.peak_terms"] = terms

    def _after_mul(self, args, result):
        a, b = args
        b_terms = getattr(b, "terms", None)
        if b_terms is None:
            b_terms = ((0, b),) if b else ()
        products = len(a.terms) * len(b_terms)
        self.counts["series.mul.products"] += products
        bound = result.truncation
        if bound == INF:
            self.counts["series.mul.useful"] += products
        else:
            self.counts["series.mul.useful"] += _count_below(
                [e for e, _ in a.terms], [e for e, _ in b_terms], bound)

    def _after_compose(self, args, result):
        phi1, _, phi2 = args
        self.counts["operad.compose.enumerated"] += (
            len(phi1.space) ** (phi1.arity + phi2.arity - 1))
        self.counts["operad.compose.outputs"] += len(result.table)

    # -- results -------------------------------------------------------------

    def layer_stats(self) -> dict:
        """{layer: (calls, self seconds)} over every recorded span."""
        n = len(self.name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.layers)
        own = [0.0] * len(self.layers)
        for i in range(n):
            layer = self.name[i]
            calls[layer] += 1
            own[layer] += end[i] - start[i] - child[i]
        return {layer: (calls[k], own[k]) for k, layer in enumerate(self.layers)}

    def write(self, path):
        """Gzipped, one tab-separated line per span: id, layer, parent id,
        task id, start and end in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tlayer\tparent\ttask\tstart_us\tend_us\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.layers[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.task[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\n")
