"""Layer tracing from outside the library.

`Tracer.install` rebinds each traced function wherever the `commutants`
package holds it: every module-level name and class attribute that *is*
the original function object gets a wrapper.  That covers
`from .matrices import rref` in other modules, `rref` as called inside
`kernel_basis`, and aliases such as `__radd__ = __add__`.  Span wrappers
record (name, start, end, parent span, op id) in memory; count wrappers
only bump a counter, because timing every scalar operation would distort
the spans around it.  `uninstall` restores the originals.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (module, attribute path)
SPANS = {
    "matrices.kron": ("matrices", "kron"),
    "matrices.rref": ("matrices", "rref"),
    "matrices.kernel_basis": ("matrices", "kernel_basis"),
    "matrices.solve": ("matrices", "solve"),
    "matrices.det": ("matrices", "Matrix.det"),
    "matrices.inverse": ("matrices", "Matrix.inverse"),
    "matrices.matmul": ("matrices", "Matrix.__mul__"),
    "matrices.pow": ("matrices", "Matrix.__pow__"),
    "subspaces.subspace_from_matrices": ("subspaces", "subspace_from_matrices"),
    "subspaces.random_invertible_probe": ("subspaces", "random_invertible_probe"),
    "polys.divmod": ("polys", "Poly.__divmod__"),
    "polys.poly_gcd": ("polys", "poly_gcd"),
    "polys.eval_at_matrix": ("polys", "eval_at_matrix"),
    "canonical.char_poly": ("canonical", "char_poly"),
    "canonical.min_poly": ("canonical", "min_poly"),
    "canonical.invariant_factors": ("canonical", "invariant_factors"),
    "canonical.is_balanced_matrix": ("canonical", "is_balanced_matrix"),
    "canonical.StructureReport.of": ("canonical", "StructureReport.of"),
    "commutant.commutant_operator": ("commutant", "commutant_operator"),
    "commutant.centralizer_basis": ("commutant", "centralizer_basis"),
    "commutant.clifforder_basis": ("commutant", "clifforder_basis"),
    "commutant.omega_centralizer_basis": ("commutant", "omega_centralizer_basis"),
    "commutant.double_centralizer_basis": ("commutant", "double_centralizer_basis"),
    "commutant.clifforder_has_invertible": ("commutant", "clifforder_has_invertible"),
    "adpower.ad_power_kernel": ("adpower", "ad_power_kernel"),
    "equivalence.express_in_powers": ("equivalence", "express_in_powers"),
    "equivalence.equivalence_certificate": ("equivalence", "equivalence_certificate"),
    "potter.potter_check": ("potter", "potter_check"),
    "potter.omega_commutes": ("potter", "omega_commutes"),
    "gen.generate": ("gen", "generate"),
    "cli.main": ("cli", "main"),
    "cli.parse_matrix": ("cli", "parse_matrix"),
}

# counter name -> attribute paths whose calls it counts
COUNTS = {
    "polys.mul": ("polys", ("Poly.__mul__",)),
    "scalars.cyclo_mul": ("scalars", ("CycloScalar.__mul__",)),
    "scalars.cyclo_add": ("scalars", ("CycloScalar.__add__", "CycloScalar.__sub__")),
    "scalars.cyclo_inverse": ("scalars", ("CycloScalar.inverse",)),
}

def _bits(coeffs):
    best = 0
    for c in coeffs:
        for x in getattr(c, "coeffs", (c,)):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op_id = "-"
        self._stack: list[int] = []
        self._open = Counter()
        self._saved: list = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack, opened = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            opened[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                opened[name] -= 1
                spans[idx] = (name, start, end, parent, self.op_id)
            self._extra(name, args, result)
            return result

        return wrapper

    def _extra(self, name, args, result):
        c = self.counts
        if name == "matrices.rref":
            M = args[0]
            c["rref.cells"] += M.rows * M.cols
            c["rref.rows"] += M.rows
            c["rref.rank"] += result.rank
            if self._open["commutant.double_centralizer_basis"]:
                c["dc.rows"] += M.rows
                c["dc.rank"] += result.rank
        elif name == "matrices.matmul":
            a, b = args
            c["matmul.mults"] += a.rows * a.cols * b.cols
        elif name == "polys.divmod":
            a, b = args
            c["divmod.max_bits"] = max(c["divmod.max_bits"], _bits(a.coeffs), _bits(b.coeffs))

    def _matmul(self, fn):
        # only matrix-matrix products are spans; Matrix * scalar is scale()
        span = self._span("matrices.matmul", fn)

        def wrapper(self_, other):
            if type(other).__name__ == "Matrix":
                return span(self_, other)
            return fn(self_, other)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ installation

    def install(self, package: str = "commutants"):
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        replace = {}  # id(original) -> (original, wrapper)
        for name, (mod, path) in SPANS.items():
            fn = self._resolve(package, mod, path)
            wrap = self._matmul(fn) if name == "matrices.matmul" else self._span(name, fn)
            replace[id(fn)] = (fn, wrap)
        for name, (mod, paths) in COUNTS.items():
            for path in paths:
                fn = self._resolve(package, mod, path)
                replace[id(fn)] = (fn, self._count(name, fn))
        for module in modules:
            for key, value in list(vars(module).items()):
                self._swap(module, key, value, replace)
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        self._swap(value, attr, member, replace)

    def _resolve(self, package, mod, path):
        obj = sys.modules[f"{package}.{mod}"]
        parts = path.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        member = vars(obj)[parts[-1]] if isinstance(obj, type) else getattr(obj, parts[-1])
        return member.__func__ if isinstance(member, classmethod) else member

    def _swap(self, owner, key, value, replace):
        target = value.__func__ if isinstance(value, classmethod) else value
        hit = replace.get(id(target))
        if hit is None or hit[0] is not target:
            return
        wrapper = classmethod(hit[1]) if isinstance(value, classmethod) else hit[1]
        self._saved.append((owner, key, value))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # ---------------------------------------------------------- summaries

    def summary(self):
        """Per span name: calls and self time (duration minus the time
        its direct child spans cover)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
        return calls, self_s

    def write(self, path):
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
