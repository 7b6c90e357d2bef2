"""Span tracing of trilie's public functions, from outside the package.

`Tracer.install` wraps each function it targets and rebinds every
`trilie.*` module attribute that holds the same function object, since
the modules import each other's functions by name. Methods are wrapped
on their classes. `RatMatrix.__init__` gets a counter only: it runs far
too often for a span per call.

A span is (name, start, end, parent span, job). Time the tracer spends
on its own bookkeeping is subtracted from the clock the spans read, so
span times stay close to untraced times. A function already running
under its own span (jsonable recursing into itself) gets no inner span.

`Tracer.layer_metrics` derives the per-layer table from the spans; it
reports every metric of LAYER_METRICS but the overhead ratio, per
pass over the job deck.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter_ns

# Which end-to-end metric each layer metric should move, on which
# workload; every metric is reported on every workload, and the others
# should show no change.
LAYER_TABLE = (
    ("jobs_per_s, job_p50_ms on certify (and audit)", (
        "exact.matmul.calls", "exact.matmul.self_s", "exact.matmul.density",
        "exact.addsub.calls", "exact.addsub.self_s")),
    ("jobs_per_s, job_tail_ms on survey", (
        "exact.rref.calls", "exact.rref.self_s", "exact.nullspace.calls",
        "exact.nullspace.self_s", "exact.nullspace.cells", "exact.solve.calls",
        "exact.solve.self_s", "exact.max_bits")),
    ("job_p50_ms on audit", (
        "exact.rank.calls", "exact.rank.self_s", "exact.ratmatrix.constructed")),
    ("jobs_per_s on certify", (
        "exact.invert.calls", "exact.invert.self_s",
        "exact.exp_nilpotent.calls", "exact.exp_nilpotent.self_s")),
    ("jobs_per_s on certify", (
        "liealg.check_axioms.calls", "liealg.check_axioms.self_s",
        "liealg.verify_levi_data.calls", "liealg.verify_levi_data.total_s",
        "liealg.bracket.calls", "liealg.bracket.self_s",
        "liealg.adjoint_grading.calls", "liealg.adjoint_grading.total_s",
        "liealg.adjoint_representation.calls",
        "liealg.adjoint_representation.total_s")),
    ("job_p50_ms on certify, audit", (
        "graded.is_triangular.calls", "graded.is_triangular.self_s",
        "graded.degree_components.calls", "graded.degree_components.self_s",
        "graded.is_homogeneous.calls", "graded.is_homogeneous.self_s",
        "graded.map_bracket.calls", "graded.map_bracket.self_s")),
    ("jobs_per_s on certify", (
        "rep.verify_homomorphism.calls", "rep.verify_homomorphism.self_s",
        "rep.verify_homomorphism.total_s", "rep.verify_homomorphism.pairs",
        "rep.image_of.calls", "rep.image_of.self_s")),
    ("job_p50_ms on audit, jobs_per_s on certify", (
        "rep.verify_triangular_conditions.calls",
        "rep.verify_triangular_conditions.total_s",
        "rep.kernel.calls", "rep.kernel.total_s",
        "rep.is_k_irreducible.calls", "rep.is_k_irreducible.total_s",
        "rep.conjugate_levi_check.calls", "rep.conjugate_levi_check.total_s")),
    ("jobs_per_s on survey", (
        "sl2theory.build_irreducible.calls",
        "sl2theory.build_irreducible.total_s")),
    ("job_p50_ms on audit", (
        "sl2theory.weight_decomposition.calls",
        "sl2theory.weight_decomposition.total_s",
        "sl2theory.weight_decomposition.rank_calls",
        "sl2theory.weight_decomposition.hit_ratio")),
    ("job_p50_ms on audit (build_family_module also survey)", (
        "family.build_family_module.calls", "family.build_family_module.total_s",
        "family.verify_family.calls", "family.verify_family.total_s",
        "family.weight_compatibility.calls",
        "family.weight_compatibility.self_s")),
    ("jobs_per_s, job_tail_ms on survey", (
        "classify.solve_extensions.calls", "classify.solve_extensions.self_s",
        "classify.solve_extensions.total_s", "classify.solve_extensions.unknowns",
        "classify.solve_extensions.exp_unknowns",
        "classify.match_family.calls", "classify.match_family.total_s",
        "classify.contains.calls", "classify.contains.total_s")),
    ("job_p50_ms on audit", (
        "jsonio.dumps.calls", "jsonio.dumps.self_s",
        "jsonio.jsonable.calls", "jsonio.jsonable.self_s",
        "jsonio.representation_from_json.calls",
        "jsonio.representation_from_json.total_s",
        "jsonio.algebra_from_json.calls", "jsonio.algebra_from_json.total_s",
        "jsonio.bytes_out")),
    ("job_p50_ms on audit", (
        "cli.run.calls", "cli.run.total_s",
        "cli.build_parser.calls", "cli.build_parser.self_s")),
    ("none: untraced jobs_per_s / traced jobs_per_s - 1", (
        "trace.overhead_ratio",)),
)

_UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "density": "ratio",
    "hit_ratio": "ratio", "overhead_ratio": "ratio", "max_bits": "bits",
    "bytes_out": "bytes", "exp_unknowns": "exponent",
}


def unit_of(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[1], "count")


def better_of(name: str) -> str:
    return "higher" if name.endswith(".hit_ratio") else "lower"


LAYER_METRICS = tuple(name for _, names in LAYER_TABLE for name in names)


def _bits(values) -> int:
    best = 0
    for x in values:
        b = max(x.numerator.bit_length(), x.denominator.bit_length())
        if b > best:
            best = b
    return best


def _matrix_bits(m) -> int:
    return _bits(m.data)


def _solver_bits(args, result) -> int:
    # arguments and results of rref / rank / nullspace_basis / solve
    best = _matrix_bits(args[0])
    if len(args) > 1:
        best = max(best, _bits(args[1]))
    if isinstance(result, tuple) and result and hasattr(result[0], "data"):
        best = max(best, _matrix_bits(result[0]))  # rref: (matrix, pivots)
    elif isinstance(result, list):
        for v in result:  # nullspace basis vectors
            best = max(best, _bits(v))
    elif isinstance(result, tuple):
        best = max(best, _bits(result))  # a solve solution
    return best


class Tracer:
    """Spans and counters for one traced segment of a run."""

    def __init__(self):
        self.metric_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("l")
        self.parents = array("l")
        self.jobs = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.unknowns: dict[int, int] = {}  # solve_extensions span -> (n+1)(m+1)
        self.job = 0
        self.constructed = 0
        self.bytes_out = 0
        self.max_bits = 0
        self.matmul_nonzero = 0
        self.matmul_entries = 0
        self.nullspace_cells = 0
        self.weights_found = 0
        self._stack = [-1]
        self._active: list[int] = []
        self._skew = [0]  # ns of bookkeeping so far, hidden from span clocks
        self._undo: list[tuple] = []

    # --- counters run after a span ends, on its arguments and result ---

    def _solver(self, idx, args, result):
        self.max_bits = max(self.max_bits, _solver_bits(args, result))

    def _nullspace(self, idx, args, result):
        self._solver(idx, args, result)
        self.nullspace_cells += args[0].rows * args[0].cols

    def _matmul(self, idx, args, result):
        for m in args:
            self.matmul_nonzero += sum(1 for x in m.data if x)
            self.matmul_entries += len(m.data)

    def _weights(self, idx, args, result):
        self.weights_found += len(result)

    def _unknowns(self, idx, args, result):
        p = args[0]
        self.unknowns[idx] = (p.n + 1) * (p.m + 1)

    def _dumps(self, idx, args, result):
        self.bytes_out += len(result)

    def _targets(self):
        # (metric prefix, attribute path in the prefix's module, counter)
        return (
            ("exact.matmul", "RatMatrix.__matmul__", self._matmul),
            ("exact.addsub", "RatMatrix.__add__", None),
            ("exact.addsub", "RatMatrix.__sub__", None),
            ("exact.addsub", "RatMatrix.__neg__", None),
            ("exact.addsub", "RatMatrix.scale", None),
            ("exact.rref", "rref", self._solver),
            ("exact.nullspace", "nullspace_basis", self._nullspace),
            ("exact.solve", "solve", self._solver),
            ("exact.rank", "rank", self._solver),
            ("exact.invert", "invert", None),
            ("exact.exp_nilpotent", "exp_nilpotent", None),
            ("liealg.check_axioms", "check_axioms", None),
            ("liealg.verify_levi_data", "verify_levi_data", None),
            ("liealg.bracket", "bracket", None),
            ("liealg.adjoint_grading", "adjoint_grading", None),
            ("liealg.adjoint_representation", "adjoint_representation", None),
            ("graded.is_triangular", "is_triangular", None),
            ("graded.degree_components", "degree_components", None),
            ("graded.is_homogeneous", "is_homogeneous", None),
            ("graded.map_bracket", "GradedMap.bracket", None),
            ("rep.verify_homomorphism", "verify_homomorphism", None),
            ("rep.image_of", "Representation.image_of", None),
            ("rep.verify_triangular_conditions", "verify_triangular_conditions", None),
            ("rep.kernel", "kernel", None),
            ("rep.is_k_irreducible", "is_k_irreducible", None),
            ("rep.conjugate_levi_check", "conjugate_levi_check", None),
            ("sl2theory.build_irreducible", "build_irreducible", None),
            ("sl2theory.weight_decomposition", "weight_decomposition", self._weights),
            ("family.build_family_module", "build_family_module", None),
            ("family.verify_family", "verify_family", None),
            ("family.weight_compatibility", "weight_compatibility", None),
            ("classify.solve_extensions", "solve_extensions", self._unknowns),
            ("classify.match_family", "match_family", None),
            ("classify.contains", "SolutionSpace.contains", None),
            ("jsonio.dumps", "dumps", self._dumps),
            ("jsonio.jsonable", "jsonable", None),
            ("jsonio.representation_from_json", "representation_from_json", None),
            ("jsonio.algebra_from_json", "algebra_from_json", None),
            ("cli.run", "run", None),
            ("cli.build_parser", "build_parser", None),
        )

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.metric_names)
            self.metric_names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, nid: int, fn, counter):
        names, parents, jobs = self.names, self.parents, self.jobs
        starts, ends, stack = self.starts, self.ends, self._stack
        active, skew, tracer = self._active, self._skew, self

        def traced(*args, **kwargs):
            t = perf_counter_ns()
            if active[nid]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0)
            stack.append(idx)
            active[nid] = 1
            t0 = perf_counter_ns()
            skew[0] += t0 - t
            starts.append(t0 - skew[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter_ns() - skew[0]
                stack.pop()
                active[nid] = 0
                raise
            t1 = perf_counter_ns()
            ends[idx] = t1 - skew[0]
            stack.pop()
            active[nid] = 0
            if counter is not None:
                counter(idx, args, result)
            skew[0] += perf_counter_ns() - t1
            return result

        return traced

    def _count_init(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.constructed += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, modules, owner, attr, new):
        # every module attribute and class attribute holding the original
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, key, orig))
                    setattr(module, key, new)

    def install(self, modules: dict) -> None:
        """Wrap the target functions in `modules` ({short name: trilie module})."""
        for metric, path, counter in self._targets():
            owner = modules[metric.split(".", 1)[0]]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            wrapper = self._wrap(self._id(metric), getattr(owner, attr), counter)
            self._rebind(modules, owner, attr, wrapper)
        ratmatrix = modules["exact"].RatMatrix
        self._rebind(modules, ratmatrix, "__init__",
                     self._count_init(ratmatrix.__init__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, job, name, start
        and end in ns of the bookkeeping-free clock."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tjob\tname\tstart_ns\tend_ns\n")
            names = self.metric_names
            for i in range(len(self.names)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.jobs[i]}\t"
                         f"{names[self.names[i]]}\t{self.starts[i]}\t{self.ends[i]}\n")

    def layer_metrics(self, passes: int, scale: list[float]) -> dict[str, float]:
        """Every LAYER_METRICS value but the overhead ratio, per pass.

        `scale[job]` converts the span times of a job to calibration speed.
        """
        n = len(self.names)
        names, parents, jobs = self.names, self.parents, self.jobs
        dur = [(self.ends[i] - self.starts[i]) * scale[jobs[i]] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        k = len(self.metric_names)
        calls, total, own = [0] * k, [0] * k, [0] * k
        for i in range(n):
            calls[names[i]] += 1
            total[names[i]] += dur[i]
            own[names[i]] += dur[i] - child[i]

        # spans nested under a given ancestor name (parents precede children)
        def under(ancestor: str, name: str) -> int:
            aid, nid = self._ids[ancestor], self._ids[name]
            inside = [False] * n
            count = 0
            for i in range(n):
                p = parents[i]
                inside[i] = p >= 0 and (inside[p] or names[p] == aid)
                count += inside[i] and names[i] == nid
            return count

        out: dict[str, float] = {}
        for name, nid in self._ids.items():
            out[f"{name}.calls"] = calls[nid] / passes
            out[f"{name}.self_s"] = own[nid] / 1e9 / passes
            out[f"{name}.total_s"] = total[nid] / 1e9 / passes
        rank_calls = under("sl2theory.weight_decomposition", "exact.rank")
        out.update({
            "exact.matmul.density": self.matmul_nonzero / self.matmul_entries
            if self.matmul_entries else 0.0,
            "exact.nullspace.cells": self.nullspace_cells / passes,
            "exact.max_bits": float(self.max_bits),
            "exact.ratmatrix.constructed": self.constructed / passes,
            "rep.verify_homomorphism.pairs":
                under("rep.verify_homomorphism", "graded.map_bracket") / passes,
            "sl2theory.weight_decomposition.rank_calls": rank_calls / passes,
            "sl2theory.weight_decomposition.hit_ratio":
                self.weights_found / rank_calls if rank_calls else 0.0,
            "classify.solve_extensions.unknowns":
                sum(self.unknowns.values()) / passes,
            "classify.solve_extensions.exp_unknowns": self._unknowns_slope(dur),
            "jsonio.bytes_out": self.bytes_out / passes,
        })
        return {name: out[name] for name in LAYER_METRICS if name in out}

    def _unknowns_slope(self, dur) -> float:
        """Least-squares slope of log(span time) on log(unknowns) over
        the solve_extensions spans; 0 when there are fewer than two sizes."""
        points = [(math.log(u), math.log(dur[i]))
                  for i, u in self.unknowns.items()]
        if len({x for x, _ in points}) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        sxy = sum((x - mx) * (y - my) for x, y in points)
        return sxy / sxx
