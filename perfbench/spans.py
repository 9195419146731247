"""Outside-in tracing of bvkit for the benchmark's traced run.

`Tracer.install` wraps the public functions of every bvkit module and
the public methods (plus arithmetic operators and dataclass construction
checks) of their classes. It rebinds each wrapped function in every
bvkit namespace that holds it, module-level dicts such as
`cli.COMMANDS` included, and patches methods on their classes; nothing
under src/ changes. Each call then records a span (name, start, end,
parent span, job id), kept in memory until the run writes it out.

Functions in COUNTED are called too often to span cheaply: they get a
call counter and a time accumulator instead. Their time is charged to
them and taken out of the enclosing span's self time; anything they call
is counted but not timed separately. They were picked from a traced
round of each workload: each runs thousands to millions of times a
round and calls nothing but other COUNTED functions.
"""

from __future__ import annotations

import importlib
import inspect
from functools import wraps
from time import perf_counter

from figures import self_times

MODULES = ("numkit", "symplect", "relations", "complexes", "theories",
           "collar", "graded", "bvbfv", "cli")

OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__matmul__",
             "__post_init__"}

COUNTED = {
    "numkit.dot", "numkit.frac", "numkit.vec", "numkit.zero_vec",
    "numkit.unit_vec", "numkit.Matrix.apply", "numkit.Matrix.row",
    "numkit.Matrix.col", "numkit.Matrix.from_rows", "numkit.Matrix.zeros",
    "numkit.Matrix.identity", "numkit.Matrix.transpose",
    "numkit.Matrix.__post_init__", "numkit.Matrix.is_zero",
    "numkit.Matrix.submatrix", "numkit.Matrix.__add__",
    "numkit.Matrix.__sub__", "numkit.Matrix.__neg__", "numkit.Matrix.scale",
    "numkit.Matrix.hstack", "numkit.Matrix.vstack",
    "graded.normalize_monomial", "graded.GradedVectorSpace.parity",
    "graded.GradedVectorSpace.degree", "graded.GradedVectorSpace.name",
    "graded.Polynomial.build", "graded.Polynomial.is_zero",
    "graded.Polynomial.scale", "graded.Polynomial.__mul__",
    "graded.Polynomial.__add__", "graded.Polynomial.__sub__",
    "graded.left_derivative", "graded.right_derivative",
    "graded.Polynomial.generator", "graded.Polynomial.zero",
    "graded.Polynomial.monomial_degree",
}

# canonical wrapped name -> metric name used in BENCHMARK.json
ALIASES = {
    "numkit.Matrix.apply": "numkit.apply",
    "numkit.Matrix.__matmul__": "numkit.matmul",
    "numkit.Subspace.contains": "numkit.contains",
    "symplect.presymplectic_reduce": "symplect.reduce",
    "theories.evolution_relation_scalar": "theories.evolution_relation",
    "theories.subgraph_theory": "theories.subgraph",
    "theories.ScalarFieldTheory.laplacian": "theories.laplacian",
    "graded.Polynomial.__mul__": "graded.poly_mul",
    "graded.GradedSymplecticSpace.__post_init__": "graded.symplectic_space",
    "bvbfv.build_ed_package": "bvbfv.build",
    "bvbfv.check_bvbfv": "bvbfv.check",
    "bvbfv.moduli_of_vacua": "bvbfv.moduli",
    "bvbfv.bfv_resolve": "bvbfv.resolve",
    "bvbfv.bfv_cohomology": "bvbfv.cohomology",
}

# Which end-to-end metric each per-layer metric should move, on which
# workload. Everything runs on one thread with nothing contending, so a
# layer can save at most its self-time share of a job.
LAYER_MAP = [
    ("numkit.apply.calls numkit.apply.self_s numkit.dot.calls",
     "job_p50_s", "bv-package (build)"),
    ("numkit.rref.calls numkit.rref.self_s numkit.rref.cells "
     "numkit.rref.max_bits", "job_tail_s job_p50_s", "glue bv-package"),
    ("numkit.rref.calls numkit.self_s", "jobs_per_s",
     "small-jobs (per-call overhead)"),
    ("numkit.matmul.calls numkit.matmul.self_s", "job_p50_s",
     "bv-package (check)"),
    ("numkit.contains.calls numkit.contains.self_s", "job_tail_s",
     "bv-package"),
    ("numkit.subspace.self_s", "job_tail_s", "bv-package (moduli)"),
    ("symplect.reduce.calls symplect.reduce.self_s "
     "symplect.reduce_one_form.self_s", "job_p50_s", "bv-package"),
    ("collar.preboundary_reduce.self_s collar.project_vector_field.calls "
     "collar.project_vector_field.self_s", "job_tail_s", "bv-package"),
    ("theories.dtn.calls theories.dtn.self_s theories.dtn.interior_max "
     "theories.laplacian.calls", "job_tail_s job_p50_s", "glue"),
    ("theories.evolution_relation.self_s theories.subgraph.self_s",
     "job_p50_s", "glue"),
    ("relations.compose.calls relations.compose.self_s",
     "job_p50_s / jobs_per_s", "glue / small-jobs"),
    ("graded.poly_mul.calls graded.self_s graded.symplectic_space.calls",
     "job_tail_s / job_p50_s",
     "small-jobs (bfv-cohomology) / bv-package (check)"),
    ("bvbfv.build.self_s bvbfv.check.self_s bvbfv.moduli.self_s",
     "job_p50_s job_tail_s", "bv-package"),
    ("bvbfv.resolve.self_s bvbfv.cohomology.self_s", "job_tail_s",
     "small-jobs"),
    ("complexes.self_s", "setup_s / job_p50_s", "all"),
    ("cli.self_s cli.report_bytes", "jobs_per_s", "small-jobs"),
    ("<module>.calls <module>.self_s", "as the rows above for that module",
     "as above"),
]

# numkit.subspace.self_s sums these
SUBSPACE =("numkit.Subspace.from_span", "numkit.kernel", "numkit.intersect",
            "numkit.sum_spaces", "numkit.quotient")


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _probe_rref(tr, args, result):
    m = args[0]
    tr.extra["numkit.rref.cells"] += m.rows * m.cols
    bits = max((_bits(x) for row in result[0].entries for x in row), default=0)
    tr.extra["numkit.rref.max_bits"] = max(tr.extra["numkit.rref.max_bits"],
                                           bits)


def _probe_dtn(tr, args, result):
    interior = sum(1 for b in args[0].graph.boundary_flags[0] if not b)
    tr.extra["theories.dtn.interior_max"] = max(
        tr.extra["theories.dtn.interior_max"], interior)


def _probe_render(tr, args, result):
    tr.extra["cli.report_bytes"] += len(result.encode())


PROBES = {"numkit.rref": _probe_rref, "theories.dtn": _probe_dtn,
          "cli.render": _probe_render}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, counted seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth = 0            # > 0 inside a COUNTED call
        self.nested: dict[str, int] = {}
        self.counted: dict[str, list] = {}
        self.extra = {"numkit.rref.cells": 0, "numkit.rref.max_bits": 0,
                      "theories.dtn.interior_max": 0, "cli.report_bytes": 0}
        self.job = None
        self._restore: list = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span the benchmark opens itself."""
        return self._spanned(name, fn, None)(*args, **kwargs)

    def _spanned(self, name, fn, probe):
        tr = self
        tr.nested.setdefault(name, 0)

        @wraps(fn)
        def traced(*args, **kwargs):
            if tr.depth:
                tr.nested[name] += 1
                return fn(*args, **kwargs)
            stack = tr.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, tr.job, 0.0]
            stack.append(len(tr.spans))
            tr.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                t = perf_counter()
                probe(tr, args, result)
                if stack:
                    tr.spans[stack[-1]][5] += perf_counter() - t
            return result
        return traced

    def _counted_fn(self, name, fn):
        tr = self
        stat = tr.counted.setdefault(name, [0, 0.0])

        @wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            if tr.depth:
                return fn(*args, **kwargs)
            tr.depth = 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t
                tr.depth = 0
                stat[1] += d
                if tr.stack:
                    tr.spans[tr.stack[-1]][5] += d
        return traced

    def _wrap(self, name, fn):
        if name in COUNTED:
            return self._counted_fn(name, fn)
        return self._spanned(name, fn, PROBES.get(name))

    def install(self):
        mods = {m: importlib.import_module(f"bvkit.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._set(obj, key, wrapped[val])

    def _patch_class(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(f"{prefix}.{attr}", obj.__func__))
            elif inspect.isfunction(obj):
                new = self._wrap(f"{prefix}.{attr}", obj)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, key, new):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._restore.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._restore.clear()

    def functions(self) -> dict[str, list]:
        """name -> [calls, self seconds] for every wrapped function."""
        selfs = self_times([(s[1], s[2], s[3], s[5]) for s in self.spans])
        out = {name: [n, 0.0] for name, n in self.nested.items()}
        for rec, st in zip(self.spans, selfs):
            row = out.setdefault(rec[0], [0, 0.0])
            row[0] += 1
            row[1] += st
        for name, (calls, secs) in self.counted.items():
            out[name] = [calls, secs]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-function, per-alias and per-module calls and self time."""
        fns = self.functions()
        out: dict[str, float] = {}
        for name, (calls, secs) in fns.items():
            for key in {name, ALIASES.get(name, name)}:
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + calls
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + secs
            module = name.split(".")[0]
            out[f"{module}.calls"] = out.get(f"{module}.calls", 0) + calls
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + secs
        out["numkit.subspace.self_s"] = sum(fns.get(n, [0, 0.0])[1]
                                            for n in SUBSPACE)
        out.update(self.extra)
        return out
