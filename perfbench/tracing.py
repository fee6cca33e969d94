"""Traced pass: spans around the public functions of each package module.

The tracer wraps functions from outside the package.  A function is
replaced under every name a module of the package holds it by, so a call
is caught where its caller looks it up (``zonal.solve``,
``designs.zonal_kernel``, ``grassmann.charpoly``...), and every original
is put back afterwards.  Each call records one span: name, start, end,
parent span and job index, kept in flat in-memory arrays and written out
when the pass ends.  A name the package no longer has is skipped, and its
metrics read 0.

Arithmetic dunder methods of ``ExactComplex`` get call counters only: a
span per Gaussian multiply would cost more than the multiply.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" patches a method.
SPANS = [
    ("cli", "main", "cli.main"),
    ("designs", "is_T_design", "designs.is_T_design"),
    ("designs", "design_defect", "designs.design_defect"),
    ("designs", "CoefficientFunction.evaluate", "designs.CoefficientFunction.evaluate"),
    ("designs", "check_nonnegativity", "designs.check_nonnegativity"),
    ("designs", "certificate_product", "designs.certificate"),
    ("designs", "certificate_antipodal", "designs.certificate"),
    ("designs", "certificate_average", "designs.certificate"),
    ("grassmann", "principal_angles", "grassmann.principal_angles"),
    ("grassmann", "is_antipodal_pair", "grassmann.is_antipodal_pair"),
    ("grassmann", "SubspacePoint.__init__", "grassmann.SubspacePoint.init"),
    ("grassmann", "SubspaceConfiguration.angle_classes", "grassmann.angle_classes"),
    ("exactlinalg", "invert", "exactlinalg.invert"),
    ("exactlinalg", "mat_mul", "exactlinalg.mat_mul"),
    ("exactlinalg", "charpoly", "exactlinalg.charpoly"),
    ("exactlinalg", "rational_roots", "exactlinalg.rational_roots"),
    # helper span: separates the gcd divisions from the trial deflations
    ("exactlinalg", "square_free_part", "exactlinalg.square_free_part"),
    ("exactlinalg", "rank", "exactlinalg.rank"),
    ("exactlinalg", "poly_divmod", "exactlinalg.poly_divmod"),
    ("exactlinalg", "solve", "exactlinalg.solve"),
    ("exactlinalg", "det", "exactlinalg.det"),
    ("zonal", "zonal_kernel", "zonal.zonal_kernel"),
    ("zonal", "zonal_james_constantine", "zonal.zonal_james_constantine"),
    ("zonal", "generalized_binomial", "zonal.generalized_binomial"),
    ("zonal", "hyper_coeff_pair", "zonal.hyper_coeff_pair"),
    ("zonal", "harmonic_dim", "zonal.harmonic_dim"),
    ("symfunc", "normalized_schur_eval", "symfunc.normalized_schur_eval"),
    ("symfunc", "complete_all", "symfunc.complete_all"),
    ("symfunc", "schur_norm", "symfunc.schur_norm"),
    ("symfunc", "SchurExpansion.evaluate", "symfunc.SchurExpansion.evaluate"),
    ("partitions", "down_set", "partitions.down_set"),
    ("partitions", "binom", "partitions.binom"),
]

# ExactComplex methods counted, by counter.
DUNDER_COUNTS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__truediv__": "div",
    "__rtruediv__": "div",
}

_CALLS = [
    "cli.main",
    "designs.design_defect",
    "designs.CoefficientFunction.evaluate",
    "grassmann.is_antipodal_pair",
    "grassmann.SubspacePoint.init",
    "exactlinalg.invert",
    "exactlinalg.mat_mul",
    "exactlinalg.charpoly",
    "exactlinalg.rational_roots",
    "exactlinalg.rank",
    "exactlinalg.poly_divmod",
    "exactlinalg.solve",
    "exactlinalg.det",
    "zonal.zonal_kernel",
    "zonal.generalized_binomial",
    "zonal.hyper_coeff_pair",
    "zonal.harmonic_dim",
    "symfunc.complete_all",
    "symfunc.schur_norm",
    "symfunc.SchurExpansion.evaluate",
    "partitions.down_set",
    "partitions.binom",
]
_SELF = [
    "cli.main",
    "designs.is_T_design",
    "designs.design_defect",
    "designs.CoefficientFunction.evaluate",
    "designs.certificate",
    "grassmann.principal_angles",
    "grassmann.SubspacePoint.init",
    "exactlinalg.invert",
    "exactlinalg.mat_mul",
    "exactlinalg.charpoly",
    "exactlinalg.rational_roots",
    "exactlinalg.rank",
    "exactlinalg.solve",
    "exactlinalg.det",
    "zonal.zonal_james_constantine",
    "zonal.generalized_binomial",
    "zonal.hyper_coeff_pair",
    "zonal.harmonic_dim",
    "symfunc.normalized_schur_eval",
    "symfunc.complete_all",
    "symfunc.SchurExpansion.evaluate",
    "partitions.down_set",
    "partitions.binom",
]
_COUNTS = [
    "cli.stdout_bytes",
    "designs.check_nonnegativity.points",
    "grassmann.principal_angles.exact_calls",
    "grassmann.principal_angles.float_calls",
    "grassmann.angle_classes.pairs",
    "grassmann.angle_classes.distinct",
    "zonal.kernels_built",
    "zonal.interp_solves",
    "symfunc.normalized_schur_eval.exact_calls",
    "symfunc.normalized_schur_eval.float_calls",
    "scalars.ExactComplex.mul.calls",
    "scalars.ExactComplex.add.calls",
    "scalars.ExactComplex.div.calls",
]
_UNITS = {"cli.stdout_bytes": "B"}

#: Per-layer metrics of a traced pass, name -> unit, in report order.
PER_LAYER = {}
PER_LAYER.update({f"{name}.calls": "count" for name in _CALLS})
PER_LAYER.update({f"{name}.self_s": "s" for name in _SELF})
PER_LAYER.update({name: _UNITS.get(name, "count") for name in _COUNTS})
PER_LAYER.update(
    {
        "scalars.max_bits": "bit",
        "exactlinalg.root_hit_ratio": "ratio",
        "zonal.kernel_hit_ratio": "ratio",
        "zonal.interp_useful_ratio": "ratio",
        "float_defect_err": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)


def self_times(start, end, parent) -> list:
    """Duration of each span minus the part of it that its children cover.

    Children of one parent may overlap (threads); their union is what is
    subtracted, clipped to the parent's own interval.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)  # per parent: end of the covered prefix so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer did no work."""
    return num / den if den else 0.0


def max_bits(payloads) -> int:
    """Largest bit length of any integer written inside a string value."""
    best = 0
    stack = list(payloads)
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            for token in item.replace("/", " ").replace("+", " ").replace("-", " ").replace("*i", " ").split():
                if token.isdigit():
                    best = max(best, int(token).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.job = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.job_id = -1
        self.counts = dict.fromkeys(_COUNTS, 0)
        self.originals = {}
        self._patches = []
        self._seen_classes = {}
        self.roots_found = 0

    # ------------------------------------------------------------ recording

    def set_job(self, index: int):
        self.job_id = index

    def wrap(self, span: str, fn, on_call=None):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        names, jobs, parents, starts, ends = self.name, self.job, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            jobs.append(tracer.job_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__wrapped__ = fn
        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "grassdesign" or name.startswith("grassdesign."))
        ]
        hooks = {
            "grassmann.principal_angles": self._on_angles,
            "symfunc.normalized_schur_eval": self._on_schur,
            "designs.check_nonnegativity": self._on_nonneg,
            "grassmann.angle_classes": self._on_classes,
            "exactlinalg.rational_roots": self._on_roots,
        }
        for module_name, attr, span in SPANS:
            module = sys.modules.get(f"grassdesign.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    continue
                wrapper = self.wrap(span, original, hooks.get(span))
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._set(owner, key, wrapper)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(span, original, hooks.get(span))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            self.originals.setdefault(span, original)
        zonal = sys.modules.get("grassdesign.zonal")
        if zonal is not None and hasattr(zonal, "solve"):
            self._set(zonal, "solve", self._counted("zonal.interp_solves", zonal.solve))
        scalars = sys.modules.get("grassdesign.scalars")
        cls = getattr(scalars, "ExactComplex", None)
        for attr, op in DUNDER_COUNTS.items():
            if cls is not None and attr in cls.__dict__:
                self._set(cls, attr, self._counted(f"scalars.ExactComplex.{op}.calls", cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _on_angles(self, args, result):
        mode = getattr(args[0], "mode", "exact")
        self.counts[f"grassmann.principal_angles.{'float' if mode == 'float' else 'exact'}_calls"] += 1

    def _on_schur(self, args, result):
        point = args[1] if len(args) > 1 else ()
        kind = "float" if any(isinstance(v, float) for v in point) else "exact"
        self.counts[f"symfunc.normalized_schur_eval.{kind}_calls"] += 1

    def _on_nonneg(self, args, result):
        self.counts["designs.check_nonnegativity.points"] += getattr(result, "points_checked", 0)

    def _on_roots(self, args, result):
        # each root of multiplicity k is k successful trial deflations
        self.roots_found += sum(mult for _, mult in result[0])

    def _on_classes(self, args, result):
        if id(result) in self._seen_classes:
            return
        self._seen_classes[id(result)] = result  # keeps the id from being reused
        k = len(args[0])
        self.counts["grassmann.angle_classes.pairs"] += k * (k + 1) // 2
        self.counts["grassmann.angle_classes.distinct"] += len(result)

    # ------------------------------------------------------------- analysis

    def layer_metrics(self, outcomes) -> dict:
        """Every per-layer metric of the pass except the run-level ratios."""
        selfs = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, s in zip(self.name, selfs):
            calls[nid] += 1
            self_ns[nid] += s
        by_name = {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(self.names)}
        metrics = {}
        for name in _CALLS:
            metrics[f"{name}.calls"] = by_name.get(name, (0, 0.0))[0]
        for name in _SELF:
            metrics[f"{name}.self_s"] = by_name.get(name, (0, 0.0))[1]
        counts = dict(self.counts)
        counts["cli.stdout_bytes"] = sum(o["stdout_bytes"] for o in outcomes)

        info = _cache_info(self.originals.get("zonal.zonal_james_constantine"))
        counts["zonal.kernels_built"] = info.misses if info else 0
        metrics["zonal.kernel_hit_ratio"] = _ratio(info.hits, info.hits + info.misses) if info else 0.0
        tables = _cache_info(getattr(sys.modules.get("grassdesign.zonal"), "_generalized_binomial_table", None))
        metrics["zonal.interp_useful_ratio"] = _ratio(tables.misses if tables else 0, counts["zonal.interp_solves"])
        metrics.update(counts)

        roots = self._name_ids.get("exactlinalg.rational_roots")
        divmod_id = self._name_ids.get("exactlinalg.poly_divmod")
        deflations = sum(
            1
            for nid, p in zip(self.name, self.parent)
            if nid == divmod_id and p >= 0 and self.name[p] == roots
        )
        metrics["exactlinalg.root_hit_ratio"] = _ratio(self.roots_found, deflations)
        metrics["scalars.max_bits"] = max_bits(o["result"] for o in outcomes if o["result"] is not None)
        return metrics

    def write_spans(self, path: str, job_ids: list):
        """Binary span arrays at ``path`` plus a JSON header beside it."""
        fields = [("name", self.name), ("job", self.job), ("parent", self.parent), ("start_ns", self.start), ("end_ns", self.end)]
        with open(path, "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {
            "count": len(self.start),
            "names": self.names,
            "jobs": job_ids,
            "layout": [[field, arr.typecode, arr.itemsize] for field, arr in fields],
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)


def _cache_info(fn):
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None
