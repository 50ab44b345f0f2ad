"""Outside-in per-layer tracing for the traced benchmark run.

The program is not changed: `install()` replaces public functions of the
quasitoric modules with timing wrappers, rebinding every `quasitoric.*`
module attribute that refers to the original object (modules import these
names with `from .lp import strict_lp_feasible`, so patching only the
defining module would miss most calls).

Layers above `field` record spans (name, start, end, parent, op id) in
memory; `field` primitives run 10^5-10^6 times per pass, so they keep
per-call counters and one aggregate time.  Self time of a span is its
duration minus the time its child spans cover and minus the field time
spent inside it outside those children.  Nothing is recorded outside an op.
"""

from __future__ import annotations

import functools
import json
import sys
from math import comb
from time import perf_counter

# (module, attribute, span name); attribute "Class.method" patches a method
SPANS = (
    ("lp", "strict_lp_feasible", "lp"),
    ("fan", "normal_fan", "fan.normal_fan"),
    ("fan", "redundant_facets_lp", "fan.redundant"),
    ("fan", "fan_is_valid", "fan.valid"),
    ("fan", "cones_meet_in_common_face", "fan.pair"),
    ("fan", "fan_is_complete", "fan.complete"),
    ("fan", "is_polytopal", "fan.polytopal"),
    ("linalg", "rank_kernel_solve", "linalg.solve"),
    ("linalg", "rref_rows", "linalg.solve"),
    ("linalg", "hnf", "linalg.integer"),
    ("linalg", "snf", "linalg.integer"),
    ("linalg", "integer_kernel", "linalg.integer"),
    ("linalg", "integer_solve", "linalg.integer"),
    ("polytope", "HalfspaceRep._check_bounded_full_dimensional",
     "polytope.certify"),
    ("polytope", "vertices_from_halfspaces", "polytope.vertex_enum"),
    ("polytope", "face_lattice", "polytope.face_lattice"),
    ("quasilattice", "ray_generator", "quasilattice.ray_generator"),
    ("quasilattice", "integral_membership", "quasilattice.membership"),
    ("triple", "triple_validate", "triple.validate"),
    ("triple", "chart_groups", "triple.charts"),
    ("configuration", "augment", "configuration.augment"),
    ("configuration", "config_validate", "configuration.validate"),
    ("gale", "gale_dual", "gale.dual"),
    ("gale", "chamber_check", "gale.chamber"),
    ("documents", "parse_json", "documents.parse"),
    ("documents", "field_from_doc", "documents.parse"),
    ("documents", "polytope_from_doc", "documents.parse"),
    ("documents", "fan_from_doc", "documents.parse"),
    ("documents", "quasilattice_from_doc", "documents.parse"),
    ("documents", "triple_from_doc", "documents.parse"),
    ("documents", "configuration_from_doc", "documents.parse"),
    ("documents", "dumps", "documents.emit"),
    ("documents", "polytope_to_doc", "documents.emit"),
    ("documents", "fan_to_doc", "documents.emit"),
    ("documents", "quasilattice_to_doc", "documents.emit"),
    ("documents", "triple_to_doc", "documents.emit"),
    ("documents", "configuration_to_doc", "documents.emit"),
    ("render", "render_svg", "render.svg"),
)

# field primitives: (method of FieldElement / RealAlgebraicField, counter)
FIELD_METHODS = (
    ("FieldElement", "__mul__", "mul"),
    ("FieldElement", "__rmul__", "mul"),
    ("FieldElement", "inverse", "inverse"),
    ("FieldElement", "sign", "sign"),
    ("FieldElement", "__add__", None),
    ("FieldElement", "__radd__", None),
    ("FieldElement", "__sub__", None),
    ("RealAlgebraicField", "refine", "refine"),
    ("RealAlgebraicField", "__init__", "setup"),
)

# per-layer metrics of one traced pass (see Recorder.metrics), with units
LAYER_METRICS = (
    ("lp.calls", "count"), ("lp.s", "s"), ("lp.self_s", "s"),
    ("lp.feasible_ratio", "ratio"), ("lp.vars_max", "count"),
    ("lp.rows_mean", "count"), ("lp.rows_max", "count"),
    ("fan.normal_fan_s", "s"), ("fan.redundant_s", "s"),
    ("fan.valid_s", "s"), ("fan.pair_checks", "count"),
    ("fan.complete_s", "s"), ("fan.polytopal_s", "s"),
    ("field.setup_calls", "count"), ("field.setup_s", "s"),
    ("field.mul_calls.d1", "count"), ("field.mul_calls.d2", "count"),
    ("field.mul_calls.d4", "count"), ("field.inverse_calls", "count"),
    ("field.sign_calls", "count"), ("field.refine_calls", "count"),
    ("field.self_s", "s"),
    ("linalg.solve_calls", "count"), ("linalg.solve_s", "s"),
    ("linalg.solve_cells", "count"), ("linalg.integer_calls", "count"),
    ("linalg.integer_s", "s"),
    ("polytope.certify_s", "s"), ("polytope.vertex_enum_s", "s"),
    ("polytope.subsets_tried", "count"), ("polytope.vertex_yield", "ratio"),
    ("polytope.face_lattice_s", "s"),
    ("quasilattice.ray_generator_s", "s"),
    ("quasilattice.membership_calls", "count"),
    ("quasilattice.membership_s", "s"),
    ("triple.validate_s", "s"), ("triple.charts_s", "s"),
    ("configuration.augment_s", "s"), ("configuration.validate_s", "s"),
    ("gale.dual_s", "s"), ("gale.chamber_s", "s"),
    ("documents.parse_calls", "count"), ("documents.parse_s", "s"),
    ("documents.emit_s", "s"), ("documents.bytes_in", "count"),
    ("documents.bytes_out", "count"),
    ("render.svg_s", "s"),
    ("cli.other_s", "s"),
    ("trace.op_s", "s"),
)


class Recorder:
    """Spans and field counters of one process; active only inside ops."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, f0, f1, attrs]
        self.stack = []
        self.op = None
        self.field_s = 0.0
        self.field_depth = 0
        self.counts = {}
        self.originals = []    # (owner, attribute, original) for uninstall

    # -- spans --

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self.op = op_id
        try:
            return self._span("cli", fn, args, {}, None)
        finally:
            self.op = None

    def _span(self, name, fn, args, kwargs, attrs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        if name == "lp":
            # recorded before the call, so a call that raises still counts
            attrs = {"feasible": False, "vars": args[1], "rows": len(args[0])}
        record = [name, 0.0, 0.0, parent, self.op, self.field_s, 0.0, attrs]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            record[6] = self.field_s
            self.stack.pop()
        if name == "lp":
            attrs["feasible"] = result is not None
        elif name == "polytope.vertex_enum":
            H = args[0]
            record[7] = {"tried": comb(H.facet_count, H.dimension),
                         "found": len(result.vertices)}
        elif name == "linalg.solve":
            rows = args[0]
            record[7] = {"cells": len(rows) * len(rows[0]) if rows else 0}
        elif name == "documents.parse" and fn.__name__ == "parse_json":
            record[7] = {"bytes": len(args[0].encode("utf-8"))}
        elif name == "documents.emit" and fn.__name__ == "dumps":
            record[7] = {"bytes": len(result.encode("utf-8"))}
        return result

    def span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            return self._span(name, fn, args, kwargs, None)
        return wrapper

    def field_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if counter is not None:
                key = counter
                if counter == "mul":
                    key = f"mul.d{len(args[0].coeffs)}"
                counts[key] = counts.get(key, 0) + 1
            if self.field_depth:
                return fn(*args, **kwargs)
            self.field_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.field_depth = 0
                self.field_s += elapsed
                if counter == "setup":
                    counts["setup_s"] = counts.get("setup_s", 0.0) + elapsed
        return wrapper

    # -- installation --

    def install(self):
        import quasitoric.cli  # noqa: F401  (load every module first)
        from quasitoric import field

        modules = [m for n, m in sys.modules.items()
                   if n == "quasitoric" or n.startswith("quasitoric.")]
        for module_name, attribute, span in SPANS:
            owner = sys.modules[f"quasitoric.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method,
                            self.span_wrapper(span, getattr(cls, method)))
                continue
            original = getattr(owner, attribute)
            wrapper = self.span_wrapper(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls_name, method, counter in FIELD_METHODS:
            cls = getattr(field, cls_name)
            self._patch(cls, method,
                        self.field_wrapper(counter, getattr(cls, method)))

    def _patch(self, owner, attribute, value):
        self.originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        for owner, attribute, original in reversed(self.originals):
            setattr(owner, attribute, original)
        self.originals.clear()

    # -- aggregation --

    def dump(self, path):
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _, _, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")

    def metrics(self) -> dict:
        """Per-layer totals of this process, keyed as in LAYER_METRICS.
        Inclusive times count only the outermost span of each name, so
        recursion is not counted twice."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        child_field = [0.0] * len(spans)
        for name, start, end, parent, _, f0, f1, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
                child_field[parent] += f1 - f0
        total, calls, self_s = {}, {}, {}
        attrs = {}
        for i, (name, start, end, parent, _, f0, f1, extra) in \
                enumerate(spans):
            own = (end - start - child_time[i]) - (f1 - f0 - child_field[i])
            self_s[name] = self_s.get(name, 0.0) + own
            if extra:
                bucket = attrs.setdefault(name, {})
                for key, value in extra.items():
                    bucket.setdefault(key, []).append(value)
            if parent is not None and spans[parent][0] == name:
                continue
            total[name] = total.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
        lp = attrs.get("lp", {})
        enum = attrs.get("polytope.vertex_enum", {})
        count = self.counts
        tried = sum(enum.get("tried", []))
        rows = lp.get("rows", [])
        return {
            "lp.calls": len(rows),
            "lp.s": total.get("lp", 0.0),
            "lp.self_s": self_s.get("lp", 0.0),
            "lp.feasible_ratio": (sum(lp["feasible"]) / len(rows)
                                  if rows else 0.0),
            "lp.vars_max": max(lp.get("vars", [0])),
            "lp.rows_mean": sum(rows) / len(rows) if rows else 0.0,
            "lp.rows_max": max(rows, default=0),
            "fan.normal_fan_s": total.get("fan.normal_fan", 0.0),
            "fan.redundant_s": total.get("fan.redundant", 0.0),
            "fan.valid_s": total.get("fan.valid", 0.0),
            "fan.pair_checks": calls.get("fan.pair", 0),
            "fan.complete_s": total.get("fan.complete", 0.0),
            "fan.polytopal_s": total.get("fan.polytopal", 0.0),
            "field.setup_calls": count.get("setup", 0),
            "field.setup_s": count.get("setup_s", 0.0),
            "field.mul_calls.d1": count.get("mul.d1", 0),
            "field.mul_calls.d2": count.get("mul.d2", 0),
            "field.mul_calls.d4": count.get("mul.d4", 0),
            "field.inverse_calls": count.get("inverse", 0),
            "field.sign_calls": count.get("sign", 0),
            "field.refine_calls": count.get("refine", 0),
            "field.self_s": self.field_s,
            "linalg.solve_calls": calls.get("linalg.solve", 0),
            "linalg.solve_s": total.get("linalg.solve", 0.0),
            "linalg.solve_cells": sum(attrs.get("linalg.solve", {})
                                      .get("cells", [])),
            "linalg.integer_calls": calls.get("linalg.integer", 0),
            "linalg.integer_s": total.get("linalg.integer", 0.0),
            "polytope.certify_s": total.get("polytope.certify", 0.0),
            "polytope.vertex_enum_s": total.get("polytope.vertex_enum", 0.0),
            "polytope.subsets_tried": tried,
            "polytope.vertex_yield": (sum(enum.get("found", [])) / tried
                                      if tried else 0.0),
            "polytope.face_lattice_s": total.get("polytope.face_lattice",
                                                 0.0),
            "quasilattice.ray_generator_s":
                total.get("quasilattice.ray_generator", 0.0),
            "quasilattice.membership_calls":
                calls.get("quasilattice.membership", 0),
            "quasilattice.membership_s":
                total.get("quasilattice.membership", 0.0),
            "triple.validate_s": total.get("triple.validate", 0.0),
            "triple.charts_s": total.get("triple.charts", 0.0),
            "configuration.augment_s": total.get("configuration.augment",
                                                 0.0),
            "configuration.validate_s": total.get("configuration.validate",
                                                  0.0),
            "gale.dual_s": total.get("gale.dual", 0.0),
            "gale.chamber_s": total.get("gale.chamber", 0.0),
            "documents.parse_calls": calls.get("documents.parse", 0),
            # self times: loading a polytope document certifies it
            "documents.parse_s": self_s.get("documents.parse", 0.0),
            "documents.emit_s": self_s.get("documents.emit", 0.0),
            "documents.bytes_in": sum(attrs.get("documents.parse", {})
                                      .get("bytes", [])),
            "documents.bytes_out": sum(attrs.get("documents.emit", {})
                                       .get("bytes", [])),
            "render.svg_s": total.get("render.svg", 0.0),
            "cli.other_s": self_s.get("cli", 0.0),
            "trace.op_s": total.get("cli", 0.0),
        }
