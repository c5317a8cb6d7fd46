"""Outside-in spans around the package's layer boundaries.

A Tracer replaces each public function listed in TARGETS at the name its
caller binds (for example qdiff.cli.build_eigenbasis, or the
LaplacianEigenbasis.decompose method) with a wrapper that records one span:
name, start, end, parent, plus a few counts read from the arguments.  Spans
stay in memory and are written out once the command ends.  Nothing inside
the package is edited.

summarize() turns a span list into the per-layer metrics: inclusive time
(`.s`), self time (`.self_s`, the span minus its child spans), call counts,
and the derived counts named in README.md.
"""

import functools
import importlib
import os
import time

# (module, attribute, span name); "Class.method" patches the class attribute
TARGETS = (
    ("qdiff.cli", "build_eigenbasis", "laplacian.build_eigenbasis"),
    ("qdiff.laplacian", "LaplacianEigenbasis.decompose", "laplacian.decompose"),
    ("qdiff.laplacian", "LaplacianEigenbasis.compose", "laplacian.compose"),
    ("qdiff.dynamics", "solve_stream", "laplacian.solve_stream"),
    ("qdiff.cli", "evolve_vorticity", "dynamics.evolve"),
    ("qdiff.dynamics", "step_isospectral_midpoint", "dynamics.isomp_step"),
    ("qdiff.dynamics", "matrix_exponential", "dynamics.matrix_exponential"),
    ("qdiff.blob_transport", "matrix_exponential", "dynamics.matrix_exponential"),
    ("qdiff.cli", "flow_of_stream", "dynamics.flow_of_stream"),
    ("qdiff.cli", "act_density", "dynamics.act_density"),
    ("qdiff.cli", "transport_blob", "blob_transport.transport_blob"),
    ("qdiff.blob_transport", "quantized_vector_field", "blob_transport.quantized_vector_field"),
    ("qdiff.blob_transport", "blob_components", "blob_transport.blob_components"),
    ("qdiff.blob_transport", "blob_step", "blob_transport.blob_step"),
    ("qdiff.blob_transport", "BlobTrajectory.centers", "blob_transport.centers"),
    ("qdiff.render", "evaluate", "quantization.evaluate"),
    ("qdiff.cli", "dequantize", "quantization.dequantize"),
    ("qdiff.cli", "quantize_generator", "quantization.quantize_generator"),
    ("qdiff.cli", "blob_at", "quantization.blob_at"),
    ("qdiff.cli", "blob_center", "quantization.blob_center"),
    ("qdiff.quantization", "blob_center", "quantization.blob_center"),
    ("qdiff.cli", "render_field", "render.render_field"),
    ("qdiff.cli", "icosasphere", "reference_flows.icosasphere"),
    ("qdiff.cli", "transport_mesh", "reference_flows.transport_mesh"),
    ("qdiff.cli", "face_area_ratios", "reference_flows.face_area_ratios"),
    ("qdiff.cli", "face_centroids", "reference_flows.face_centroids"),
    ("qdiff.cli", "load_eigenbasis", "formats.load_eigenbasis"),
    ("qdiff.cli", "load_coefficients", "formats.load_coefficients"),
    ("qdiff.cli", "save_matrix", "formats.write"),
    ("qdiff.cli", "save_coefficients", "formats.write"),
    ("qdiff.cli", "save_eigenbasis", "formats.write"),
    ("qdiff.cli", "save_mesh", "formats.write"),
    ("qdiff.cli", "write_raster_with_sidecar", "formats.write"),
    ("qdiff.cli", "SpinBasis", "spin_basis.SpinBasis"),
    ("qdiff.spin_basis", "SpinBasis.rotation_operator", "spin_basis.rotation_operator"),
)


def _points(args, kwargs, result):
    colat = args[1] if len(args) > 1 else kwargs["colat"]
    coeffs = args[0] if args else kwargs["coeffs"]
    return {"points": int(getattr(colat, "size", 1)), "lmax": int(coeffs.lmax)}


def _file_bytes(args, kwargs, result):
    path = str(args[0])
    extra = os.path.getsize(path + ".range") if os.path.exists(path + ".range") else 0
    return {"bytes": os.path.getsize(path) + extra}


def _pixels(args, kwargs, result):
    return {"pixels": int(result.width * result.height)}


# counts read from a call's arguments or result, after its span has closed
ATTRS = {
    "quantization.evaluate": _points,
    "formats.load_eigenbasis": _file_bytes,
    "formats.write": _file_bytes,
    "render.render_field": _pixels,
}


class Tracer:
    """Collects spans as [name, parent index, start, end, attrs] lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every target; returns the targets the package does not have."""
        missing = []
        for modname, attr, name in TARGETS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))
        return missing


def summarize(spans, wall_s):
    """Per-name totals plus the derived counts, from spans and the traced wall time."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    root_time = 0.0
    for i, (name, parent, start, end, _) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += (end - start) - child[i]
        if parent < 0:
            root_time += end - start

    def get(name, key):
        return totals.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    solves_in = {}
    for name, parent, *_ in spans:
        if name == "laplacian.solve_stream" and parent >= 0 and spans[parent][0] == "dynamics.isomp_step":
            solves_in[parent] = solves_in.get(parent, 0) + 1
    steps = [i for i, s in enumerate(spans) if s[0] == "dynamics.isomp_step"]
    evals = [s[4] for s in spans if s[0] == "quantization.evaluate"]
    pairs = [e["points"] * (e["lmax"] + 1) * (e["lmax"] + 2) // 2 for e in evals]

    m = {}
    m["laplacian.build_eigenbasis.s"] = get("laplacian.build_eigenbasis", "s")
    for op in ("decompose", "compose", "solve_stream"):
        m[f"laplacian.{op}.calls"] = get(f"laplacian.{op}", "calls")
        m[f"laplacian.{op}.s"] = get(f"laplacian.{op}", "s")
    m["dynamics.isomp_step.calls"] = len(steps)
    m["dynamics.isomp_step.self_s"] = get("dynamics.isomp_step", "self_s")
    m["dynamics.fixed_point_iters"] = sum(solves_in.get(i, 0) - 1 for i in steps)
    m["dynamics.evolve.self_s"] = get("dynamics.evolve", "self_s")
    m["dynamics.matrix_exponential.calls"] = get("dynamics.matrix_exponential", "calls")
    m["dynamics.matrix_exponential.s"] = get("dynamics.matrix_exponential", "s")
    m["dynamics.flow_of_stream.s"] = get("dynamics.flow_of_stream", "s")
    m["dynamics.act_density.s"] = get("dynamics.act_density", "s")
    m["blob_transport.steps"] = get("blob_transport.blob_step", "calls")
    m["blob_transport.quantized_vector_field.s"] = get("blob_transport.quantized_vector_field", "s")
    m["blob_transport.blob_components.s"] = get("blob_transport.blob_components", "s")
    m["blob_transport.blob_step.self_s"] = get("blob_transport.blob_step", "self_s")
    m["blob_transport.centers.s"] = get("blob_transport.centers", "s")
    m["quantization.evaluate.s"] = get("quantization.evaluate", "s")
    m["quantization.evaluate.points"] = sum(e["points"] for e in evals)
    m["quantization.evaluate.pair_evals"] = sum(pairs)
    m["quantization.evaluate.table_bytes"] = 8 * max(pairs, default=0)
    for op in ("dequantize", "quantize_generator", "blob_at"):
        m[f"quantization.{op}.s"] = get(f"quantization.{op}", "s")
    m["quantization.blob_center.calls"] = get("quantization.blob_center", "calls")
    m["quantization.blob_center.s"] = get("quantization.blob_center", "s")
    m["render.render_field.self_s"] = get("render.render_field", "self_s")
    m["render.pixels"] = sum(s[4]["pixels"] for s in spans if s[0] == "render.render_field")
    for op in ("icosasphere", "transport_mesh", "face_area_ratios"):
        m[f"reference_flows.{op}.s"] = get(f"reference_flows.{op}", "s")
    m["formats.load_eigenbasis.s"] = get("formats.load_eigenbasis", "s")
    m["formats.load_eigenbasis.bytes"] = sum(
        s[4]["bytes"] for s in spans if s[0] == "formats.load_eigenbasis")
    m["formats.write.s"] = get("formats.write", "s")
    m["formats.write.bytes"] = sum(s[4]["bytes"] for s in spans if s[0] == "formats.write")
    m["spin_basis.SpinBasis.s"] = get("spin_basis.SpinBasis", "s")
    m["spin_basis.rotation_operator.s"] = get("spin_basis.rotation_operator", "s")
    m["cli.self_s"] = wall_s - root_time
    self_total = sum(t["self_s"] for t in totals.values())
    return m, {"spans": totals, "self_sum_s": self_total, "wall_s": wall_s}
