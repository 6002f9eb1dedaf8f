"""Spans and counters for one traced pass, recorded from outside the program.

`install` replaces the layers' functions that the workloads run by
recording wrappers at each import site through which the workloads call them
(for example `width.distance_field` as well as `geodesy.distance_field`, and
the scipy `dijkstra` name bound in `geodesy`), so calls inside and across
modules are both seen. `Tracer.restore` puts the originals back. Nothing under src/
changes, and an untraced pass runs the program unwrapped.

A span is (name, start, end, parent). The layer of a span is the part of
its name before the first dot; top-level spans are the benchmark's
operations (`op.<name>`). Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from metriclab import (besicovitch, covers, fields, gallery, geodesy, grid, io,
                       measure, width)

LAYERS = ("grid", "fields", "geodesy", "measure", "besicovitch", "covers", "width",
          "io", "gallery")


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.attrs = {}            # span index -> dict of span attributes
        self.counters = Counter()
        self.missing = []          # owner.attr names that were to be wrapped but are gone
        self.installed = set()     # span names wrapped at one site or more
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def patch(self, owner, attr, name, before=None, after=None):
        """Wrap owner.attr in a span named name.

        A missing attribute is listed in self.missing; the metrics of a span
        that is wrapped nowhere are then left out.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            tracer.counters[name + ".calls"] += 1
            if before is not None:
                before(tracer.counters, args, kwargs)
            with tracer.span(name) as idx:
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, idx, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        self.installed.add(name)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# where each layer is wrapped


def _count_dijkstra(counters, args, kwargs):
    graph = args[0]
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    counters["geodesy.dijkstra_sources"] += (graph.shape[0] if indices is None
                                             else int(np.size(indices)))
    counters["geodesy.dijkstra_max_vertices"] = max(
        counters["geodesy.dijkstra_max_vertices"], graph.shape[0])


def _count_matrix_rows(counters, args, kwargs):
    counters["geodesy.distance_matrix_rows"] += int(np.size(args[1]))


def _count_build(cache_attr, counter):
    def before(counters, args, kwargs):
        if getattr(args[0], cache_attr, None) is None:
            counters[counter] += 1
    return before


def _grid_vertices(tracer, idx, args, result):
    tracer.counters["grid.vertices"] += result.num_vertices


def _systole_size(tracer, idx, args, result):
    tracer.attrs[idx] = {"V": args[0].grid.num_vertices,
                         "topology": args[0].grid.topology.kind}


def _cut_iterations(tracer, idx, args, result):
    tracer.counters["width.cut_iterations"] += result.iterations


def install(tracer: Tracer):
    """Wrap the functions that the workloads run, at each module binding
    through which the workloads call them."""
    p = tracer.patch
    for owner in (grid, gallery, io):
        p(owner, "build_grid", "grid.build_grid", after=_grid_vertices)

    for name in ("flat_metric", "constant_metric", "round_sphere_metric"):
        p(fields, name, "fields.metric_build")
    p(fields.MetricField, "__init__", "fields.metric_build")
    p(fields.MetricField, "edge_lengths", "fields.edge_lengths")
    p(fields.MetricField, "graph", "fields.graph",
      before=_count_build("_csr", "fields.graph_builds"))

    p(geodesy, "dijkstra", "geodesy.dijkstra", before=_count_dijkstra)
    for owner in (geodesy, besicovitch, width):
        p(owner, "distance_field", "geodesy.distance_field")
    p(geodesy, "distance_matrix", "geodesy.distance_matrix", before=_count_matrix_rows)
    p(width, "set_radius_exact", "geodesy.set_radius_exact")
    p(width, "set_radius_upper", "geodesy.set_radius_upper")
    p(geodesy, "systole", "geodesy.systole", after=_systole_size)
    p(geodesy, "radius", "geodesy.radius")
    p(geodesy, "shortest_loop_in_class", "geodesy.loop_class")
    p(geodesy, "_lifted_graph", "geodesy.lifted_graph")
    p(geodesy, "_loop_search", "geodesy.loop_search")

    # the marching-squares pass is private, but width.py calls it across modules
    p(measure, "_marching_segments", "measure.marching")
    for name in ("coarea_profile", "volume", "ball_volume"):
        p(measure, name, "measure." + name)

    for name, span in (("verify_besicovitch", "verify"), ("face_distance_map", "face_distance_map"),
                       ("jacobian_bound_check", "jacobian"), ("boundary_degree", "degree")):
        p(besicovitch, name, "besicovitch." + span)

    p(covers.Cover, "multiplicity", "covers.cover_check")
    p(covers.Cover, "covers_everything", "covers.cover_check")

    p(width, "separating_cut", "width.separating_cut", after=_cut_iterations)
    p(width, "width_upper_bound", "width.width_upper_bound")
    p(width, "validate_certificate", "width.validate")

    p(gallery, "_write_artifacts", "io.write_artifacts")
    for name in ("write_field", "certificate_text", "witness_text", "profile_text",
                 "report_csv", "read_field", "parse_certificate"):
        p(io, name, "io." + name)

    p(gallery, "run_config", "gallery.run_config")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def inclusive(spans, names) -> float:
    """Time covered by spans with these names, counting nested ones once."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def top_level(spans, idx) -> str:
    while spans[idx][3] >= 0:
        idx = spans[idx][3]
    return spans[idx][0]


def systole_exponent(spans, attrs) -> float:
    """Fitted slope of log(systole time) over log(V) on the hexagonal torus ladder."""
    pts = [(attrs[i]["V"], end - start) for i, (name, start, end, _) in enumerate(spans)
           if name == "geodesy.systole" and i in attrs
           and top_level(spans, i) == "op.loewner-hexagonal"]
    if len({v for v, _ in pts}) < 2:
        return 0.0
    x = np.log([v for v, _ in pts])
    y = np.log([t for _, t in pts])
    return float(np.polyfit(x, y, 1)[0])


def layer_self(spans, selfs) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    out["op"] = 0.0
    for (name, *_), t in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                      bytes_written: int) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 where a layer did no work.

    A metric whose functions could be wrapped nowhere is left out, not 0, so
    that a renamed function reads as unmeasured rather than as free.
    """
    s, c = tracer.spans, tracer.counters

    def wrapped(*names):
        return any(name in tracer.installed for name in names)

    def incl(*names):
        return inclusive(s, names) if wrapped(*names) else None

    def count(key, span):
        return c[key] if wrapped(span) else None

    span_selfs = self_times(s)
    selfs = layer_self(s, span_selfs)
    run_config_self = (sum(t for (name, *_), t in zip(s, span_selfs)
                           if name == "gallery.run_config")
                       if wrapped("gallery.run_config") else None)
    top = sum(end - start for _, start, end, parent in s if parent < 0)
    m = {
        "grid.build_s": incl("grid.build_grid"),
        "grid.vertices": count("grid.vertices", "grid.build_grid"),
        "fields.metric_build_s": incl("fields.metric_build"),
        "fields.edge_lengths_s": incl("fields.edge_lengths"),
        "fields.graph_s": incl("fields.graph"),
        "fields.graph_builds": count("fields.graph_builds", "fields.graph"),
        "geodesy.systole_s": incl("geodesy.systole"),
        "geodesy.loop_class_calls": count("geodesy.loop_class.calls", "geodesy.loop_class"),
        "geodesy.loop_class_s": incl("geodesy.loop_class"),
        "geodesy.lifted_graph_s": incl("geodesy.lifted_graph"),
        "geodesy.loop_search_s": incl("geodesy.loop_search"),
        "geodesy.systole_exponent": (systole_exponent(s, tracer.attrs)
                                     if wrapped("geodesy.systole") else None),
        "geodesy.dijkstra_calls": count("geodesy.dijkstra.calls", "geodesy.dijkstra"),
        "geodesy.dijkstra_sources": count("geodesy.dijkstra_sources", "geodesy.dijkstra"),
        "geodesy.dijkstra_max_vertices": count("geodesy.dijkstra_max_vertices", "geodesy.dijkstra"),
        "geodesy.dijkstra_s": incl("geodesy.dijkstra"),
        "geodesy.distance_matrix_rows": count("geodesy.distance_matrix_rows", "geodesy.distance_matrix"),
        "geodesy.distance_matrix_s": incl("geodesy.distance_matrix"),
        "geodesy.radius_s": incl("geodesy.radius"),
        "geodesy.distance_field_calls": count("geodesy.distance_field.calls", "geodesy.distance_field"),
        "geodesy.distance_field_s": incl("geodesy.distance_field"),
        "geodesy.set_radius_calls": (c["geodesy.set_radius_exact.calls"]
                                     + c["geodesy.set_radius_upper.calls"]
                                     if wrapped("geodesy.set_radius_exact",
                                                "geodesy.set_radius_upper") else None),
        "geodesy.set_radius_s": incl("geodesy.set_radius_exact", "geodesy.set_radius_upper"),
        "measure.marching_passes": count("measure.marching.calls", "measure.marching"),
        "measure.marching_s": incl("measure.marching"),
        "measure.coarea_profile_s": incl("measure.coarea_profile"),
        "measure.volume_s": incl("measure.volume"),
        "measure.ball_volume_calls": count("measure.ball_volume.calls", "measure.ball_volume"),
        "besicovitch.verify_s": incl("besicovitch.verify"),
        "besicovitch.face_distance_map_s": incl("besicovitch.face_distance_map"),
        "besicovitch.jacobian_s": incl("besicovitch.jacobian"),
        "besicovitch.degree_s": incl("besicovitch.degree"),
        "width.separating_cut_s": incl("width.separating_cut"),
        "width.cut_iterations": count("width.cut_iterations", "width.separating_cut"),
        "width.width_upper_bound_s": incl("width.width_upper_bound"),
        "width.validate_s": incl("width.validate"),
        "covers.cover_check_s": incl("covers.cover_check"),
        "io.write_s": incl("io.write_artifacts", "io.write_field", "io.certificate_text",
                           "io.witness_text", "io.profile_text", "io.report_csv"),
        "io.bytes_written": bytes_written,
        "io.read_s": incl("io.read_field", "io.parse_certificate"),
        "gallery.run_config_self_s": run_config_self,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.top_level_share": top / traced_wall,
        "trace.spans": len(s),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = selfs[layer]
    return {name: v for name, v in m.items() if v is not None}


def self_time_table(tracer: Tracer, traced_wall: float) -> str:
    s = tracer.spans
    selfs = layer_self(s, self_times(s))
    calls = Counter()
    for name, *_ in s:
        calls[name.split(".", 1)[0]] += 1
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7} {'spans':>8}"]
    for layer in LAYERS + ("op",):
        share = selfs[layer] / traced_wall if traced_wall > 0 else math.nan
        lines.append(f"{layer:<12} {selfs[layer]:>10.4f} {share:>7.1%} {calls[layer]:>8d}")
    top = sum(end - start for _, start, end, parent in s if parent < 0)
    lines.append(f"{'(top-level)':<12} {top:>10.4f} {top / traced_wall:>7.1%}"
                 f"  of traced wall {traced_wall:.4f} s")
    return "\n".join(lines)
