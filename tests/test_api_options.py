"""Every option of the public API, pinned by name.

An option is a parameter with a default (or a dataclass field with one) of
a public callable: the names metriclab exports, the public functions and
classes of metriclab.io, and gallery.run_config; for a class, its
constructor and its public methods.  Adding or removing an option is a
deliberate edit of OPTIONS below.
"""

import inspect

import metriclab
from metriclab import gallery
from metriclab import io as mio

OPTIONS = [
    "BesicovitchReport(flatness)",
    "DomainTopology(mask_name)",
    "MetricField(validate)",
    "RadiusResult(per_component)",
    "WidthCertificate(curves)",
    "WidthCertificate(r0)",
    "WidthCertificate(r1)",
    "ball_volume(dist)",
    "build_grid(stencil_order)",
    "check_sys_width(certificates)",
    "circle_graph(segments)",
    "coarea_profile(t_count)",
    "cylinder_check(tol)",
    "distance_field(quotient)",
    "gallery.run_config(figures)",
    "gallery.run_config(out_dir)",
    "gallery.run_config(resolution)",
    "hexagon(mask)",
    "io.certificate_text(field_path)",
    "io.make_row(mode)",
    "io.svg_heatmap(curves)",
    "nerve(pou)",
    "radius(quotient)",
    "random_spd_metric(eig_range)",
    "round_sphere_metric(radius)",
    "separating_cut(budget)",
    "separating_cut(r0)",
    "separating_cut(r1)",
    "set_radius_upper(rounds)",
    "set_radius_upper(within)",
    "slicing_cover(radius_rounds)",
    "star_graph(segments_per_leg)",
    "verify_besicovitch(rel_tol)",
    "volume_profile(center_sample)",
    "width_upper_bound(budget)",
]


def _defaulted(obj, label):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # builtins without a signature
        return []
    return [f"{label}({p.name})" for p in params if p.default is not inspect.Parameter.empty]


def _public(module, prefix=""):
    for name in dir(module):
        obj = getattr(module, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if module is mio and getattr(obj, "__module__", None) != mio.__name__:
            continue
        yield prefix + name, obj


def _census():
    found = []
    for label, obj in [*_public(metriclab), *_public(mio, "io."),
                       ("gallery.run_config", gallery.run_config)]:
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        found += _defaulted(obj, label)
        if inspect.isclass(obj):
            for name, member in vars(obj).items():
                if not name.startswith("_") and inspect.isfunction(member):
                    found += _defaulted(member, f"{label}.{name}")
    return sorted(set(found))


def test_every_option_is_listed():
    assert _census() == sorted(OPTIONS)
