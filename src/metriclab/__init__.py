"""metriclab: discrete metric geometry on gridded domains.

Metric tensors sampled on grids over intervals, squares, cubes, hexagons,
cylinders, tori, spheres and projective planes; exact stencil-graph
distances, systoles with loop witnesses, volume and coarea measures,
Besicovitch certificates, partitions of unity and nerves, separating cuts
and width certificates, plus a CLI gallery that reproduces the classical
constants (Loewner, Pu) and inequalities under grid refinement.
"""

from .besicovitch import (
    BesicovitchReport,
    boundary_degree,
    cylinder_check,
    equality_flatness,
    face_distance_map,
    jacobian_bound_check,
    verify_besicovitch,
)
from .covers import (
    Cover,
    MetricGraph,
    NerveComplex,
    PartitionOfUnity,
    circle_graph,
    nerve,
    partition_of_unity,
    slicing_cover,
    star_graph,
    width0,
)
from .fields import (
    FieldError,
    MetricField,
    conformal_metric,
    conformal_rescale,
    constant_metric,
    flat_metric,
    piecewise_metric,
    polyline_length,
    random_spd_metric,
    round_sphere_metric,
)
from .geodesy import (
    LoopWitness,
    RadiusResult,
    distance_field,
    distance_matrix,
    face_distance,
    min_antipodal_distance,
    radius,
    set_radius_exact,
    set_radius_upper,
    shortest_loop_in_class,
    systole,
)
from .grid import (
    DomainTopology,
    Grid,
    GridError,
    antipode,
    build_grid,
    cube,
    cylinder,
    deck_translate,
    face_vertices,
    hexagon,
    interval,
    rp2,
    sphere2,
    square,
    stencil_offsets,
    topology_from_name,
    torus2,
)
from .measure import (
    CoareaProfile,
    VolumeProfileTable,
    ball_volume,
    coarea_profile,
    hausdorff_conversion,
    level_set_measure,
    region_volume,
    volume,
    volume_profile,
)
from .width import (
    SeparatingCut,
    WidthCertificate,
    check_sys_width,
    check_width_volume,
    field_hash,
    separating_cut,
    validate_certificate,
    width_upper_bound,
)

__version__ = "0.1.0"
