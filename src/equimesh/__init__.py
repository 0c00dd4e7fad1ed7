"""Morphology-preserving remeshing of genus-0 surfaces and planar contours.

Surfaces are decomposed over spheroidal harmonic bases; remeshing then
moves only the sampling coordinates by nonlinear density-equalizing
diffusion, leaving the harmonic weights — the morphology — untouched.
"""

from .errors import (
    DegenerateMeshError,
    EngineError,
    EquimeshError,
    FoldError,
    FormatError,
    GuardError,
    IntersectionError,
    SingularityError,
    SolverError,
    TopologyError,
)
from .mesh import (
    Contour2D,
    QualityReport,
    TriangleMesh,
    area_density,
    compare_surfaces,
    detect_normal_flips,
    face_metrics,
    icosphere,
    load_mesh,
    quality_report,
    save_mesh,
    vertex_voronoi_areas,
)
from .spheroidal import (
    KINDS,
    OBLATE,
    OBLATE_HEMISPHEROID,
    PROLATE,
    PROLATE_HEMISPHEROID,
    CurvilinearCoords,
    SpheroidDomain,
    align_to_principal_axes,
    fit_domain,
    forward_coords,
    inverse_coords,
    map_to_domain,
    pullback,
    sample_cap_grid,
    sample_icosphere,
    surface_normals,
    xi_of_eta,
)
from .harmonics import (
    ExpansionConfig,
    FourierWeights,
    basis_matrix,
    decompose,
    load_weights,
    psd_descriptors,
    reconstruct_fast,
    reconstruct_full,
    save_weights,
)
from .operators import (
    gradient_operator,
    laplacian_aniso,
    laplacian_iso,
    max_diffusion_rate,
    vertex_mass_matrix,
)
from .solver import StepMatrix, backward_euler_step, solve_sparse
from .diffusion import (
    DiffusionConfig,
    DiffusionTrace,
    diffuse_remesh,
    update_coordinates,
)
from .contour2d import (
    ContourWeights,
    EllipticDomain,
    decompose_contour,
    elliptic_coords,
    fit_ellipse,
    inverse_elliptic,
    reconstruct_contour,
    remesh_contour,
    remesh_microstructure_2d,
    segment_budgets,
)

__version__ = "0.1.0"
