"""Stabilizer-free weak Galerkin Poisson solver on 2D polytopal meshes.

Discrete functions carry separate cell-interior and edge polynomials tied
together only through a weak gradient taken in a piecewise Raviart-Thomas
space on each cell's fan sub-triangulation.  The resulting scheme needs no
penalty term and converges one order above optimal in both the energy norm
and L2.
"""

from .analysis import (
    CASES,
    ConvergenceTable,
    ErrorReport,
    ManufacturedCase,
    energy_error,
    get_case,
    l2_projection_error,
    rate,
    run_convergence,
)
from .localspaces import (
    DofMap,
    LambdaBasis,
    LocalCellOperators,
    OperatorCache,
    OperatorStack,
    build_dof_map,
    build_lambda_basis,
    dim_pk,
    expected_lambda_dim,
    project_qb,
)
from .polymesh import (
    GENERATORS,
    PolyMesh,
    generate_hex_grid,
    generate_quad_grid,
    generate_square_grid,
    read_mesh,
    write_mesh,
)
from .quadrature import (
    QuadRule,
    segment_rule,
    triangle_rule,
)
from .wgsolve import (
    SparseSymSystem,
    WGSolution,
    assemble,
    solve,
)

__version__ = "0.1.0"
