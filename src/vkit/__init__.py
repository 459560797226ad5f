"""Computational toolkit for open Vietoris-Rips/Cech/Vietoris complexes,
Wasserstein geometry of finitely supported measures, metric-thickening
covers, Freudenthal-Kuhn triangulations, simplexwise straightening, and
persistent homology over Z/2."""

from .complexes import FilteredComplex, build_cech, build_vietoris, build_vr
from .fk import FKSimplex, FKTriangulation, star_bound
from .measures import (Coupling, FiniteMeasure, barycentric_distance, convex_combine, dirac,
                       wasserstein)
from .metric import Cover, FiniteMetricSpace, space_from_points, validate_metric
from .persistence import PersistenceDiagram, betti_at, compute_diagram, diagram_distance
from .straightening import (CertificationLog, Labeling, SampledMap,
                            SimplexwiseAffineMap, choose_p, label_simplices, linearize,
                            prism_retract, pump_vertex, straighten)
from .thickening import (BumpFunction, build_bump, compare_metrics, pump, pump_coordinate,
                         pump_homotopy, shrink_to_inner)

__version__ = "0.1.0"
