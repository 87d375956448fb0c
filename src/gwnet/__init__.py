"""Statistics on weighted networks under the Gromov-Wasserstein distance.

A measure network is a square real matrix of edge weights, possibly
asymmetric, together with a probability measure on its nodes. This package
computes distances between such networks, aligns them by blowing nodes up
into weighted copies, walks geodesics, takes log/exp maps into a common
tangent space, averages collections by gradient descent, extracts principal
directions, and compresses large networks onto small seeds.
"""
from .networks import (Coupling, GwnetError, MeasureNetwork, SolveReport,
                       read_network, write_network)
from .linear_ot import OtProblem, solve_linear_ot
from .gw import (GwParams, distortion_matrix, gw_distance, random_vertex,
                 solve_gw)
from .alignment import AlignedPair, aligned_distance, blow_up
from .geodesics import GeodesicRep, evaluate, geodesic_aligned
from .tangent import TangentVector, exp_map, log_map
from .frechet import (FrechetGradient, FrechetParams, FrechetResult,
                      compressed_average, frechet_gradient, frechet_mean)
from .analysis import (PcaResult, featurize, project_along_component,
                       tangent_pca, vectorize_at_base)
from .experiments import (SbmReport, SbmRun, SbmSpec, asymmetry_sweep,
                          default_sbm_spec, generate_sbm,
                          sbm_compression_experiment, support_size_sweep)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair", "Coupling", "FrechetGradient", "FrechetParams",
    "FrechetResult", "GeodesicRep", "GwParams", "GwnetError",
    "MeasureNetwork", "OtProblem", "PcaResult", "SbmReport", "SbmRun",
    "SbmSpec", "SolveReport", "TangentVector",
    "aligned_distance", "asymmetry_sweep", "blow_up",
    "compressed_average", "default_sbm_spec",
    "distortion_matrix", "evaluate", "exp_map", "featurize",
    "frechet_gradient", "frechet_mean", "generate_sbm",
    "geodesic_aligned", "gw_distance",
    "log_map", "project_along_component", "random_vertex",
    "read_network", "sbm_compression_experiment",
    "solve_gw", "solve_linear_ot",
    "support_size_sweep", "tangent_pca",
    "vectorize_at_base", "write_network",
]
