"""Statistics on weighted networks under the Gromov-Wasserstein distance.

A measure network is a square real matrix of edge weights, possibly
asymmetric, together with a probability measure on its nodes. This package
computes distances between such networks, aligns them by blowing nodes up
into weighted copies, walks geodesics, takes log/exp maps into a common
tangent space, averages collections by gradient descent, extracts principal
directions, and compresses large networks onto small seeds.
"""
from .networks import (Coupling, DimensionMismatchError, GwnetError,
                       MeasureNetwork, NonFiniteEntryError,
                       NonProbabilityError, NonSquareError, ParseError,
                       SolveReport, network_from_dict, network_to_dict,
                       read_network, uniform_network, validate_network,
                       write_network)
from .linear_ot import InfeasibleMarginalsError, OtProblem, solve_linear_ot
from .gw import (GwParams, NegativeRadicandError, distortion_matrix,
                 gw_distance, gw_gradient, northwest_corner, random_vertex,
                 solve_gw)
from .alignment import (AlignedPair, BlowupPlan, aligned_distance, align,
                        binarize, blow_up, expansion_coupling_source,
                        expansion_coupling_target, support_size,
                        to_vertex_coupling)
from .geodesics import (GeodesicRep, OutOfRangeError, evaluate,
                        geodesic_aligned)
from .tangent import (BaseMismatchError, GeodesicCertificate, TangentVector,
                      exp_map, geodesic_certificate, injectivity_radius,
                      inner_product, log_map, norm, read_tangent,
                      tangent_from_dict, tangent_to_dict, write_tangent)
from .frechet import (FrechetGradient, FrechetParams, FrechetResult,
                      compress_log, compressed_average, frechet_gradient,
                      frechet_loss, frechet_mean, sequential_log)
from .analysis import (PcaResult, TangentDataset, featurize,
                       project_along_component, tangent_pca,
                       vectorize_at_base)
from .experiments import (SbmReport, SbmRun, SbmSpec, asymmetry_sweep,
                          default_sbm_spec, generate_sbm,
                          sbm_compression_experiment, support_size_sweep)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair", "BaseMismatchError", "BlowupPlan", "Coupling",
    "DimensionMismatchError", "FrechetGradient", "FrechetParams",
    "FrechetResult", "GeodesicCertificate", "GeodesicRep", "GwParams",
    "GwnetError", "InfeasibleMarginalsError", "MeasureNetwork",
    "NegativeRadicandError", "NonFiniteEntryError", "NonProbabilityError",
    "NonSquareError", "OtProblem", "OutOfRangeError", "ParseError",
    "PcaResult", "SbmReport", "SbmRun", "SbmSpec", "SolveReport",
    "TangentDataset", "TangentVector",
    "aligned_distance", "align", "asymmetry_sweep", "binarize", "blow_up",
    "compress_log", "compressed_average", "default_sbm_spec",
    "distortion_matrix", "evaluate", "exp_map",
    "expansion_coupling_source", "expansion_coupling_target", "featurize",
    "frechet_gradient", "frechet_loss", "frechet_mean", "generate_sbm",
    "geodesic_aligned", "geodesic_certificate",
    "gw_distance", "gw_gradient", "injectivity_radius", "inner_product",
    "log_map", "network_from_dict", "network_to_dict", "norm",
    "northwest_corner", "project_along_component", "random_vertex",
    "read_network", "read_tangent", "sbm_compression_experiment",
    "sequential_log", "solve_gw", "solve_linear_ot", "support_size",
    "support_size_sweep", "tangent_from_dict", "tangent_pca",
    "tangent_to_dict", "uniform_network", "validate_network",
    "vectorize_at_base", "write_network", "write_tangent",
]
