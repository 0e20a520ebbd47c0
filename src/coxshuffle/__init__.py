"""Exact shuffling measures on finite Coxeter groups, semisimple-orbit
models over finite fields, and exhaustive verification of the identities
connecting them."""

from .golden import GoldenRational, Rational, golden_sign
from .group import CoxeterGroup, enumerate_group, get_group
from .lattice import IntersectionLattice, build_lattice, coexponents
from .linalg import Subspace, canonicalize, intersect
from .measures import (
    FaceWeights,
    WMeasure,
    bhr_step,
    convolve,
    face_weights,
    h_measure,
    longshort_values,
    pushforward_classes,
    sommers_identity_check,
    transition_matrix,
)
from .orbits import enumerate_orbits, orbit_class_distribution, orbit_family, phi_map
from .rootdata import RootSystem, affine_data, build_root_system, p_count
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "GoldenRational",
    "Rational",
    "golden_sign",
    "CoxeterGroup",
    "enumerate_group",
    "get_group",
    "IntersectionLattice",
    "build_lattice",
    "coexponents",
    "Subspace",
    "canonicalize",
    "intersect",
    "FaceWeights",
    "WMeasure",
    "bhr_step",
    "convolve",
    "face_weights",
    "h_measure",
    "longshort_values",
    "pushforward_classes",
    "sommers_identity_check",
    "transition_matrix",
    "enumerate_orbits",
    "orbit_class_distribution",
    "orbit_family",
    "phi_map",
    "RootSystem",
    "affine_data",
    "build_root_system",
    "p_count",
    "run_suite",
    "__version__",
]
