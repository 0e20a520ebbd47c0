"""Exact shuffling measures on finite Coxeter groups, semisimple-orbit
models over finite fields, and exhaustive verification of the identities
connecting them.

The public names below load their submodule on first use (PEP 562), so
that importing one submodule, say ``coxshuffle.orbits``, does not load the
group, lattice and measure code as well."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    "GoldenRational": "golden",
    "Rational": "golden",
    "golden_sign": "golden",
    "CoxeterGroup": "group",
    "enumerate_group": "group",
    "get_group": "group",
    "IntersectionLattice": "lattice",
    "build_lattice": "lattice",
    "Subspace": "linalg",
    "canonicalize": "linalg",
    "FaceWeights": "measures",
    "WMeasure": "measures",
    "bhr_step": "measures",
    "convolve": "measures",
    "face_weights": "measures",
    "h_measure": "measures",
    "longshort_values": "measures",
    "pushforward_classes": "measures",
    "sommers_identity_check": "measures",
    "enumerate_orbits": "orbits",
    "orbit_class_distribution": "orbits",
    "orbit_family": "orbits",
    "phi_map": "orbits",
    "RootSystem": "rootdata",
    "affine_data": "rootdata",
    "build_root_system": "rootdata",
    "p_count": "rootdata",
    "run_suite": "suites",
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
