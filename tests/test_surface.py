"""The public surface: ``censet.__all__`` and each analysis module's names.

A public name is a function or class defined in the module whose name does
not start with ``_``.  A name added or removed here is an API change, so it
shows up as a diff in this file.
"""

import importlib
import inspect

import pytest

import censet

PACKAGE = [
    "ModeError",
    "ParseError",
    "ValidationError",
    "certificate",
    "geometry",
    "parse_observations",
    "per_token_cap",
    "symmetric_sup",
]

MODULES = {
    "identified_set": [
        "SetGeometry", "diameter", "geometry", "per_token_cap", "token_cap",
    ],
    "minimax": [
        "Certificate", "certificate", "g_max", "reserve", "symmetric_sup",
        "verdicts",
    ],
    "normalized": ["TailCondition", "allocation_diameter", "tail_geometry"],
    "numerics": [
        "NumericPolicy", "columns", "expit", "libm", "load_policy_file",
        "logsumexp", "logsumexp_rows", "policy", "use_policy",
    ],
    "observation": [
        "AccessMode", "ModeError", "ObservationBatch", "ParseError",
        "TopKObservation", "ValidationError", "from_pairs",
        "parse_observations", "serialize_observations",
    ],
    "reference": [
        "CoverageError", "ReferenceBound", "ReferenceLogits", "calibrate_rho",
        "reference_geometry",
    ],
    "simulate": [
        "DirichletSoftmax", "GaussianIID", "PeakedHead", "SweepRow",
        "SyntheticTeacherConfig", "average_risk", "censor", "generate_teacher",
        "ksweep", "score_sorted",
    ],
}


def _public_names(module) -> list[str]:
    return sorted(
        name
        for name, obj in vars(module).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


def test_package_namespace():
    assert sorted(censet.__all__) == PACKAGE


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_surface(name):
    assert _public_names(importlib.import_module(f"censet.{name}")) == MODULES[name]


# bench/spans.py traces every public function of these modules and checks
# each wrapper's call count against sys.setprofile, which counts every
# resume of a generator as one more call: a public generator fails that check
TRACED_MODULES = [
    "cli", "identified_set", "minimax", "normalized", "observation",
    "reference", "simulate",
]


@pytest.mark.parametrize("name", TRACED_MODULES)
def test_no_public_generator(name):
    module = importlib.import_module(f"censet.{name}")
    assert [
        public for public in _public_names(module)
        if inspect.isgeneratorfunction(getattr(module, public))
    ] == []
