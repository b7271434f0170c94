"""Exact line-bundle sheaf cohomology dimensions on simplicial projective toric varieties.

The main entry points::

    from toric_cohomology import load_bundled, cohomology
    model = load_bundled("P2")
    cohomology(model, (-3,)).dims   # (0, 0, 1)

plus an independent fan-route oracle (`cohomology_via_fan`), Hochster and
Serre duality self-checks, and the underlying simplicial / counting
toolkits.  All arithmetic is exact.
"""

from .counting import INFINITE, CountResult, format_rationom, recession_test
from .engine import (
    CohomologyEngine,
    CohomologyResult,
    cohomology,
    engine_for,
    enumerate_neg_group,
    neg_group_count,
    serre_check,
)
from .errors import ModelError, NonFiniteCohomologyError
from .model import (
    ToricVarietyModel,
    bundled_model_names,
    canonical_class,
    load_bundled,
    load_variety,
    parse_variety,
    sr_from_max_cones,
)
from .multiplicity import multiplicity_factors, multiplicity_table
from .oracle import FanOracle, cohomology_via_fan, fan_complex, hochster_check, oracle_for
from .simplicial import FaceSet, reduced_homology, restrict
from .srscan import DegreeSet, scan_powerset

__version__ = "0.1.0"

__all__ = [
    "CohomologyEngine",
    "CohomologyResult",
    "CountResult",
    "DegreeSet",
    "FaceSet",
    "FanOracle",
    "INFINITE",
    "ModelError",
    "NonFiniteCohomologyError",
    "ToricVarietyModel",
    "bundled_model_names",
    "canonical_class",
    "cohomology",
    "cohomology_via_fan",
    "engine_for",
    "enumerate_neg_group",
    "fan_complex",
    "format_rationom",
    "hochster_check",
    "load_bundled",
    "load_variety",
    "multiplicity_factors",
    "multiplicity_table",
    "neg_group_count",
    "oracle_for",
    "parse_variety",
    "recession_test",
    "reduced_homology",
    "restrict",
    "scan_powerset",
    "serre_check",
    "sr_from_max_cones",
]
