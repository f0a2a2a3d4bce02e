"""The policy-determination heuristics (Determine_NewPolicy(), §4.3.3)."""

from repro.core.heuristics.base import Heuristic
from repro.core.heuristics.type1 import Type1Heuristic
from repro.core.heuristics.type2 import Type2Heuristic
from repro.core.heuristics.type3 import Type3Heuristic, Type3GradientHeuristic
from repro.core.heuristics.type4 import Type4Heuristic

#: Heuristic registry in the paper's naming: type1, type2, type3,
#: type3g (the paper's "Type 3'"), type4.
HEURISTICS = {
    "type1": Type1Heuristic,
    "type2": Type2Heuristic,
    "type3": Type3Heuristic,
    "type3g": Type3GradientHeuristic,
    "type4": Type4Heuristic,
}

#: Display names matching the paper's figures.
HEURISTIC_LABELS = {
    "type1": "Type 1",
    "type2": "Type 2",
    "type3": "Type 3",
    "type3g": "Type 3'",
    "type4": "Type 4",
}


def create_heuristic(name: str, **kwargs) -> Heuristic:
    """Instantiate a heuristic by registry name."""
    try:
        cls = HEURISTICS[name]
    except KeyError:
        raise KeyError(f"unknown heuristic {name!r}; known: {sorted(HEURISTICS)}") from None
    return cls(**kwargs)

