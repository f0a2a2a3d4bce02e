"""Branch-prediction substrate.

SimpleSMT inherits SimpleScalar's predictors; the paper's BRCOUNT policy
and COND_BR heuristic condition both key off conditional-branch density and
misprediction rate, so the predictor's *accuracy profile per thread* is the
behaviour that must be faithful. Provided: 2-bit bimodal, gshare, and a
simple BTB, all with SMT-aware (thread-tagged) global history.
"""

from repro.branch.base import BranchPredictor
from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GsharePredictor
from repro.branch.local import LocalHistoryPredictor
from repro.branch.tournament import TournamentPredictor


def create_predictor(name: str, entries: int = 2048, max_threads: int = 16) -> BranchPredictor:
    """Build a predictor by config name."""
    if name == "bimodal":
        return BimodalPredictor(entries)
    if name == "gshare":
        return GsharePredictor(entries, max_threads=max_threads)
    if name == "local":
        return LocalHistoryPredictor(pattern_entries=entries)
    if name == "tournament":
        return TournamentPredictor(chooser_entries=entries)
    raise KeyError(f"unknown predictor {name!r}")
