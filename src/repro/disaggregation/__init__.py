"""NILM machinery: baseline removal, event detection, disaggregation, mining.

The substrate of the appliance-level extraction approaches (§4): rolling
baseline removal, greedy template-matching disaggregation, combinatorial
refinement, usage-frequency estimation and habit-window mining.

Subsystem contract:

* **Engine equivalence** — the matching-pursuit engine is selectable via
  ``MatchingConfig(engine=...)``: the vectorized engine (lockstep pursuit
  over a tile of households, shared residual FFT, incremental correlation
  patching) reproduces the seed ``"reference"`` loop's detections within
  ``rtol=1e-9`` on every offer energy, asserted by the fleet benchmark and
  the conformance matrix's ``engine-fidelity`` invariant.
* **Tile independence** — :func:`match_pursuit_many` gives every household
  bitwise the result :func:`match_pursuit` gives it alone, whatever tile it
  shares (pinned by ``tests/data/golden/matching_detections.json``).
* **Determinism** — disaggregation consumes no randomness; identical
  series and database give identical detections in any process.
"""

from repro.disaggregation.baseline import remove_baseline, rolling_baseline
from repro.disaggregation.combinatorial import (
    CombinatorialConfig,
    disaggregate_combinatorial,
)
from repro.disaggregation.events import Edge, detect_edges, pair_edges
from repro.disaggregation.frequency import (
    FrequencyTable,
    ShortlistEntry,
    estimate_frequencies,
)
from repro.disaggregation.matching import (
    DetectionResult,
    MatchingConfig,
    match_pursuit,
    match_pursuit_many,
)
from repro.disaggregation.schedule_mining import (
    MinedSchedule,
    count_day_types,
    mine_schedule,
)

__all__ = [
    "remove_baseline",
    "rolling_baseline",
    "CombinatorialConfig",
    "disaggregate_combinatorial",
    "Edge",
    "detect_edges",
    "pair_edges",
    "FrequencyTable",
    "ShortlistEntry",
    "estimate_frequencies",
    "DetectionResult",
    "MatchingConfig",
    "match_pursuit",
    "match_pursuit_many",
    "MinedSchedule",
    "count_day_types",
    "mine_schedule",
]
