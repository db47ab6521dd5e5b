"""The flex-offer concept: model, schedules, validation, IO, random baseline.

The paper's central data structure (Figure 1): an immutable profile of
energy-bounded slices with a start-time window, plus scheduled
instantiations, policy validation, and the JSON wire format.

Subsystem contract:

* **Wire-format stability** — :mod:`repro.flexoffer.io` is versioned and
  lossless for offers, aggregates and schedule results (zoned markets
  included); optional keys are omitted when absent so old payloads and
  goldens keep loading, and golden tests pin the encodings.
* **Deterministic identity** — offer ids come from
  :func:`~repro.flexoffer.model.offer_id_scope` namespaces; any code
  minting ids inside a scope gets the same ids in any process or worker.
* **Immutability** — offers are frozen; schedulers and aggregators build
  new objects instead of mutating, so sharing across threads/processes
  is safe by construction.
"""

from repro.flexoffer.generators import (
    RandomGeneratorConfig,
    random_flexoffer,
    random_flexoffers,
)
from repro.flexoffer.io import (
    flexoffer_from_dict,
    flexoffer_to_dict,
    load_flexoffers,
    save_flexoffers,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.flexoffer.model import (
    FlexOffer,
    OfferIdFactory,
    ProfileSlice,
    figure1_flexoffer,
    next_offer_id,
    offer_id_scope,
    uniform_profile,
)
from repro.flexoffer.schedule import (
    ScheduledFlexOffer,
    add_to_series,
    default_schedule,
    schedules_to_series,
)
from repro.flexoffer.validate import PolicyLimits, check_all

__all__ = [
    "RandomGeneratorConfig",
    "random_flexoffer",
    "random_flexoffers",
    "flexoffer_from_dict",
    "flexoffer_to_dict",
    "load_flexoffers",
    "save_flexoffers",
    "schedule_from_dict",
    "schedule_to_dict",
    "FlexOffer",
    "OfferIdFactory",
    "ProfileSlice",
    "figure1_flexoffer",
    "next_offer_id",
    "offer_id_scope",
    "uniform_profile",
    "ScheduledFlexOffer",
    "add_to_series",
    "default_schedule",
    "schedules_to_series",
    "PolicyLimits",
    "check_all",
]
