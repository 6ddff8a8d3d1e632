"""The nine cost objectives from the paper (Section 4).

Every plan is annotated with a 9-dimensional cost vector; an optimization
run selects a subset of objectives and works on the projected vectors.
The vector layout is fixed: index ``obj.index`` of a full cost tuple holds
the cost for objective ``obj``.

The objectives and their combination semantics follow Section 4 of the
paper: total/startup time use Postgres-style formulas, the five resource
objectives (IO, CPU, cores, disk, buffer) enable higher concurrency when
minimized, energy follows Flach-style formulas (not always correlated with
time because of parallelization overhead), and tuple loss follows
``1 - (1 - a) * (1 - b)`` (computed as ``a + b - a * b`` when both
losses are below 1/2, see :mod:`repro.cost.model`).
"""

from __future__ import annotations

import enum
from typing import Sequence


class Objective(enum.Enum):
    """One of the nine implemented cost objectives.

    The enum value is the objective's fixed position in full cost tuples.
    """

    TOTAL_TIME = 0
    STARTUP_TIME = 1
    IO_LOAD = 2
    CPU_LOAD = 3
    CORES = 4
    DISK_FOOTPRINT = 5
    BUFFER_FOOTPRINT = 6
    ENERGY = 7
    TUPLE_LOSS = 8

    @property
    def index(self) -> int:
        """Position of this objective in a full cost tuple."""
        return self.value

    @property
    def unit(self) -> str:
        """Human-readable unit of the objective's cost values."""
        return _UNITS[self]

    @property
    def bounded_domain(self) -> tuple[float, float] | None:
        """``(lo, hi)`` if the objective has an a-priori bounded domain.

        Only tuple loss is a-priori bounded (to ``[0, 1]``); the paper's
        bound generator draws bounds for such objectives uniformly from
        the domain instead of relative to the per-objective optimum.
        """
        if self is Objective.TUPLE_LOSS:
            return (0.0, 1.0)
        return None

    @property
    def description(self) -> str:
        """One-line description of the objective."""
        return _DESCRIPTIONS[self]


_UNITS = {
    Objective.TOTAL_TIME: "pg-cost-units",
    Objective.STARTUP_TIME: "pg-cost-units",
    Objective.IO_LOAD: "pages",
    Objective.CPU_LOAD: "pg-cpu-units",
    Objective.CORES: "cores",
    Objective.DISK_FOOTPRINT: "bytes",
    Objective.BUFFER_FOOTPRINT: "bytes",
    Objective.ENERGY: "energy-units",
    Objective.TUPLE_LOSS: "fraction",
}

_DESCRIPTIONS = {
    Objective.TOTAL_TIME: "time until all result tuples are produced",
    Objective.STARTUP_TIME: "time until the first result tuple is produced",
    Objective.IO_LOAD: "number of page reads/writes issued by the plan",
    Objective.CPU_LOAD: "accumulated CPU work over all cores",
    Objective.CORES: "number of cores the plan occupies",
    Objective.DISK_FOOTPRINT: "bytes of temporary disk space (spills)",
    Objective.BUFFER_FOOTPRINT: "peak buffer memory held by the plan",
    Objective.ENERGY: "energy consumption (Flach-style model)",
    Objective.TUPLE_LOSS: "expected fraction of result tuples lost to sampling",
}

#: All nine objectives in vector order.
ALL_OBJECTIVES: tuple[Objective, ...] = tuple(
    sorted(Objective, key=lambda o: o.index)
)

#: Number of implemented objectives.
NUM_OBJECTIVES = len(ALL_OBJECTIVES)


def objective_indices(objectives: Sequence[Objective]) -> tuple[int, ...]:
    """Vector positions for a (duplicate-free) objective selection."""
    seen: set[Objective] = set()
    indices: list[int] = []
    for objective in objectives:
        if objective in seen:
            raise ValueError(f"duplicate objective: {objective}")
        seen.add(objective)
        indices.append(objective.index)
    return tuple(indices)


def parse_objective(name: str) -> Objective:
    """Resolve an objective from its enum name (case-insensitive)."""
    try:
        return Objective[name.upper()]
    except KeyError:
        valid = ", ".join(o.name.lower() for o in ALL_OBJECTIVES)
        raise ValueError(f"unknown objective {name!r}; expected one of: {valid}")
