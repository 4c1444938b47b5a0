"""Shared numerical tolerances.

A single read-only record is the only configurable tolerance of the library:
every structural check, class comparison, search acceptance radius and
velocity clustering radius reads ``TOL`` when it runs, and no function takes
a tolerance argument.  A search's dedup radius (1e-6 in
``cutlocus.search_minimizers``) and its minimal-length bands
(``cutlocus._LENGTH_SLACK``, ``cutlocus._PLANE_LENGTH_SLACK``) are fixed
module constants instead, not fields of the record, as are the separation
floors of ``cutlocus.uniqueness_case_checks``.  The defaults are tuned for
double precision at matrix sizes up to ~32; the CLI may install a modified
record once at startup via :func:`configure` (its config ``tolerances``
record), after which the record is treated as immutable.
"""

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """Tolerance record.

    sym: allowed deviation from skew-Hermitian symmetry.
    unit: allowed deviation from unitarity (and from det=+1 in real mode).
    eq: entrywise tolerance when comparing canonical representatives; looser
        than ``unit`` to absorb accumulated exponential error along curves.
    hit: endpoint acceptance radius for cut-locus searches (>= 10 * eq).
    vel: velocity distinctness threshold when clustering minimizers.
    """

    sym: float = 1e-12
    unit: float = 1e-10
    eq: float = 1e-9
    hit: float = 1e-8
    vel: float = 1e-3


TOL = Tolerances()


def configure(**overrides) -> Tolerances:
    """Replace the global tolerance record (intended for program startup only)."""
    global TOL
    names = tuple(f.name for f in fields(Tolerances))
    values = {}
    for name, value in overrides.items():
        if name not in names:
            raise ValueError(f"unknown tolerance {name!r}; expected one of {names}")
        try:
            values[name] = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"tolerance {name} must be a number, got {value!r}") from None
        if not 0 < values[name] < math.inf:
            raise ValueError(f"tolerance {name} must be positive and finite, got {value!r}")
    TOL = replace(TOL, **values)
    return TOL
