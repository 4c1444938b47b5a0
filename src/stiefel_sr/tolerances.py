"""Shared numerical tolerances.

A single read-only record is the only tolerance input of the library: every
structural check, class comparison and search radius reads ``TOL`` when it
runs, and no function takes a tolerance argument.  The defaults are tuned for
double precision at matrix sizes up to ~32; the CLI may install a modified
record once at startup via :func:`configure` (its config ``tolerances``
record), after which the record is treated as immutable.
"""

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
        if not values[name] > 0:
            raise ValueError(f"tolerance {name} must be positive, got {value!r}")
    TOL = replace(TOL, **values)
    return TOL
