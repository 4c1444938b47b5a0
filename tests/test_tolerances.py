"""The tolerance record is the only tolerance input, and every consumer honours it.

Each case evaluates a consumer on an input just outside the default record,
then again after ``tolerances.configure`` loosens the one field it reads: the
result must flip.
"""

from unittest import mock

import numpy as np
import pytest

from stiefel_sr import cutlocus, matcore, tolerances
from stiefel_sr.cutlocus import (
    BLOCK_DIAGONAL,
    GENERIC,
    VelocityGrid,
    classify_target,
    in_block_diagonal_set,
    is_antidiagonal,
    search_minimizers,
    verify_mirror_arrivals,
)
from stiefel_sr.homspace import BlockVelocity, StiefelPoint, identity_point, project_to_grassmann
from stiefel_sr.matcore import COMPLEX, InvariantViolation

E = 1e-8  # offset of the eq cases: outside eq = 1e-9, inside 1e-7


def _tilted(top: complex) -> StiefelPoint:
    """The unit column (top cos E, sin E) of V(2,1)."""
    return StiefelPoint(np.array([[top * np.cos(E)], [np.sin(E)]]))


def _accepts(check, x) -> bool:
    try:
        check(x, COMPLEX)
    except InvariantViolation:
        return False
    return True


def _mirror_passes_with_shifted_twin() -> bool:
    real = cutlocus.batch_geodesic_columns

    def shifted(a, b, ts, mode=COMPLEX):
        cols = real(a, b, ts, mode)
        cols[2] *= np.exp(1e-6j)  # the random twin lands 1e-6 away
        return cols

    with mock.patch.object(cutlocus, "batch_geodesic_columns", shifted):
        return verify_mirror_arrivals(3, 1, samples=4, seed=2).passed


def _cut_circle_is_one_cluster() -> bool:
    target = StiefelPoint(np.array([[-1.0], [0.0]]))
    grid = VelocityGrid(2, 1, COMPLEX, lambda_count=12, phase_count=12, t_count=96)
    rep = search_minimizers(target, grid)
    assert len(rep.arrivals) >= 2
    return rep.clusters == 1


CASES = {
    "is_horizontal": (
        "sym", 1e-10,
        lambda: BlockVelocity(np.array([[1e-11j]]), np.array([[1.0]])).is_horizontal(),
        False, True,
    ),
    "check_skew_hermitian": (
        "sym", 1e-10,
        lambda: _accepts(matcore.check_skew_hermitian, [[0.0, 1.0], [-1.0 + 1e-11, 0.0]]),
        False, True,
    ),
    "check_unitary": (
        "unit", 1e-8,
        lambda: _accepts(matcore.check_unitary, np.diag([1.0 + 1e-9, 1.0])),
        False, True,
    ),
    "StiefelPoint.same_class": (
        "eq", 1e-7, lambda: _tilted(1.0).same_class(identity_point(2, 1)), False, True,
    ),
    "is_identity_class": ("eq", 1e-7, lambda: _tilted(1.0).is_identity_class(), False, True),
    "GrassmannPoint.same_class": (
        "eq", 1e-7,
        lambda: project_to_grassmann(_tilted(1.0)).same_class(
            project_to_grassmann(identity_point(2, 1))
        ),
        False, True,
    ),
    "in_block_diagonal_set": ("eq", 1e-7, lambda: in_block_diagonal_set(_tilted(1j)), False, True),
    "is_antidiagonal": (
        "eq", 1e-7,
        lambda: is_antidiagonal(StiefelPoint(np.array([[np.sin(E)], [np.cos(E)]]))),
        False, True,
    ),
    "classify_target": (
        "eq", 1e-7, lambda: classify_target(_tilted(1j)).kind, GENERIC, BLOCK_DIAGONAL,
    ),
    "verify_mirror_arrivals": ("hit", 1e-5, _mirror_passes_with_shifted_twin, False, True),
    # a velocity radius larger than the grid collapses the cut circle to one cluster
    "search_minimizers": ("vel", 100.0, _cut_circle_is_one_cluster, False, True),
}


@pytest.mark.parametrize("consumer", sorted(CASES))
def test_configured_record_takes_effect(consumer, default_tolerances):
    field, loosened, evaluate, default_result, configured_result = CASES[consumer]
    assert evaluate() == default_result
    tolerances.configure(**{field: loosened})
    assert evaluate() == configured_result


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"foo": 1.0}, "unknown tolerance 'foo'"),
        ({"hit": [1]}, "tolerance hit must be a number"),
        ({"eq": "loose"}, "tolerance eq must be a number"),
        ({"vel": 0.0}, "tolerance vel must be positive"),
        ({"hit": float("inf")}, "tolerance hit must be positive and finite"),
        ({"vel": "Infinity"}, "tolerance vel must be positive and finite"),
        ({"unit": -float("inf")}, "tolerance unit must be positive and finite"),
        ({"sym": float("nan")}, "tolerance sym must be positive and finite"),
    ],
)
def test_configure_rejects_bad_records(overrides, message, default_tolerances):
    before = tolerances.TOL
    with pytest.raises(ValueError, match=message):
        tolerances.configure(**overrides)
    assert tolerances.TOL is before
