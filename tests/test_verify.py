"""The closed-form verification suites: their injected phase fault and their stacked references."""

import json

import numpy as np
import pytest

from _oracles import v21_suite_loop

from stiefel_sr import verify


class TestV21Suite:
    @pytest.mark.parametrize("seed", [0, 4, 17])
    def test_report_matches_per_trial_scalar_draws(self, seed):
        # one (trials, 4) uniform draw is the per-trial loop's stream
        for trials in (1, 7, 300):
            for sign_flip in (False, True):
                report = verify.v21_suite(trials, seed, sign_flip=sign_flip)
                loop = v21_suite_loop(trials, seed, sign_flip=sign_flip)
                assert json.dumps(report) == json.dumps(loop)

    def test_sign_flip_is_the_phase_factor_on_the_first_entry(self, monkeypatch):
        calls, errors = [], []
        closed_form, suite_result = verify.geodesic_v21_closed, verify._suite_result

        def recording_closed_form(lam, x2, t):
            calls.append((lam, t, closed_form(lam, x2, t)))
            return calls[-1][2]

        def recording_result(name, trials, errs):
            errors.append(np.reshape(errs, (trials, 4)))
            return suite_result(name, trials, errs)

        monkeypatch.setattr(verify, "geodesic_v21_closed", recording_closed_form)
        monkeypatch.setattr(verify, "_suite_result", recording_result)
        right = verify.v21_suite(32, seed=5)
        flipped = verify.v21_suite(32, seed=5, sign_flip=True)
        assert right["pass"] and not flipped["pass"]
        lam, t, (g1, *_) = calls[0]
        # entries g2, g3, g4 are untouched; g1 (within 1e-12 of the reference)
        # is off by exactly the phase factor e^{i lam t}
        assert np.array_equal(errors[1][:, 1:], errors[0][:, 1:])
        assert np.max(errors[0]) < 1e-12
        assert np.allclose(errors[1][:, 0], np.abs(g1 * (np.exp(1j * lam * t) - 1.0)), atol=1e-12)


def test_references_are_stacked_exponentials(monkeypatch):
    # one exponential per suite, one per block size in the Grassmann suite:
    # no per-trial call
    stacks = []
    expm_skew = verify.matcore.expm_skew

    def counted(x, *args, **kwargs):
        stacks.append(np.shape(x)[:-2])
        return expm_skew(x, *args, **kwargs)

    monkeypatch.setattr(verify.matcore, "expm_skew", counted)
    suites = verify.closed_form_suites(60, seed=3)
    assert all(s["pass"] for s in suites)
    assert len(stacks) <= 2 + verify._GRASSMANN_MAX_K
    assert sum(int(np.prod(shape)) for shape in stacks) == 3 * 60
