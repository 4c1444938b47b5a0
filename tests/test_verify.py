"""The closed-form verification suites' injected phase fault."""

import numpy as np

from stiefel_sr import verify


class TestV21Suite:
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
