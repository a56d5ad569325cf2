import numpy as np
import pytest

from marc_pnc.channel import PROFILE_PRESETS
from marc_pnc.diversity import DiversityFit, InsufficientDataError, estimate_diversity
from marc_pnc.montecarlo import SepCurve, SepPoint, SweepSpec


def curve_of(errors_by_snr: dict[float, int], trials: int) -> SepCurve:
    """A curve whose points hold the given error counts in every counter
    but ``errors_relay_wrong``."""
    points = tuple(
        SepPoint(
            snr_db=s, trials=trials, errors=e, errors_a=e, errors_b=e,
            relay_wrong=e, errors_relay_correct=e, errors_relay_wrong=0,
        )
        for s, e in errors_by_snr.items()
    )
    spec = SweepSpec(snr_points_db=tuple(errors_by_snr), trials_per_point=trials, profile=PROFILE_PRESETS["equal"], seed=0)
    return SepCurve(spec=spec, points=points)


def synthetic_curve(order: float, snr_db=(10.0, 20.0, 30.0), trials=10**9) -> SepCurve:
    """Points lying exactly on p = snr^-order (snr linear)."""
    return curve_of({s: round((10.0 ** (s / 10.0)) ** (-order) * trials) for s in snr_db}, trials)


class TestEstimateDiversity:
    def test_exact_second_order_law(self):
        fit = estimate_diversity(synthetic_curve(2.0))
        assert abs(fit.slope - 2.0) < 1e-9
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_first_order_law(self):
        fit = estimate_diversity(synthetic_curve(1.0))
        assert abs(fit.slope - 1.0) < 1e-9

    def test_window_restricts_points(self):
        # values 1e-2 ... 1e-10; the 50 dB point has 10 events
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0, 30.0, 40.0, 50.0), trials=10**11)
        fit = estimate_diversity(curve, "sep_joint", (1e-9, 1e-3))
        assert fit.n_points == 3
        assert fit.fit_window_db == (20.0, 40.0)

    def test_insufficient_points_raise_with_counts(self):
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0))
        with pytest.raises(InsufficientDataError) as info:
            estimate_diversity(curve)
        assert str(info.value) == (
            "need >= 3 points with >= 50 events for 'sep_joint' inside (0.0, inf); "
            "event counts: {10.0: 10000000, 20.0: 100000}"
        )

    def test_event_floor_enforced(self):
        # values 1e-2 ... 1e-8 with 10,000, 100, 1 and 0 events: inside the
        # band only the 20 dB point has enough
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0, 30.0, 40.0), trials=10**6)
        with pytest.raises(InsufficientDataError, match=r"event counts: \{10.0: 10000, 20.0: 100, 30.0: 1, 40.0: 0\}"):
            estimate_diversity(curve, "sep_joint", (1e-9, 1e-3))

    def test_absent_conditional_values_skipped(self):
        curve = synthetic_curve(1.0)
        with pytest.raises(InsufficientDataError):
            estimate_diversity(curve, "p_err_rw")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown curve field"):
            estimate_diversity(synthetic_curve(1.0), "nope")

    def test_returns_fit_type(self):
        assert isinstance(estimate_diversity(synthetic_curve(1.5)), DiversityFit)

    def test_bare_call_fits_every_point_with_enough_events(self):
        # events 1e7, 1e5, 1e3 and 10: the 40 dB point falls under the floor
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0, 30.0, 40.0))
        fit = estimate_diversity(curve)
        assert (fit.n_points, fit.fit_window_db) == (3, (10.0, 30.0))
        assert abs(fit.slope - 2.0) < 1e-9


class TestProbabilityWindow:
    def test_selects_inside_open_interval(self):
        # values 1e-2, 1e-3, ..., 1e-8: the two on the band's edges are out
        curve = synthetic_curve(2.0, snr_db=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0), trials=10**11)
        fit = estimate_diversity(curve, "sep_joint", (1e-8, 1e-2))
        assert (fit.n_points, fit.fit_window_db) == (5, (15.0, 35.0))

    def test_raises_when_empty(self):
        with pytest.raises(InsufficientDataError, match=r"inside \(1e-12, 1e-10\)"):
            estimate_diversity(synthetic_curve(2.0), "sep_joint", (1e-12, 1e-10))

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown curve field"):
            estimate_diversity(synthetic_curve(2.0), "bogus", (1e-7, 1e-3))

    def test_point_outside_band_inside_its_span_is_fitted(self):
        # 20 dB reads 1e-1, above the band, but lies between in-band points
        errors = {10.0: 10**6, 20.0: 10**8, 30.0: 10**5, 40.0: 10**4}
        fit = estimate_diversity(curve_of(errors, 10**9), "sep_joint", (1e-6, 1e-2))
        assert (fit.n_points, fit.fit_window_db) == (4, (10.0, 40.0))
        x = np.array(list(errors)) / 10.0
        y = -np.log10(np.array(list(errors.values())) / 10**9)
        assert fit.slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)
