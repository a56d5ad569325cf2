import pytest

from marc_pnc.channel import PROFILE_PRESETS
from marc_pnc.diversity import DiversityFit, InsufficientDataError, estimate_diversity, probability_window
from marc_pnc.montecarlo import SepCurve, SepPoint, SweepSpec


def synthetic_curve(order: float, snr_db=(10.0, 20.0, 30.0), trials=10**9) -> SepCurve:
    """Points lying exactly on p = snr^-order (snr linear)."""
    points = []
    for s in snr_db:
        p = (10.0 ** (s / 10.0)) ** (-order)
        errors = round(p * trials)
        points.append(
            SepPoint(
                snr_db=s, trials=trials, errors=errors, errors_a=errors, errors_b=errors,
                relay_wrong=errors, errors_relay_correct=errors, errors_relay_wrong=0,
            )
        )
    spec = SweepSpec(snr_points_db=tuple(snr_db), trials_per_point=trials, profile=PROFILE_PRESETS["equal"], seed=0)
    return SepCurve(spec=spec, points=tuple(points))


class TestEstimateDiversity:
    def test_exact_second_order_law(self):
        fit = estimate_diversity(synthetic_curve(2.0), "sep_joint", (0.0, 40.0))
        assert abs(fit.slope - 2.0) < 1e-9
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_first_order_law(self):
        fit = estimate_diversity(synthetic_curve(1.0), "sep_joint", (0.0, 40.0))
        assert abs(fit.slope - 1.0) < 1e-9

    def test_window_restricts_points(self):
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0, 30.0, 40.0, 50.0), trials=10**11)
        fit = estimate_diversity(curve, "sep_joint", (20.0, 40.0))
        assert fit.n_points == 3
        assert fit.fit_window_db == (20.0, 40.0)

    def test_insufficient_points_raise_with_counts(self):
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0))
        with pytest.raises(InsufficientDataError, match="event counts"):
            estimate_diversity(curve, "sep_joint", (0.0, 40.0))

    def test_event_floor_enforced(self):
        # high-SNR point has too few events at order 2 and modest trials
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0, 30.0, 40.0), trials=10**6)
        with pytest.raises(InsufficientDataError):
            estimate_diversity(curve, "sep_joint", (20.0, 45.0), min_events=50)

    def test_absent_conditional_values_skipped(self):
        curve = synthetic_curve(1.0)
        with pytest.raises(InsufficientDataError):
            estimate_diversity(curve, "p_err_rw", (0.0, 40.0))

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown curve field"):
            estimate_diversity(synthetic_curve(1.0), "nope", (0.0, 40.0))

    def test_returns_fit_type(self):
        assert isinstance(estimate_diversity(synthetic_curve(1.5), "sep_joint", (0.0, 40.0)), DiversityFit)


class TestProbabilityWindow:
    def test_selects_inside_open_interval(self):
        curve = synthetic_curve(2.0, snr_db=(10.0, 20.0, 30.0, 40.0))
        # values: 1e-2, 1e-4, 1e-6, 1e-8
        lo, hi = probability_window(curve, "sep_joint", (1e-7, 1e-3))
        assert (lo, hi) == (20.0, 30.0)

    def test_raises_when_empty(self):
        curve = synthetic_curve(2.0)
        with pytest.raises(InsufficientDataError):
            probability_window(curve, "sep_joint", (1e-12, 1e-10))

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown curve field"):
            probability_window(synthetic_curve(2.0), "bogus", (1e-7, 1e-3))
