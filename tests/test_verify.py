import math

from ksub.verify import CheckReport, _Worst


class TestWorst:
    def test_keeps_largest_magnitude(self):
        worst = _Worst()
        worst.update(0.5, "a")
        worst.update(-2.0, "b")
        worst.update(1.0, "c")
        assert (worst.value, worst.location) == (2.0, "b")

    def test_nan_wins_and_stays(self):
        worst = _Worst()
        worst.update(1e-9, "a")
        worst.update(math.nan, "b")
        worst.update(5.0, "c")
        worst.update(math.nan, "d")
        assert math.isnan(worst.value) and worst.location == "b"
        report = CheckReport.from_residual("x", worst.value, 1e-6)
        assert report.status == "fail"
