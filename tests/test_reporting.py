import pytest

from neuromesh.reporting import share_with_interval, wilson_interval

CASES = [(0, 1), (1, 1), (0, 20), (3, 20), (10, 20), (20, 20), (45, 200), (1, 1000)]


class TestWilsonInterval:
    @pytest.mark.parametrize("k, n", CASES)
    def test_contains_the_point_estimate_inside_unit_range(self, k, n):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
        assert lo < hi

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_ends_are_exact_at_zero_and_all(self, n):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0

    def test_known_value(self):
        # 45 of 200 at z = 1.96: centre 0.2302, half-width 0.0576, worked by hand.
        lo, hi = wilson_interval(45, 200)
        assert lo == pytest.approx(0.1726, abs=1e-4)
        assert hi == pytest.approx(0.2877, abs=1e-4)

    def test_symmetric_under_complement(self):
        lo, hi = wilson_interval(3, 20)
        assert wilson_interval(17, 20) == pytest.approx((1.0 - hi, 1.0 - lo))

    @pytest.mark.parametrize("k, n", [(0, 0), (-1, 5), (6, 5)])
    def test_rejects_impossible_counts(self, k, n):
        with pytest.raises(ValueError):
            wilson_interval(k, n)

    def test_summary_text(self):
        assert share_with_interval(0, 4) == "0/4 = 0.0 % (95 % CI 0.0-49.0 %)"
