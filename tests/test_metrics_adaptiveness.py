"""Degree of adaptiveness: closed forms, DP, and brute-force agreement."""

from math import factorial, isclose

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    average_degree,
    duato_path_count,
    duato_ratio,
    ecube_ratio,
    efa_path_count,
    efa_ratio,
    empirical_degree,
    figure5_series,
    total_virtual_paths,
)
from repro.routing import (
    DimensionOrderHypercube,
    DuatoFullyAdaptiveHypercube,
    EnhancedFullyAdaptive,
)
from repro.topology import build_hypercube


class TestClosedForms:
    def test_ecube_half_at_distance_two(self):
        # "nonadaptive routing can use half the paths when the distance
        #  between the source and destination is two hops"
        assert ecube_ratio(2) == 0.5

    def test_duato_recurrence(self):
        for k in range(1, 8):
            assert duato_path_count(k) == factorial(k + 1)
            assert isclose(duato_ratio(k), (k + 1) / 2**k)

    def test_all_ratios_one_at_distance_one(self):
        assert ecube_ratio(1) == duato_ratio(1) == efa_ratio(1) == 1.0

    def test_total_virtual_paths(self):
        assert total_virtual_paths(2, 2) == 8
        assert total_virtual_paths(3, 1) == 6


class TestEFACounting:
    def test_all_negative_is_fully_free(self):
        # mu always negative: the first class is unrestricted -> all k!*2^k
        for k in range(1, 7):
            assert efa_path_count(tuple("-" * k)) == total_virtual_paths(k, 2)

    def test_known_distance_two_values(self):
        assert efa_path_count(("-", "-")) == 8
        assert efa_path_count(("-", "+")) == 8
        assert efa_path_count(("+", "-")) == 6
        assert efa_path_count(("+", "+")) == 6
        assert isclose(efa_ratio(2), 28 / 32)

    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=7))
    def test_bounds_property(self, signs):
        signs = tuple(signs)
        k = len(signs)
        count = efa_path_count(signs)
        # at least Duato's count (EFA is a relaxation), at most everything
        assert duato_path_count(k) <= count <= total_virtual_paths(k, 2)

    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=5))
    def test_flipping_to_negative_never_hurts(self, signs, pos):
        # a negative hop only ever *adds* first-class freedom
        signs = tuple(signs)
        pos = pos % len(signs)
        relaxed = signs[:pos] + ("-",) + signs[pos + 1:]
        assert efa_path_count(relaxed) >= efa_path_count(signs)


class TestFigure5:
    @pytest.fixture(scope="class")
    def series(self):
        return figure5_series(12)

    def test_shape_monotone_decreasing(self, series):
        for key in ("e-cube", "duato", "enhanced"):
            vals = series[key]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_ordering_enhanced_above_duato_above_ecube(self, series):
        for i, n in enumerate(series["dimension"]):
            if n == 1:
                continue
            assert series["enhanced"][i] > series["duato"][i] > series["e-cube"][i]

    def test_starts_at_one(self, series):
        assert series["e-cube"][0] == series["duato"][0] == series["enhanced"][0] == 1.0

    def test_paper_scale_at_dimension_12(self, series):
        # shape check: e-cube collapses, Enhanced retains over half
        assert series["e-cube"][-1] < 0.05
        assert series["enhanced"][-1] > 0.5
        assert 0.1 < series["duato"][-1] < 0.3


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n", [2, 3])
    def test_efa(self, n):
        net = build_hypercube(n, num_vcs=2)
        emp = empirical_degree(EnhancedFullyAdaptive(net), vcs=2)
        assert isclose(emp, average_degree(n, efa_ratio), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_duato(self, n):
        net = build_hypercube(n, num_vcs=2)
        emp = empirical_degree(DuatoFullyAdaptiveHypercube(net), vcs=2)
        assert isclose(emp, average_degree(n, duato_ratio), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_ecube(self, n):
        net = build_hypercube(n, num_vcs=1)
        emp = empirical_degree(DimensionOrderHypercube(net), vcs=1)
        assert isclose(emp, average_degree(n, ecube_ratio), rel_tol=1e-12)
