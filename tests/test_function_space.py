import math

import numpy as np
import pytest

from levyhjmm.function_space import (
    WeightedCurve,
    cumulative_trapezoid,
    l1_bound_check,
    norm_h1gamma,
    norm_l2gamma,
    read_curve_csv,
    sup_bound_check,
    trapezoid,
    weighted_l2,
)
from levyhjmm.grids import SolveGrid


def curve(f, dx, x_max, gamma=1.0):
    """f on the nodes 0, dx, ..., x_max."""
    return WeightedCurve(dx, f(dx * np.arange(round(x_max / dx) + 1)), gamma)


def exp_curve(dx=1e-3, x_max=40.0, gamma=1.0):
    return curve(lambda x: np.exp(-x), dx, x_max, gamma)


def random_spline_curve(rng, dx=1.0 / 256, x_max=8.0, gamma=1.0):
    """Nonnegative smooth curve through random knots (clipped cubic spline)."""
    from scipy.interpolate import CubicSpline

    knots = np.linspace(0.0, x_max, 9)
    vals = rng.uniform(0.0, 2.0, size=knots.size)
    vals[-1] = 0.0
    cs = CubicSpline(knots, vals)
    xs = np.arange(int(round(x_max / dx)) + 1) * dx
    return WeightedCurve(dx=dx, values=np.clip(cs(xs), 0.0, None), gamma=gamma)


class TestL2Norm:
    def test_exponential_curve(self):
        # int e^{-2x} e^{x} dx = 1
        assert norm_l2gamma(exp_curve()) == pytest.approx(1.0, abs=1e-5)

    def test_zero_curve(self):
        c = WeightedCurve(dx=0.1, values=np.zeros(11), gamma=1.0)
        assert norm_l2gamma(c) == 0.0

    def test_shifted_exponential(self):
        # e^{-(t+x)} with t = ln 2 scales the norm by e^{-t} = 1/2
        t = math.log(2.0)
        c = curve(lambda x: np.exp(-(t + x)), 1e-3, 40.0)
        assert norm_l2gamma(c) == pytest.approx(0.5, abs=1e-5)

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(0)
        c = random_spline_curve(rng)
        assert norm_l2gamma(c.scaled(3.0)) == pytest.approx(3.0 * norm_l2gamma(c), rel=1e-15)

    @pytest.mark.parametrize("k", [-530, 600, 1000])
    def test_power_of_two_scales_exactly(self, k):
        # |h|^2 is subnormal at 2^-530 and beyond double range at 2^600
        c = random_spline_curve(np.random.default_rng(1))
        assert norm_l2gamma(c.scaled(2.0**k)) == 2.0**k * norm_l2gamma(c)


class TestWeightedL2:
    def test_rows_match_the_trapezoid_formula_bit_for_bit(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((3, 4, 50)) * 10.0 ** rng.uniform(-20, 20, size=(3, 4, 1))
        weights = np.exp(0.7 * 0.05 * np.arange(50))
        want = np.sqrt(trapezoid(y**2 * weights, dx=0.05, axis=-1))
        # any fixed bound will do, its row sup included
        for bound in (np.max(np.abs(y), axis=-1), np.full((3, 1), 7.5), 0.0):
            assert np.array_equal(weighted_l2(y, 0.05, weights, bound), want)

    def test_off_panels_are_left_out(self):
        y = np.array([[1.0, 2.0, np.nan, np.nan], [3.0, 4.0, 5.0, np.nan]])
        off = np.array([[False, True, True], [False, False, True]])
        got = weighted_l2(y, 0.5, np.ones(4), np.array([2.0, 5.0]), off)
        assert np.array_equal(got, [math.sqrt(0.25 * (1 + 4)), math.sqrt(0.25 * (9 + 2 * 16 + 25))])


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("dx", [1.0 / 16, 0.1, 1.0, 3.0])
    def test_matches_the_trapezoid_formula_bit_for_bit(self, dx):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, 40)) * 10.0 ** rng.uniform(-20, 20, size=(3, 1))
        want = np.zeros_like(y)
        want[:, 1:] = np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]), axis=-1) * dx
        assert np.array_equal(cumulative_trapezoid(y, dx), want)

    def test_finite_integral_near_the_double_range(self):
        # y[0] + y[1] tops the double range, the integral does not
        y = np.full(4, 2.0**1023)
        with np.errstate(all="raise"):
            got = cumulative_trapezoid(y, 1.0 / 16)
        assert np.array_equal(got, [0.0, 2.0**1019, 2.0**1020, 3 * 2.0**1019])


class TestH1Norm:
    def test_exponential_curve(self):
        assert norm_h1gamma(exp_curve()) == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_zero_curve(self):
        c = WeightedCurve(dx=0.1, values=np.zeros(11), gamma=1.0)
        assert norm_h1gamma(c) == 0.0

    def test_x_exp_curve_against_quadrature_oracle(self):
        # oracle (scipy.integrate.quad, run separately):
        #   int x^2 e^{-2x} e^x dx = 2, int (1-x)^2 e^{-2x} e^x dx = 1
        # frozen value sqrt(3)
        c = curve(lambda x: x * np.exp(-x), 1e-3, 40.0)
        assert norm_h1gamma(c) == pytest.approx(1.7320508075688772, abs=1e-4)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            norm_h1gamma(WeightedCurve(dx=0.1, values=np.array([1.0, 2.0]), gamma=1.0))

    def test_discretization_second_order(self):
        errs = []
        for dx in (2.0**-6, 2.0**-7):
            c = exp_curve(dx, 30.0)
            errs.append(abs(norm_l2gamma(c) - 1.0))
        assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.1)


class TestShift:
    """The shift semigroup S_t h = h(t + .): row i of `SolveGrid.shifted`,
    valid up to the row's width."""

    def test_norm_contraction_bound(self):
        # change of variables: ||S_t h||^2 = e^{-gamma t} int_t^inf h^2 e^{gamma u} du
        grid = SolveGrid(t_star=1.0, dt=1e-3, x_max=39.0)
        c = WeightedCurve(grid.dt, np.exp(-grid.x_wide), 1.0)
        i = grid.n_t  # t = 1
        s = WeightedCurve(grid.dt, grid.shifted(c.values)[i, : grid.row_width(i) + 1], 1.0)
        bound = math.exp(-0.5) * norm_l2gamma(c)
        got = norm_l2gamma(s)
        assert got <= bound + 1e-6
        # for h = e^{-x}, gamma = 1 the actual decay is e^{-t}
        assert got == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_semigroup_law(self):
        # S_{1/2} S_{1/2} h = S_1 h: row 4 read from node 4 is row 8, NaN beyond the triangle included
        grid = SolveGrid(t_star=1.0, dt=0.125, x_max=8.0)
        rows = grid.shifted(np.exp(-grid.x_wide))
        np.testing.assert_array_equal(grid.shifted(rows[4])[4], rows[8])
        assert np.isnan(rows[8, grid.row_width(8) + 1 :]).all()


class TestEmbeddingBounds:
    def test_sup_bound_exponential(self):
        res = sup_bound_check(exp_curve())
        assert res.value == pytest.approx(1.0)
        assert res.bound == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
        assert res.holds

    def test_sup_bound_zero(self):
        c = WeightedCurve(dx=0.1, values=np.zeros(11), gamma=1.0)
        res = sup_bound_check(c)
        assert res.value == 0.0 and res.holds

    def test_l1_bound_equality_case(self):
        # e^{-x} with gamma = 1 makes Cauchy-Schwarz an equality: both sides 1
        res = l1_bound_check(exp_curve())
        assert res.value == pytest.approx(1.0, abs=1e-5)
        assert res.bound == pytest.approx(1.0, abs=1e-5)
        assert res.holds

    def test_random_spline_curves(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = random_spline_curve(rng)
            assert sup_bound_check(c).holds
            assert l1_bound_check(c).holds


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        c = exp_curve(dx=0.25, x_max=4.0)
        target = tmp_path / "curve.csv"
        target.write_text("x,value\n" + "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(c.x, c.values)))
        back = read_curve_csv(target, gamma=1.0)
        assert back.dx == c.dx
        np.testing.assert_array_equal(back.values, c.values)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("x,value\n", "fewer than 2 data rows"),
            ("x,value\n0.0,1.0\n", "fewer than 2 data rows"),
            ("x,value,extra\n0.0,1.0,2.0\n0.5,1.0,2.0\n", "3 columns"),
        ],
        ids=["header_only", "one_row", "three_columns"],
    )
    def test_malformed_file_names_itself(self, tmp_path, text, match):
        # np.loadtxt gives a 1-D array for one row and for none, which
        # indexing by column would turn into an IndexError
        target = tmp_path / "curve.csv"
        target.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            read_curve_csv(target, gamma=1.0)
        assert str(target) in str(info.value)

    def test_curve_not_starting_at_zero_rejected(self, tmp_path):
        # every reader takes values[0] as the value at x = 0
        target = tmp_path / "curve.csv"
        target.write_text("x,value\n" + "".join(f"{0.5 + 0.25 * k!r},{k!r}\n" for k in range(5)))
        with pytest.raises(ValueError, match="not at x=0"):
            read_curve_csv(target, gamma=1.0)


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            WeightedCurve(dx=0.1, values=np.array([0.0, np.nan, 1.0]), gamma=1.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            WeightedCurve(dx=0.1, values=np.zeros(5), gamma=0.0)

    @pytest.mark.parametrize("name", ["dx", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            WeightedCurve(**{"dx": 0.1, "gamma": 1.0, name: value}, values=np.zeros(5))
