"""Design-matrix construction: splines, dummies, standardization."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from agendascope.design import SPLINE_DEGREE, LinearSpec, build_design
from agendascope.errors import InsufficientData
from oracles import bspline_basis_matrix


def numeric_table(rng, n, with_missing=False):
    table = {
        "gdp_pc": list(rng.uniform(100, 60000, size=n)),
        "year": list(float(y) for y in rng.integers(1970, 2017, size=n)),
        "polity": list(float(p) for p in rng.integers(-10, 11, size=n)),
        "conflict": list(float(c) for c in rng.integers(0, 2, size=n)),
        "region": [("EAS", "ECS", "LCN", "MEA", "NAC", "SAS", "SSA")[i % 7]
                   for i in range(n)],
    }
    if with_missing:
        table["gdp_pc"][3] = None
        table["region"][5] = None
    return table


class TestBuildDesign:
    def test_region_reference_coding(self):
        rng = np.random.default_rng(0)
        built = build_design("region", numeric_table(rng, 40))
        names = built.column_names
        assert names[0] == "(intercept)"
        assert len(names) == 1 + 6  # 7 levels, first dropped
        assert "region=EAS" not in names  # alphabetically first is reference
        assert "region=SSA" in names
        block = built.x[:, 1:]
        assert set(block.ravel().tolist()) <= {0.0, 1.0}
        assert np.all(block.sum(axis=1) <= 1.0)

    def test_spline_partition_of_unity(self):
        rng = np.random.default_rng(1)
        built = build_design("s(gdp_pc,df=10)", numeric_table(rng, 60))
        block = built.x[:, 1:11]
        assert block.shape[1] == 10
        assert np.abs(block.sum(axis=1) - 1.0).max() < 1e-9

    def test_spline_matches_cox_de_boor_recursion(self):
        rng = np.random.default_rng(2)
        table = numeric_table(rng, 50)
        built = build_design("s(year,df=7)", table)
        spec = built.specs[0]
        values = np.array([table["year"][i] for i in built.kept_rows])
        # include the knots themselves plus interior points
        probe = np.unique(np.concatenate([spec.knots, values[:10]]))
        ours = spec.basis(probe)
        oracle = bspline_basis_matrix(probe, spec.knots, SPLINE_DEGREE)
        assert np.abs(ours - oracle).max() < 1e-10

    @pytest.mark.parametrize("df", [4, 6, 10])
    def test_spline_matches_scipy_design_matrix(self, df):
        rng = np.random.default_rng(10 + df)
        table = numeric_table(rng, 80)
        built = build_design(f"s(gdp_pc,df={df})", table)
        spec = built.specs[0]
        values = np.array([table["gdp_pc"][i] for i in built.kept_rows])
        span = spec.hi - spec.lo
        outside = np.array([spec.lo - span, spec.lo - 1e-9, spec.hi + 1e-9,
                            spec.hi + span])
        probe = np.concatenate([values, spec.knots, [spec.lo, spec.hi], outside])
        ours = spec.basis(probe)
        # basis clips to [lo, hi]; scipy evaluates only inside the range
        oracle = BSpline.design_matrix(np.clip(probe, spec.lo, spec.hi),
                                       spec.knots, SPLINE_DEGREE).toarray()
        assert ours.shape == oracle.shape == (probe.size, df)
        assert np.abs(ours - oracle).max() < 1e-14

    def test_continuous_standardized_with_recorded_params(self):
        rng = np.random.default_rng(3)
        table = numeric_table(rng, 30)
        built = build_design("polity + conflict", table)
        linear = {s.name: s for s in built.specs if isinstance(s, LinearSpec)}
        assert set(linear) == {"polity", "conflict"}
        col = built.x[:, built.column_names.index("polity")]
        assert abs(col.mean()) < 1e-12
        assert col.std() == pytest.approx(1.0)
        mean, scale = linear["polity"].mean, linear["polity"].scale
        raw = np.array(table["polity"])
        assert col == pytest.approx((raw - mean) / scale)

    def test_missing_rows_dropped_with_report(self):
        rng = np.random.default_rng(4)
        table = numeric_table(rng, 30, with_missing=True)
        built = build_design("s(gdp_pc,df=4) + region", table)
        assert set(range(30)) - set(built.kept_rows.tolist()) == {3, 5}
        assert built.x.shape[0] == 28

    def test_unreferenced_missing_does_not_drop(self):
        rng = np.random.default_rng(5)
        table = numeric_table(rng, 30, with_missing=True)
        built = build_design("polity", table)
        assert built.kept_rows.tolist() == list(range(30))

    def test_insufficient_rows(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InsufficientData):
            build_design("s(gdp_pc,df=10)", numeric_table(rng, 11))

    def test_transform_round_trips_training_rows(self):
        rng = np.random.default_rng(7)
        table = numeric_table(rng, 40)
        built = build_design("s(year,df=5) + region + polity", table)
        again = built.transform(
            {k: [table[k][i] for i in built.kept_rows]
             for k in ("year", "region", "polity")})
        assert np.array_equal(again, built.x)

    def test_transform_clips_spline_range(self):
        rng = np.random.default_rng(8)
        table = numeric_table(rng, 40)
        built = build_design("s(year,df=5)", table)
        spec = built.specs[0]
        wide = built.transform({"year": [1900.0, 2100.0]})
        clipped = built.transform({"year": [spec.lo, spec.hi]})
        assert np.array_equal(wide, clipped)

    def test_unseen_categorical_level_rejected(self):
        rng = np.random.default_rng(9)
        built = build_design("region", numeric_table(rng, 30))
        with pytest.raises(ValueError):
            built.transform({"region": ["ATL"]})

    def test_constant_spline_column_rejected(self):
        table = {"year": [2000.0] * 30}
        with pytest.raises(InsufficientData):
            build_design("s(year,df=4)", table)
