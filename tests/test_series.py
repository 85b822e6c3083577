"""Lake series CSV round-trips and validation."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lakedo.errors import DomainError, OrderingError, SchemaError
from lakedo.series import (
    VOLUME_CHANGE_REL_TOL,
    VOLUME_REL_TOL,
    _DAY_FIELDS,
    LakeSeries,
    _write_rows,
    format_value,
    load_series,
    validate_series,
    write_series,
)

from conftest import make_series


def sample_series():
    return make_series(
        "MMSSSM",
        v_epi=[np.nan, np.nan, 100.0, 112.5, 120.0, np.nan],
        obs={1: (None, None, 8.1333333333333329), 3: (7.5, 4.25, None)},
        features=np.linspace(-1.0, 1.0, 12).reshape(6, 2),
    )


def per_day_validate(series):
    """Reference validator: the invariants checked one day at a time."""
    entries = []
    dates = series.dates
    if dates.size and not np.all(np.diff(dates) == 1):
        bad = int(dates[np.nonzero(np.diff(dates) != 1)[0][0]])
        entries.append((bad, "dates must increase with unit spacing"))
    for t in range(series.n_days):
        day = int(dates[t])
        if not (np.isfinite(series.v_total[t]) and series.v_total[t] > 0):
            entries.append((day, "v_total must be positive and finite"))
        if series.stratified[t]:
            ve, vh = series.v_epi[t], series.v_hyp[t]
            if not (np.isfinite(ve) and ve > 0):
                entries.append((day, "v_epi must be positive on stratified days"))
            if not (np.isfinite(vh) and vh > 0):
                entries.append((day, "v_hyp must be positive on stratified days"))
            if np.isfinite(ve) and np.isfinite(vh):
                vt = series.v_total[t]
                with np.errstate(invalid="ignore", over="ignore"):
                    off = abs(ve + vh - vt) > VOLUME_REL_TOL * abs(vt)
                if off:
                    entries.append((day, "v_epi + v_hyp must equal v_total on stratified days"))
                ve0, vh0 = (series.v_epi[t - 1], series.v_hyp[t - 1]) if t else (np.nan, np.nan)
                if series.stratified[t - 1] and np.isfinite(ve0) and np.isfinite(vh0):
                    with np.errstate(invalid="ignore", over="ignore"):
                        off = abs((ve - ve0) + (vh - vh0)) > VOLUME_CHANGE_REL_TOL * (ve + vh)
                    if off:
                        entries.append((day, "layer volume changes must cancel: v_epi + v_hyp "
                                             "must not change from one stratified day to the next"))
            for col in ("f_exo_epi", "f_exo_hyp"):
                if not np.isfinite(getattr(series, col)[t]):
                    entries.append((day, f"{col} must be present on stratified days"))
            if np.isfinite(series.obs_total[t]):
                entries.append((day, "obs_total is only defined on mixed days"))
        else:
            if np.isfinite(series.v_epi[t]) or np.isfinite(series.v_hyp[t]):
                entries.append((day, "layer volumes must be absent on mixed days"))
            if not np.isfinite(series.f_exo_total[t]):
                entries.append((day, "f_exo_total must be present on mixed days"))
            if np.isfinite(series.obs_epi[t]) or np.isfinite(series.obs_hyp[t]):
                entries.append((day, "layer observations are only defined on stratified days"))
        for col in ("obs_total", "obs_epi", "obs_hyp"):
            v = getattr(series, col)[t]
            if np.isfinite(v) and v < 0:
                entries.append((day, f"{col} must be non-negative"))
        if not np.all(np.isfinite(series.features[t])):
            entries.append((day, "features must be finite"))
    return tuple(entries)


def per_row_write(series, path):
    """Reference writer: one row and one format_value call per cell."""
    header = ["date", "regime", "v_total", "v_epi", "v_hyp", "f_exo_total",
              "f_exo_epi", "f_exo_hyp", "obs_total", "obs_epi", "obs_hyp"]
    cols = header[2:]
    header += [f"feat_{j}" for j in range(series.n_features)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(series.n_days):
            row = [str(int(series.dates[t])), "S" if series.stratified[t] else "M"]
            row += [format_value(getattr(series, col)[t]) for col in cols]
            row += [format_value(series.features[t, j]) for j in range(series.n_features)]
            writer.writerow(row)


_FIELDS = ("dates", "v_total", "v_epi", "v_hyp", "f_exo_total", "f_exo_epi",
           "f_exo_hyp", "obs_total", "obs_epi", "obs_hyp", "features")
_BAD_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1e-300, 50.0, 1e308)


def corrupted(series, edits):
    """Copy of a series with (field, day, value) cell edits applied."""
    arrays = {f: np.array(getattr(series, f), dtype=np.float64) for f in _FIELDS}
    for field, day, value in edits:
        if field == "features":
            arrays[field][day, day % arrays[field].shape[1]] = value
        elif field == "dates":
            arrays[field][day] += 1 + day
        else:
            arrays[field][day] = value
    arrays["dates"] = arrays["dates"].astype(np.int64)
    return dataclasses.replace(series, **arrays)


class TestRoundTrip:
    def test_load_write_identity(self, tmp_path):
        s = sample_series()
        p = tmp_path / "lake_t0.csv"
        write_series(s, p)
        loaded = load_series(p)
        assert loaded.lake_id == "t0"
        assert np.array_equal(loaded.dates, s.dates)
        assert np.array_equal(loaded.stratified, s.stratified)
        for col in ("v_total", "v_epi", "v_hyp", "f_exo_total", "f_exo_epi",
                    "f_exo_hyp", "obs_total", "obs_epi", "obs_hyp"):
            np.testing.assert_array_equal(getattr(loaded, col), getattr(s, col))
        np.testing.assert_array_equal(loaded.features, s.features)

    def test_write_load_write_is_byte_stable(self, tmp_path):
        s = sample_series()
        p1 = tmp_path / "lake_a.csv"
        p2 = tmp_path / "lake_b.csv"
        write_series(s, p1)
        write_series(load_series(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_rendering_survives(self, tmp_path):
        s = make_series("SS", v_epi=[100.0 + 1e-7, 100.0 + 2e-7],
                        obs={1: (0.1 + 0.2, None, None)})
        p = tmp_path / "lake_t0.csv"
        write_series(s, p)
        loaded = load_series(p)
        assert loaded.obs_epi[1] == 0.1 + 0.2
        assert loaded.v_epi[0] == 100.0 + 1e-7

    @pytest.mark.parametrize("values", [
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324],
        [1e308, -1e-300, 0.1 + 0.2, 2.0 ** 53 + 1, 1.0 / 3.0, -7.0],
    ])
    def test_columnar_writer_matches_per_row_writer(self, tmp_path, values):
        s = sample_series()
        features = np.column_stack([values, values[::-1]])
        s = dataclasses.replace(s, features=features,
                                f_exo_total=np.array(values[::-1]))
        write_series(s, tmp_path / "columns.csv")
        per_row_write(s, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


#: Floats the row writer must spell exactly as format_value does.
_EDGE_FLOATS = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)
_TEXT_CELLS = st.one_of(st.integers(-10**20, 10**20),
                        st.text(alphabet="ABMS0123456789 _-.", max_size=4))


@st.composite
def row_blocks(draw):
    """(lead, float block, trail) columns of one CSV with at least two columns.

    (With one column the csv module quotes an empty cell, to tell the row
    from a blank line; every CSV the program writes has four or more.)
    """
    n_rows = draw(st.integers(0, 6))
    n_lead, n_float, n_trail = draw(st.integers(0, 2)), draw(st.integers(0, 4)), draw(st.integers(0, 2))
    assume(n_lead + n_float + n_trail >= 2)
    cell = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
    block = np.array(draw(st.lists(st.lists(cell, min_size=n_float, max_size=n_float),
                                   min_size=n_rows, max_size=n_rows)),
                     dtype=np.float64).reshape(n_rows, n_float)
    text = [draw(st.lists(_TEXT_CELLS, min_size=n_rows, max_size=n_rows))
            for _ in range(n_lead + n_trail)]
    return text[:n_lead], block, text[n_lead:]


class TestRowWriter:
    @settings(max_examples=100, deadline=None)
    @given(row_blocks())
    def test_matches_csv_module_writer(self, tmp_path_factory, parts):
        # Oracle: the csv module fed one format_value string per float cell.
        lead, block, trail = parts
        header = [f"c{j}" for j in range(len(lead) + block.shape[1] + len(trail))]
        path = tmp_path_factory.mktemp("rows")
        _write_rows(path / "got.csv", header, lead, block.T, trail)
        with open(path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in range(block.shape[0]):
                writer.writerow([col[r] for col in lead]
                                + [format_value(x) for x in block[r]]
                                + [col[r] for col in trail])
        assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


class TestLoadErrors:
    def write_rows(self, tmp_path, header, rows):
        p = tmp_path / "lake_x.csv"
        p.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
        return p

    def base_header(self):
        return ["date", "regime", "v_total", "v_epi", "v_hyp", "f_exo_total",
                "f_exo_epi", "f_exo_hyp", "obs_total", "obs_epi", "obs_hyp", "feat_0"]

    def test_missing_column_named(self, tmp_path):
        header = self.base_header()
        header.remove("v_hyp")
        p = self.write_rows(tmp_path, header, [])
        with pytest.raises(SchemaError, match="v_hyp"):
            load_series(p)

    def test_unknown_column_rejected(self, tmp_path):
        header = self.base_header() + ["surprise"]
        p = self.write_rows(tmp_path, header, [])
        with pytest.raises(SchemaError, match="surprise"):
            load_series(p)

    def test_non_monotone_dates(self, tmp_path):
        rows = [["1", "M", "300", "", "", "0.1", "", "", "", "", "", "0"],
                ["3", "M", "300", "", "", "0.1", "", "", "", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(OrderingError):
            load_series(p)

    def test_nonpositive_volume_names_row(self, tmp_path):
        rows = [["1", "S", "300", "-100", "400", "", "0.2", "-0.4", "", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(DomainError, match="row 2"):
            load_series(p)

    def test_volume_identity_enforced(self, tmp_path):
        rows = [["1", "S", "300", "100", "150", "", "0.2", "-0.4", "", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(DomainError, match="v_epi \\+ v_hyp"):
            load_series(p)

    def test_volume_change_identity_enforced(self, tmp_path):
        # v_total grows 1 % from day 1 to day 2 while each day keeps the
        # identity, so the layer changes do not cancel; the later day is named.
        rows = [["1", "S", "300", "100", "200", "", "0.2", "-0.4", "", "", "", "0"],
                ["2", "S", "303", "101", "202", "", "0.2", "-0.4", "", "", "", "0"],
                ["3", "M", "300", "", "", "0.1", "", "", "", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(DomainError, match=r"lake_x\.csv: day 2: layer volume changes "
                                              r"must cancel.*\(1 violation"):
            load_series(p)

    def test_bad_regime_flag(self, tmp_path):
        rows = [["1", "X", "300", "", "", "0.1", "", "", "", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(DomainError, match="regime"):
            load_series(p)

    @pytest.mark.parametrize("rows, error, message", [
        # A bad cell in row 2 is reported before a bad date in row 3.
        ([["1", "M", "300", "", "", "x", "", "", "", "", "", "0"],
          ["y", "M", "300", "", "", "0.1", "", "", "", "", "", "0"]],
         DomainError, "day 1: column f_exo_total is not a number: 'x'"),
        ([["1", "M", "300", "", "", "0.1", "", "", "", "", "", "0"],
          ["2.5", "Q", "300", "", "", "0.1", "", "", "", "", "", "0"]],
         OrderingError, "row 3: date '2.5' is not an integer"),
        ([["1", "M", "300", "", "", "0.1", "", "", "", "", "", "oops"],
          ["2", "M", "300", "", "", "0.1", "", "", "", ""]],
         DomainError, "day 1: column feat_0 is not a number: 'oops'"),
        ([["1", "M", "300", "", "", "0.1", "", "", "", "", "", "0"],
          ["2", "M", "300", "", "", "0.1", "", "", "", ""],
          ["3", "X", "300", "", "", "0.1", "", "", "", "", "", "0"]],
         SchemaError, "row 3 has 10 cells, expected 12"),
        ([["1", "M", "300", "", "", "0.1", "", "", "", "", "", "0"],
          ["2", "X", "300", "", "", "z", "", "", "", "", "", "0"]],
         DomainError, "row 3: regime must be 'S' or 'M', got 'X'"),
        *(([["1", "M", "300", "", "", "0.1", "", "", "", "", "", "0"],
            ["2", "M", "300", "", "", "0.1", "", "", cell, "", "", "0"]],
           DomainError, f"day 2: column obs_total is not a finite number: {cell!r}")
          for cell in ("inf", "-inf", "1e400", "-Infinity")),
    ], ids=["cell-before-date", "date-before-regime", "cell-before-ragged",
            "ragged-before-regime", "regime-before-cell",
            "inf-cell", "minus-inf-cell", "out-of-range-cell", "minus-infinity-cell"])
    def test_first_bad_row_is_reported(self, tmp_path, rows, error, message):
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(error) as info:
            load_series(p)
        assert str(info.value) == f"{p}: {message}"
        assert type(info.value) is error

    def test_nan_cell_reads_as_absent(self, tmp_path):
        rows = [["1", "M", "300", "", "", "0.1", "", "", "nan", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        assert np.isnan(load_series(p).obs_total[0])

    def test_header_only_file_loads_empty(self, tmp_path):
        p = self.write_rows(tmp_path, self.base_header(), [])
        s = load_series(p)
        assert s.n_days == 0 and s.features.shape == (0, 1)

    def test_observation_on_wrong_regime(self, tmp_path):
        # obs_total on a stratified day violates the placement invariant.
        rows = [["1", "S", "300", "100", "200", "", "0.2", "-0.4", "7.5", "", "", "0"]]
        p = self.write_rows(tmp_path, self.base_header(), rows)
        with pytest.raises(DomainError, match="obs_total"):
            load_series(p)


class TestValidation:
    def test_clean_series_passes(self):
        report = validate_series(sample_series())
        assert report.ok
        assert report.entries == ()

    def test_missing_layer_volume_reported(self):
        s = sample_series()
        v_epi = s.v_epi.copy()
        v_epi[2] = np.nan
        bad = make_series("MMSSSM", v_epi=[np.nan, np.nan, np.nan, 112.5, 120.0, np.nan])
        report = validate_series(bad)
        assert not report.ok
        assert any("v_epi" in msg for _, msg in report.entries)

    def test_negative_observation_reported(self):
        bad = make_series("SS", v_epi=[100.0, 110.0], obs={0: (-0.5, None, None)})
        report = validate_series(bad)
        assert any("non-negative" in msg for _, msg in report.entries)

    @pytest.mark.parametrize("fields", [(f,) for f in _FIELDS] + [_FIELDS],
                             ids=[*_FIELDS, "every-field"])
    @pytest.mark.parametrize("value", _BAD_VALUES)
    def test_matches_per_day_validator_per_field(self, fields, value):
        # One field at a time, then every field on the same day, so that
        # each check fires alone and all fire together in their order.
        s = sample_series()
        for day in range(s.n_days):
            bad = corrupted(s, [(field, day, value) for field in fields])
            assert validate_series(bad).entries == per_day_validate(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_FIELDS), st.integers(0, 5),
                              st.sampled_from(_BAD_VALUES)), max_size=8))
    def test_matches_per_day_validator_on_mixed_corruption(self, edits):
        bad = corrupted(sample_series(), edits)
        assert validate_series(bad).entries == per_day_validate(bad)


class TestSubseries:
    def test_slice_preserves_payload(self):
        s = sample_series()
        sub = s.subseries(2, 5)
        assert sub.n_days == 3
        assert np.array_equal(sub.dates, [3, 4, 5])
        assert sub.obs_epi[1] == 7.5

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            sample_series().subseries(4, 2)


class TestDayFields:
    def test_every_day_field_is_listed(self):
        # __post_init__, subseries and load_series all read the list.
        names = [f.name for f in dataclasses.fields(LakeSeries)]
        assert names[0] == "lake_id" and names[1:] == list(_DAY_FIELDS)

    @pytest.mark.parametrize("name, value", [
        ("obs_hyp", np.zeros(5)),
        ("v_total", np.ones((6, 1))),
        ("features", np.zeros((5, 2))),
    ])
    def test_length_mismatch_names_the_field(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must have the same length as dates$"):
            dataclasses.replace(sample_series(), **{name: value})

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(DomainError, match="2-D"):
            dataclasses.replace(sample_series(), features=np.zeros(6))
