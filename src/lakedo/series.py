"""Per-lake daily time series and its CSV form.

A series carries, for each day: a regime flag (stratified or fully mixed),
layer and total volumes, exogenous oxygen flux rates, sparse noisy
observations, and a standardized feature vector for the learner. Absent
cells (layer volumes on mixed days, unobserved days) are NaN in memory and
empty cells on disk.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DomainError, OrderingError, SchemaError, is_int64

__all__ = [
    "LakeSeries",
    "ValidationReport",
    "TASK_NAMES",
    "stacked_observations",
    "load_series",
    "write_series",
    "validate_series",
    "relative_epi_volume_change",
]

#: Relative tolerance for the stratified-day volume identity v_epi + v_hyp = v_total.
VOLUME_REL_TOL = 1e-9
#: Relative tolerance for the change identity between consecutive stratified days:
#: the epilimnion gains exactly what the hypolimnion loses.
VOLUME_CHANGE_REL_TOL = 1e-9

_BASE_COLUMNS = (
    "date", "regime", "v_total", "v_epi", "v_hyp",
    "f_exo_total", "f_exo_epi", "f_exo_hyp",
    "obs_total", "obs_epi", "obs_hyp",
)
_FLOAT_COLUMNS = _BASE_COLUMNS[2:]
#: Every per-day field of a LakeSeries, in field order, with its dtype.
_DAY_FIELDS = {"dates": np.int64, "stratified": bool,
               **dict.fromkeys(_FLOAT_COLUMNS, np.float64), "features": np.float64}
_FEAT_RE = re.compile(r"^feat_(\d+)$")
#: The three prediction tasks, in the column order of every (T, 3) array.
TASK_NAMES = ("epi", "hyp", "total")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LakeSeries:
    """One lake's daily record. Arrays share length T; features are (T, m)."""

    lake_id: str
    dates: np.ndarray
    stratified: np.ndarray
    v_total: np.ndarray
    v_epi: np.ndarray
    v_hyp: np.ndarray
    f_exo_total: np.ndarray
    f_exo_epi: np.ndarray
    f_exo_hyp: np.ndarray
    obs_total: np.ndarray
    obs_epi: np.ndarray
    obs_hyp: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _DAY_FIELDS.items():
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=dtype)))
        if self.features.ndim != 2:
            raise DomainError("features must be a 2-D array of shape (days, channels)")
        t = self.dates.shape[0]
        for name in list(_DAY_FIELDS)[1:]:
            shape = getattr(self, name).shape
            if (shape[:1] if name == "features" else shape) != (t,):
                raise DomainError(f"{name} must have the same length as dates")

    @property
    def n_days(self) -> int:
        return int(self.dates.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def subseries(self, lo: int, hi: int) -> "LakeSeries":
        """Slice [lo, hi) as a new series of read-only views (dates keep their values)."""
        if not (0 <= lo < hi <= self.n_days):
            raise DomainError(f"invalid slice [{lo}, {hi}) for {self.n_days} days")
        return LakeSeries(lake_id=self.lake_id,
                          **{name: getattr(self, name)[lo:hi] for name in _DAY_FIELDS})


@dataclass(frozen=True)
class ValidationReport:
    """Per-day invariant violations; empty means the series is well formed."""

    entries: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.entries


def validate_series(series: LakeSeries) -> ValidationReport:
    """Check every structural invariant and report (date, message) per violation.

    Entries come day by day and, within a day, in the order of the checks
    below; a date-spacing violation, if any, comes first.
    """
    entries: list[tuple[int, str]] = []
    dates = series.dates
    if dates.size and not np.all(np.diff(dates) == 1):
        bad = int(dates[np.nonzero(np.diff(dates) != 1)[0][0]])
        entries.append((bad, "dates must increase with unit spacing"))
    strat = series.stratified
    mixed = ~strat
    present = {col: np.isfinite(getattr(series, col)) for col in _FLOAT_COLUMNS}
    vt, ve, vh = series.v_total, series.v_epi, series.v_hyp
    layered = strat & present["v_epi"] & present["v_hyp"]
    with np.errstate(invalid="ignore", over="ignore"):
        identity_off = np.abs(ve + vh - vt) > VOLUME_REL_TOL * np.abs(vt)
        # Day t against a layered day t - 1, in the physics kernel's arithmetic,
        # so that every series that loads can be stepped.
        change_off = np.zeros_like(strat)
        change_off[1:] = layered[:-1] & (np.abs((ve[1:] - ve[:-1]) + (vh[1:] - vh[:-1]))
                                         > VOLUME_CHANGE_REL_TOL * (ve[1:] + vh[1:]))
    # Stratified-only and mixed-only checks never fire on the same day, so one
    # list in per-day order covers both branches.
    checks = [
        (~(present["v_total"] & (vt > 0)), "v_total must be positive and finite"),
        (strat & ~(present["v_epi"] & (ve > 0)), "v_epi must be positive on stratified days"),
        (strat & ~(present["v_hyp"] & (vh > 0)), "v_hyp must be positive on stratified days"),
        (layered & identity_off,
         "v_epi + v_hyp must equal v_total on stratified days"),
        (layered & change_off,
         "layer volume changes must cancel: v_epi + v_hyp must not change "
         "from one stratified day to the next"),
        (strat & ~present["f_exo_epi"], "f_exo_epi must be present on stratified days"),
        (strat & ~present["f_exo_hyp"], "f_exo_hyp must be present on stratified days"),
        (strat & present["obs_total"], "obs_total is only defined on mixed days"),
        (mixed & (present["v_epi"] | present["v_hyp"]),
         "layer volumes must be absent on mixed days"),
        (mixed & ~present["f_exo_total"], "f_exo_total must be present on mixed days"),
        (mixed & (present["obs_epi"] | present["obs_hyp"]),
         "layer observations are only defined on stratified days"),
    ]
    for col in ("obs_total", "obs_epi", "obs_hyp"):
        checks.append((present[col] & (getattr(series, col) < 0), f"{col} must be non-negative"))
    checks.append((~np.isfinite(series.features).all(axis=1), "features must be finite"))
    failed = np.stack([mask for mask, _ in checks], axis=1)
    days, which = np.nonzero(failed)
    day_dates = dates[days].tolist()
    entries += [(day, checks[c][1]) for day, c in zip(day_dates, which.tolist())]
    return ValidationReport(entries=tuple(entries))


def stacked_observations(series: LakeSeries) -> np.ndarray:
    """Observations as (T, 3) epi/hyp/total, NaN where absent."""
    return np.stack([series.obs_epi, series.obs_hyp, series.obs_total], axis=1)


def relative_epi_volume_change(series: LakeSeries) -> np.ndarray:
    """Signed day-over-day epilimnion volume change, 0 where either day lacks a layer.

    Reads only `stratified` and `v_epi`, so the generator's draft arrays work too.
    """
    out = np.zeros(series.stratified.shape)
    both = series.stratified.copy()
    both[1:] &= series.stratified[:-1]
    both[0] = False
    idx = np.flatnonzero(both)
    out[idx] = (series.v_epi[idx] - series.v_epi[idx - 1]) / series.v_epi[idx - 1]
    return out


def _parse_float(cell: str, path: Path, day: int, col: str) -> float:
    """A float cell; empty or "nan" is absent, and an infinite value is an error."""
    if cell == "":
        return np.nan
    try:
        value = float(cell)
    except ValueError as exc:
        raise DomainError(f"{path}: day {day}: column {col} is not a number: {cell!r}") from exc
    if math.isinf(value):
        raise DomainError(f"{path}: day {day}: column {col} is not a finite number: {cell!r}")
    return value


def _float_column(body: list[list[str]], c: int) -> np.ndarray:
    column = np.array([float(cell) if cell else np.nan for cell in map(itemgetter(c), body)],
                      dtype=np.float64)
    if np.isinf(column).any():
        raise ValueError("infinite cell")     # the row scan names it
    return column


def _parse_date(cell: str, path: Path, r: int) -> int:
    """A CSV date cell as an int64-range integer; errors name the file and row."""
    try:
        day = int(cell)
    except ValueError as exc:
        raise OrderingError(f"{path}: row {r}: date {cell!r} is not an integer") from exc
    if not is_int64(day):
        raise OrderingError(f"{path}: row {r}: date {cell!r} is out of range")
    return day


def _raise_first_bad_row(path: Path, header: list[str], body: list[list[str]],
                         flag: int, flags: tuple[str, ...]) -> None:
    """Raise the error of the first malformed row, scanning row by row.

    Column flag is text and must hold one of flags; every column after the
    date other than it is a float.
    """
    allowed = ", ".join(map(repr, flags[:-1])) + f" or {flags[-1]!r}"
    for r, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        day = _parse_date(row[0], path, r)
        for c in range(1, len(header)):
            if c != flag:
                _parse_float(row[c], path, day, header[c])
            elif row[c] not in flags:
                raise DomainError(f"{path}: row {r}: {header[c]} must be {allowed}, "
                                  f"got {row[c]!r}")


def _read_csv(path: str | Path) -> list[list[str]]:
    """Every row of a CSV file; malformed quoting is a SchemaError naming row and line.

    A stray quote makes the csv module read on to the next quote, or to the
    end of the file, as one field, and a field past its size limit raises
    csv.Error, which is not a ValueError.
    """
    rows: list[list[str]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows.extend(reader)     # keeps the rows read before an error
        except csv.Error as exc:
            raise SchemaError(f"{path}: row {len(rows) + 1}: malformed CSV up to line "
                              f"{reader.line_num} ({exc}); look for a stray quote") from exc
    return rows


def _parse_rows(path: Path, header: list[str], body: list[list[str]], flag: int,
                flags: tuple[str, ...]) -> tuple[np.ndarray, list[str], list[np.ndarray]]:
    """The int64 dates (column 0), text column flag, and every other column as floats.

    Each column is converted in one pass, so only one column's temporary
    Python objects are alive at a time; only when a conversion fails does a
    row-by-row scan find the first bad row to report.
    """
    try:
        if any(len(row) != len(header) for row in body):
            raise ValueError("ragged rows")
        dates = np.array([int(cell) for cell in map(itemgetter(0), body)], dtype=np.int64)
        text = list(map(itemgetter(flag), body))
        if not set(text) <= set(flags):
            raise ValueError(f"unknown {header[flag]}")
        floats = [_float_column(body, c) for c in range(1, len(header)) if c != flag]
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, header, body, flag, flags)
        raise
    return dates, text, floats


def load_series(path: str | Path) -> LakeSeries:
    """Read one lake CSV; the lake id is the file stem (a leading 'lake_' is dropped)."""
    path = Path(path)
    rows = _read_csv(path)
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header, body = rows[0], rows[1:]

    for i, col in enumerate(_BASE_COLUMNS):
        if i >= len(header) or header[i] != col:
            raise SchemaError(f"{path}: missing or misplaced column {col!r}")
    for j, col in enumerate(header[len(_BASE_COLUMNS):]):
        m = _FEAT_RE.match(col)
        if m is None or int(m.group(1)) != j:
            raise SchemaError(f"{path}: unexpected column {col!r} (expected feat_{j})")

    dates, flags, columns = _parse_rows(path, header, body, 1, ("S", "M"))
    strat = np.array([cell == "S" for cell in flags], dtype=bool)
    floats = dict(zip(_FLOAT_COLUMNS, columns))
    feats = np.empty((len(body), len(columns) - len(_FLOAT_COLUMNS)))
    for j, column in enumerate(columns[len(_FLOAT_COLUMNS):]):
        feats[:, j] = column

    if body and not np.all(np.diff(dates) == 1):
        raise OrderingError(f"{path}: dates must be strictly increasing with unit spacing")
    for col in ("v_total", "v_epi", "v_hyp"):
        bad = np.nonzero(np.isfinite(floats[col]) & (floats[col] <= 0))[0]
        if bad.size:
            raise DomainError(f"{path}: row {bad[0] + 2}: {col} must be positive")

    lake_id = path.stem
    if lake_id.startswith("lake_"):
        lake_id = lake_id[len("lake_"):]
    series = LakeSeries(lake_id=lake_id, dates=dates, stratified=strat, **floats, features=feats)
    report = validate_series(series)
    if not report.ok:
        day, message = report.entries[0]
        raise DomainError(f"{path}: day {day}: {message} ({len(report.entries)} violation(s) total)")
    return series


def format_value(x: float) -> str:
    """Render a float at 17 significant digits; NaN or inf becomes an empty cell."""
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else ""


def _write_rows(path: str | Path, header, lead, floats, trail=()) -> None:
    """Write text columns around float columns as CSV, one `%` template per row.

    The bytes are the csv module's (CRLF row ends) for two or more columns.
    Text cells (ints, flags) are written as they are: they must need no
    quoting and hold no "nan" or "inf". Floats take 17 significant digits;
    NaN and inf become empty cells.
    """
    columns = [*lead, *(np.asarray(c, dtype=np.float64).tolist() for c in floats), *trail]
    row = ",".join(["%s"] * len(lead) + ["%.17g"] * len(floats) + ["%s"] * len(trail)) + "\r\n"
    body = "".join([row % cells for cells in zip(*columns)])
    # %.17g spells a finite float with digits, sign, point and exponent only,
    # so these words are exactly the non-finite cells.
    body = body.replace("-inf", "").replace("inf", "").replace("nan", "")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def write_series(series: LakeSeries, path: str | Path) -> None:
    """Write the CSV form; round-trips through load_series exactly."""
    header = list(_BASE_COLUMNS) + [f"feat_{j}" for j in range(series.n_features)]
    lead = [series.dates.tolist(), ["S" if s else "M" for s in series.stratified.tolist()]]
    floats = [getattr(series, col) for col in _FLOAT_COLUMNS] + list(series.features.T)
    _write_rows(path, header, lead, floats)
