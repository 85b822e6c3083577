"""Output checks for the benchmark: each returns a list of problems (empty = pass).

The checks read the files the CLI wrote, through the package's own loaders
where the file format has one (`load_series`, `load_truth`,
`load_checkpoint`), and otherwise as plain CSV. The truth check carries
its own copy of the substepped Euler day so that it does not trust the
integrator it is checking.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from lakedo.networks import load_checkpoint
from lakedo.series import load_series, validate_series
from lakedo.synthetic import load_truth

#: Relative tolerance of the truth re-integration: loose enough for a
#: reordering of the same arithmetic (the match is exact today). A truth
#: integrated at k=96 or k=191 instead of 192 misses it on 451 of the 537
#: stratified days of a 3-year lake; the other days have no volume change.
TRUTH_RTOL = 1e-12


def output_digest(directory: Path) -> tuple[str, dict[str, str]]:
    """SHA-256 of every output file except manifest.json, plus a combined digest."""
    files = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        files[path.relative_to(directory).as_posix()] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in files.items()).encode())
    return combined.hexdigest(), files


def load_corpus(data_dir: Path) -> tuple[dict, dict, list[str]]:
    """Reload every lake and truth file; every lake must pass validate_series."""
    lakes, truths, problems = {}, {}, []
    files = sorted(p for p in data_dir.glob("lake_*.csv") if not p.stem.endswith("_truth"))
    if not files:
        problems.append(f"{data_dir}: no lake files")
    for path in files:
        try:
            series = load_series(path)
            _, truth, _ = load_truth(path.with_name(f"{path.stem}_truth.csv"))
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        report = validate_series(series)
        if not report.ok:
            problems.append(f"{path.name}: {report.entries[:1]}")
        if truth.shape != (series.n_days, 3):
            problems.append(f"{path.name}: truth has {truth.shape[0]} rows, "
                            f"series {series.n_days}")
        lakes[series.lake_id] = series
        truths[series.lake_id] = truth
    return lakes, truths, problems


def check_corpus_shape(lakes: dict, n_lakes: int, n_days: int) -> list[str]:
    problems = []
    if len(lakes) != n_lakes:
        problems.append(f"expected {n_lakes} lakes, found {len(lakes)}")
    problems += [f"lake {i}: {s.n_days} days, expected {n_days}"
                 for i, s in lakes.items() if s.n_days != n_days]
    return problems


def reference_truth_days(series, truth: np.ndarray, k: int):
    """Every stratified day re-integrated from the previous day's truth at k substeps.

    Same arithmetic as the generator's clamped k-substep Euler day, written
    out independently and vectorized over days.
    """
    strat = series.stratified
    days = np.flatnonzero(strat[1:] & strat[:-1]) + 1
    prev = days - 1
    y_e, y_h = truth[prev, 0], truth[prev, 1]
    f_e, f_h = series.f_exo_epi[prev], series.f_exo_hyp[prev]
    ve_p, ve_c = series.v_epi[prev], series.v_epi[days]
    vh_p, vh_c = series.v_hyp[prev], series.v_hyp[days]
    dt_sub = 1.0 / k
    dv = (ve_c - ve_p) / k
    grow = ve_c >= ve_p
    for i in range(k):
        t0, t1 = i / k, (i + 1) / k
        ve1 = ve_p * (1.0 - t1) + ve_c * t1
        vh1 = vh_p * (1.0 - t1) + vh_c * t1
        ve0 = ve_p * (1.0 - t0) + ve_c * t0
        vh0 = vh_p * (1.0 - t0) + vh_c * t0
        src = np.where(grow, y_h, y_e)
        m_e = y_e * ve0 + f_e * dt_sub * ve_p
        m_h = y_h * vh0 + f_h * dt_sub * vh_p
        y_e = np.maximum(m_e / ve1 + dv * src / ve1, 0.0)
        y_h = np.maximum(m_h / vh1 + -dv * src / vh1, 0.0)
    return days, y_e, y_h


def check_truth_substeps(lakes: dict, truths: dict, k: int) -> list[str]:
    """Gate: every stratified day of the truth was integrated at k substeps."""
    problems = []
    for lake_id, series in lakes.items():
        truth = truths[lake_id]
        days, ref_e, ref_h = reference_truth_days(series, truth, k)
        got = truth[days, :2]
        ref = np.column_stack([ref_e, ref_h])
        bad = ~(np.abs(got - ref) <= TRUTH_RTOL * np.maximum(np.abs(ref), 1.0))
        if bad.any():
            day = int(series.dates[days[np.flatnonzero(bad.any(axis=1))[0]]])
            problems.append(f"lake {lake_id}: {int(bad.any(axis=1).sum())} of "
                            f"{days.size} stratified days differ from a k={k} "
                            f"integration (first at date {day})")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _floats(cells: list[str]) -> list[float]:
    """Parse cells, NaN for empty ones; a non-number raises ValueError."""
    return [float(c) if c else math.nan for c in cells]


def read_history(path: Path) -> list[list[float]]:
    rows = _read_csv(path)
    return [_floats(r) for r in rows[1:]]


def check_history(history: list[list[float]], expected_epochs: int) -> list[str]:
    """Gate: exactly the fixed epoch count ran, with finite losses and RMSEs."""
    problems = []
    if len(history) != expected_epochs:
        problems.append(f"history has {len(history)} epochs, expected {expected_epochs}")
    if [int(r[0]) for r in history] != list(range(1, len(history) + 1)):
        problems.append("history epochs are not numbered 1..n")
    if not all(math.isfinite(x) for r in history for x in r):
        problems.append("history holds a non-finite value")
    return problems


def check_checkpoint(path: Path, hidden_size: int, discriminator: bool) -> list[str]:
    try:
        predictor, disc = load_checkpoint(path)
    except (ValueError, OSError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    if predictor is None or predictor.hidden_size != hidden_size:
        problems.append(f"{path.name}: no predictor of hidden size {hidden_size}")
    if discriminator and disc is None:
        problems.append(f"{path.name}: no discriminator section")
    return problems


def check_labels(train_dir: Path, lakes: dict, k_drastic: int) -> list[str]:
    """Every stratified day has a label; gate: some day is DRASTIC at k_drastic."""
    problems = []
    drastic = 0
    for lake_id, series in lakes.items():
        path = train_dir / f"labels_{lake_id}.csv"
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        rows = _read_csv(path)[1:]
        labelled = [int(r[0]) for r in rows]
        expected = [int(d) for d in series.dates[series.stratified]]
        if labelled != expected:
            problems.append(f"{path.name}: {len(labelled)} labels for "
                            f"{len(expected)} stratified days")
        drastic += sum(1 for r in rows if r[1] == "DRASTIC" and int(r[3]) == k_drastic)
    if not drastic:
        problems.append(f"no DRASTIC day at k={k_drastic}: stage 3 did no substepped work")
    return problems


def check_timeseries(eval_dir: Path, lakes: dict) -> list[str]:
    """One row per day, every present cell finite, predictions present per regime."""
    problems = []
    for lake_id, series in lakes.items():
        path = eval_dir / f"timeseries_{lake_id}.csv"
        try:
            rows = [_floats(r) for r in _read_csv(path)[1:]]
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if len(rows) != series.n_days:
            problems.append(f"{path.name}: {len(rows)} rows for {series.n_days} days")
            continue
        table = np.array(rows)
        if not np.array_equal(table[:, 0], series.dates):
            problems.append(f"{path.name}: dates do not match the lake")
        if np.isinf(table).any():
            problems.append(f"{path.name}: infinite cell")
        strat = series.stratified
        present = np.isfinite(table[:, 1:4])
        if not (present[strat, :2].all() and present[~strat, 2].all()):
            problems.append(f"{path.name}: a regime-defined prediction is missing")
    return problems


def read_comparison(path: Path) -> dict[str, float]:
    header, *rows = _read_csv(path)
    if len(rows) != 1:
        raise ValueError(f"{path.name}: {len(rows)} model rows, expected 1")
    return dict(zip(header[1:], _floats(rows[0][1:])))


def check_comparison(path: Path) -> list[str]:
    try:
        values = read_comparison(path)
    except (ValueError, OSError) as exc:
        return [str(exc)]
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    return [f"{path.name}: non-finite {bad}"] if bad else []


def validation_counts(lakes: dict, train_years: int, window_days: int) -> np.ndarray:
    """Observed validation cells per task (epi, hyp, total), as the trainer pools them."""
    counts = np.zeros(3)
    for series in lakes.values():
        lo = train_years * window_days
        hi = (series.n_days // window_days) * window_days
        for task, obs in enumerate((series.obs_epi, series.obs_hyp, series.obs_total)):
            counts[task] += np.isfinite(obs[lo:hi]).sum()
    return counts


def best_epoch_val_rmse_hyp(history: list[list[float]], counts: np.ndarray) -> float:
    """Hypolimnion validation RMSE at the epoch with the lowest pooled RMSE.

    The trainer selects on the RMSE pooled over all observed cells, which is
    the count-weighted root mean square of the per-task RMSEs.
    """
    rmse = np.array([r[5:8] for r in history])
    pooled = np.sqrt((rmse ** 2 * counts).sum(axis=1) / counts.sum())
    return float(rmse[int(np.argmin(pooled)), 1])
