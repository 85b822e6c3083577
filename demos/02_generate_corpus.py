"""
Synthetic lake corpus in five minutes
=====================================

Generate a small two-lake corpus, look at what is in it, and write the
series and truth files the command-line tools consume.
"""

import tempfile
from pathlib import Path

import numpy as np

from lakedo.series import write_series
from lakedo.synthetic import GenConfig, generate, write_truth

cfg = GenConfig(n_lakes=2, n_years=2, seed=7)
lakes = generate(cfg)

for lake in lakes:
    s = lake.series
    print(f"\nlake {s.lake_id}: {s.n_days} days, "
          f"{int(s.stratified.sum())} stratified")
    # Regime runs: one starts on day 0 and wherever the regime flips.
    starts = np.r_[0, np.flatnonzero(np.diff(s.stratified)) + 1]
    ends = np.append(starts[1:], s.n_days) - 1
    for start, end in list(zip(starts, ends))[:6]:
        regime = "stratified" if s.stratified[start] else "mixed"
        print(f"  {regime:>10s}  dates {s.dates[start]}..{s.dates[end]}")

    obs_cells = int(np.isfinite(s.obs_epi).sum() + np.isfinite(s.obs_hyp).sum()
                    + np.isfinite(s.obs_total).sum())
    print(f"  observed cells: {obs_cells} "
          f"({obs_cells / (3 * s.n_days):.1%} of the grid)")

    # Injected stress events: 'A' collapses the hypolimnion tenfold, 'B'
    # does the same to the epilimnion. Both leave a one-day volume jump
    # the adaptive trainer later flags as drastic.
    for day in np.flatnonzero(lake.scenario_tags != ""):
        kind = lake.scenario_tags[day]
        print(f"  scenario {kind} on day {day}: v_epi "
              f"{s.v_epi[day - 1]:,.0f} -> {s.v_epi[day]:,.0f}")

    clamped = int(lake.clamped.sum())
    print(f"  days on the oxygen floor (anoxia clamp): {clamped}")

out = Path(tempfile.mkdtemp(prefix="lakedo_corpus_"))
for lake in lakes:
    write_series(lake.series, out / f"lake_{lake.series.lake_id}.csv")
    write_truth(out / f"lake_{lake.series.lake_id}_truth.csv", lake)
print(f"\nwrote series + truth files to {out}")
print("the same corpus comes from: lakedo generate --config <json> --out <dir>")
