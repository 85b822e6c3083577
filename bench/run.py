"""lakedo benchmark: the CLI run the way users run it, one child process per command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is taken from `src/` next to this
directory; without it the benchmark exits with code 2 and prints no result.

Workloads (why each exists: bench/RATIONALE.md):
  gen-truth   `lakedo generate` on whole 3-year lakes, default physics
  pril-fixed  `lakedo train --mode pril`, fixed epoch count, set-up corpus
  april-eval  `lakedo train --mode april --k 12`, then `lakedo evaluate --k 192`

A run sets up (several times, reporting the median as setup_s), then repeats
the workload's commands until their summed wall time reaches --seconds.
Every iteration uses the same seed, so every iteration must write the same
bytes; the first iteration's outputs are checked in full. With --trace 1 each
iteration is run twice, plain and through bench/tracer.py, and the per-layer
metrics come from the traced copy, whose outputs must match byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1). The full record (environment, per-command samples, output
SHA-256 digests, spans) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Output digests per workload and seed at the commit that added the benchmark.
BASELINE = BENCH_DIR / "baseline_sha256.json"

#: The whole run must end within 180 s; leave room for checks and cleanup.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 3

#: Fixed for every child so that both sides of a comparison run alike.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}

YEAR_DAYS = 365
N_YEARS = 3
TRAIN_YEARS = 2          # TrainConfig default: two training windows per lake
HIDDEN = 30
K_DRASTIC = 12
K_REFERENCE = 192
TRUTH_SUBSTEPS = 192     # GenConfig default, used by gen-truth

GEN_TRUTH = {"schema": "lakedo-generate-v1", "n_lakes": 1, "n_years": N_YEARS}
# Default corpus shape (4 lakes x 3 years: 8 training windows, one full batch);
# a reduced truth_substeps keeps set-up short and does not change the
# trainer's work.
CORPUS = {"schema": "lakedo-generate-v1", "n_lakes": 4, "n_years": N_YEARS,
          "truth_substeps": 2}
PRIL_EPOCHS = 8
PRIL = {"schema": "lakedo-train-v1", "lambda_epi": 10.0, "lambda_hyp": 10.0,
        "lambda_total": 10.0, "learning_rate": 0.02, "hidden_size": HIDDEN,
        "batch_size": 8, "max_epochs": PRIL_EPOCHS, "patience": PRIL_EPOCHS}
APRIL_STAGE1, APRIL_STAGE3 = 6, 4
APRIL = dict(PRIL, max_epochs=APRIL_STAGE1, patience=APRIL_STAGE1,
             april={"finetune_epochs": APRIL_STAGE3, "k_drastic": K_DRASTIC})

WORKLOADS = ("gen-truth", "pril-fixed", "april-eval")
LAYERS = ("physics", "synthetic", "series", "autodiff", "networks", "losses",
          "training", "adaptive", "evaluate", "cli")
PROVENANCES = ("VOLUME_RULE", "ERROR_RULE", "DISCRIMINATOR", "FALLBACK")


def summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it.

    Under 20 samples that percentile lies below the median, so only the
    median and the count are given.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


class Run:
    """One benchmark run: child processes, timings and the failure ledger."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rss_mb: list[float] = []
        self.digests: dict[str, str] = {}

    # -- failure accounting ------------------------------------------------
    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{name}: {p}" for p in problems]
        return not problems

    # -- child processes -----------------------------------------------------
    def spawn(self, argv: list[str], log_name: str) -> tuple[int, float, float]:
        """Run one child to completion; returns (exit code, wall s, max RSS MB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0.0
        with open(self.dir / f"{log_name}.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, argv: list[str], label: str, log_name: str,
            spans: Path | None = None) -> tuple[bool, float, float]:
        if spans is None:
            cmd = [sys.executable, "-m", "lakedo.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                   log_name, "--", *argv]
        code, wall, rss = self.spawn(cmd, log_name)
        problems = [] if code == 0 else [f"exit code {code}, see {log_name}.log"]
        return self.record(f"command {label}", problems), wall, rss

    # -- workload definition ---------------------------------------------------
    def commands(self, tag: str) -> list[tuple[str, list[str]]]:
        seed = str(self.seed)
        if self.workload == "gen-truth":
            return [("generate", ["generate", "--config", "gen.json",
                                  "--out", f"{tag}/gen", "--seed", seed])]
        if self.workload == "pril-fixed":
            return [("train", ["train", "--mode", "pril", "--data", "corpus",
                               "--out", f"{tag}/train", "--config", "train.json",
                               "--seed", seed])]
        return [("train", ["train", "--mode", "april", "--data", "corpus",
                           "--out", f"{tag}/train", "--config", "train.json",
                           "--seed", seed, "--k", str(K_DRASTIC)]),
                ("evaluate", ["evaluate", f"{tag}/train/checkpoint.csv",
                              "--data", "corpus", "--out", f"{tag}/eval",
                              "--config", "train.json", "--k", str(K_REFERENCE)])]

    def setup(self) -> list[float]:
        """Configs, then the set-up command SETUP_REPEATS times; returns its walls.

        gen-truth needs no corpus: its set-up is the CLI start-up alone
        (`lakedo --help`). The training workloads generate their corpus, and
        the repeats must agree byte for byte.
        """
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.workload == "gen-truth":
            (self.dir / "gen.json").write_text(json.dumps(GEN_TRUTH))
            argv = ["--help"]
        else:
            (self.dir / "corpus.json").write_text(json.dumps(CORPUS))
            config = PRIL if self.workload == "pril-fixed" else APRIL
            (self.dir / "train.json").write_text(json.dumps(config))
        walls = []
        for i in range(SETUP_REPEATS):
            if self.workload != "gen-truth":
                argv = ["generate", "--config", "corpus.json", "--out", f"corpus{i}",
                        "--seed", str(self.seed)]
            ok, wall, _ = self.cli(argv, "setup", f"setup{i}")
            if not ok:
                return []
            walls.append(wall)
        if self.workload != "gen-truth":
            import checks
            first = checks.output_digest(self.dir / "corpus0")[0]
            for i in range(1, SETUP_REPEATS):
                same = checks.output_digest(self.dir / f"corpus{i}")[0] == first
                self.record("corpus repeat identical",
                            [] if same else [f"corpus{i} differs from corpus0"])
                shutil.rmtree(self.dir / f"corpus{i}")
            (self.dir / "corpus0").rename(self.dir / "corpus")
            self.digests["corpus"] = first
        return walls

    def iterate(self, tag: str, traced: bool) -> float | None:
        """One pass over the workload's commands; total wall, or None on failure."""
        total = 0.0
        for label, argv in self.commands(tag):
            spans = self.dir / f"{tag}-{label}.spans.json" if traced else None
            ok, wall, rss = self.cli(argv, label, f"{tag}-{label}", spans)
            if not ok:
                return None
            total += wall
            if not traced:
                self.samples[f"{label}_s"].append(wall)
                self.rss_mb.append(rss)
        if not traced:
            self.samples["iteration_s"].append(total)
        return total


def check_outputs(run: Run, tag: str) -> dict:
    """Full output checks on one iteration; returns the quality figures."""
    import checks
    out = run.dir / tag
    quality = {}
    if run.workload == "gen-truth":
        lakes, truths, problems = checks.load_corpus(out / "gen")
        run.record("lakes reload and validate", problems)
        run.record("lake shape", checks.check_corpus_shape(
            lakes, GEN_TRUTH["n_lakes"], N_YEARS * YEAR_DAYS))
        run.record(f"gate: truth integrated at k={TRUTH_SUBSTEPS}",
                   checks.check_truth_substeps(lakes, truths, TRUTH_SUBSTEPS))
        return quality

    lakes, _, problems = checks.load_corpus(run.dir / "corpus")
    run.record("corpus reloads and validates", problems)
    run.record("corpus shape", checks.check_corpus_shape(
        lakes, CORPUS["n_lakes"], N_YEARS * YEAR_DAYS))
    april = run.workload == "april-eval"
    epochs = APRIL_STAGE1 + APRIL_STAGE3 if april else PRIL_EPOCHS
    run.record("checkpoint loads", checks.check_checkpoint(
        out / "train" / "checkpoint.csv", HIDDEN, discriminator=april))
    try:
        history = checks.read_history(out / "train" / "history.csv")
        problems = checks.check_history(history, epochs)
    except (ValueError, OSError) as exc:
        history, problems = [], [f"history.csv: {exc}"]
    run.record("gate: fixed epoch count ran", problems)
    counts = checks.validation_counts(lakes, TRAIN_YEARS, YEAR_DAYS)
    selected = history[APRIL_STAGE1:] if april else history
    if selected:
        quality["val_rmse_hyp"] = checks.best_epoch_val_rmse_hyp(selected, counts)
    quality["epochs_run"] = len(history)
    if april:
        run.record("gate: labels cover stratified days, stage 3 substeps",
                   checks.check_labels(out / "train", lakes, K_DRASTIC))
        run.record("timeseries rows and cells",
                   checks.check_timeseries(out / "eval", lakes))
        comparison = out / "eval" / "comparison.csv"
        problems = checks.check_comparison(comparison)
        if run.record("comparison finite", problems):
            quality["inconsistency_hyp"] = checks.read_comparison(comparison)["hyp_inconsistency"]
    return quality


def span_metrics(files: list[Path]) -> tuple[dict[str, float], dict]:
    """Per-layer figures of one traced iteration (all of its commands).

    Self time is a span's duration minus the durations of its direct child
    spans (calls nest, so children never overlap).
    """
    total, self_s = defaultdict(float), defaultdict(float)
    calls, m = defaultdict(int), defaultdict(float)
    nodes, visits, import_s = [], [], []
    per_command, gate = {}, {"lakes": 0, "short_lakes": 0, "stage3_ran": True}
    for path in files:
        data = json.loads(path.read_text())
        spans = data["spans"]
        import_s.append(data["import_s"])
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def ancestor(i: int, name: str) -> int:
            while i >= 0 and spans[i][0] != name:
                i = spans[i][3]
            return i

        truth_k = defaultdict(list)   # generate_lake span -> k of each Euler call
        layer_self = defaultdict(float)
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            own = end - start - child[i]
            total[name] += end - start
            self_s[name] += own
            calls[name] += 1
            layer_self[name.split(".")[0]] += own
            if name == "physics.multi_step_euler":
                m["physics.substeps"] += attrs["k"] * attrs["n"]
                lake = ancestor(parent, "synthetic.generate_lake")
                if lake >= 0:
                    truth_k[lake].append(attrs["k"])
            elif name in ("series.write_series", "series.load_series"):
                m[f"{name}.bytes"] += attrs["bytes"]
            elif name == "autodiff.backward" and ancestor(parent, "training.train_pril") >= 0:
                nodes.append(attrs["nodes"])
                visits.append(attrs["visits"])
            elif name == "training.train_pril":
                m["training.epochs"] += attrs["epochs"]
            elif name == "adaptive.train_april":
                for provenance, n in attrs["labels"].items():
                    m[f"adaptive.labels.{provenance}"] += n
                for k, n in attrs["k_hist"].items():
                    m[f"adaptive.k_hist.{k}"] += n
                gate["stage3_ran"] &= attrs["stage3_ran"]
            elif name == "physics.simulate_targets" and (
                    ancestor(parent, "evaluate.export_timeseries") >= 0
                    or ancestor(parent, "evaluate.mass_inconsistency") >= 0):
                m["evaluate.reference_sims"] += 1
        for i, (name, _, _, _, attrs) in enumerate(spans):
            if name == "synthetic.generate_lake":
                ks = truth_k[i]
                m["synthetic.truth_days"] += attrs["truth_days"]
                m["synthetic.clamped_days"] += attrs["clamped_days"]
                m["synthetic.truth_euler_calls"] += len(ks)
                gate["lakes"] += 1
                at_k = sum(1 for k in ks if k == attrs["truth_substeps"])
                gate["short_lakes"] += at_k < attrs["truth_days"]
        wall = spans[0][2] - spans[0][1]
        per_command[spans[0][0]] = {
            "wall_s": wall, "import_s": data["import_s"], "spans": len(spans),
            "wrapped_sites": data["wrapped_sites"],
            "layer_share": {k: round(v / wall, 4) for k, v in sorted(layer_self.items())}}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "physics.multi_step_euler.self_s": self_s["physics.multi_step_euler"],
        "physics.multi_step_euler.calls": calls["physics.multi_step_euler"],
        "physics.substeps": m["physics.substeps"],
        "physics.substeps_per_s": ratio(m["physics.substeps"], total["physics.multi_step_euler"]),
        "physics.simulate_targets.s": total["physics.simulate_targets"],
        "physics.simulate_targets.calls": calls["physics.simulate_targets"],
        "synthetic.generate_lake.s": total["synthetic.generate_lake"],
        "synthetic.truth_days": m["synthetic.truth_days"],
        "synthetic.clamped_days": m["synthetic.clamped_days"],
        "synthetic.euler_calls_per_truth_day": ratio(m["synthetic.truth_euler_calls"],
                                                     m["synthetic.truth_days"]),
        "synthetic.write_truth.s": total["synthetic.write_truth"],
        "synthetic.load_truth.s": total["synthetic.load_truth"],
        "series.write_series.s": total["series.write_series"],
        "series.write_series.bytes": m["series.write_series.bytes"],
        "series.load_series.s": total["series.load_series"],
        "series.load_series.bytes": m["series.load_series.bytes"],
        "autodiff.tape_nodes": statistics.median(nodes) if nodes else 0.0,
        "autodiff.backward_visits": statistics.median(visits) if visits else 0.0,
        "autodiff.backward.s": total["autodiff.backward"],
        "autodiff.backward.calls": calls["autodiff.backward"],
        "networks.predictor_forward_tape.s": total["networks.predictor_forward_tape"],
        "networks.predictor_forward.s": total["networks.predictor_forward"],
        "networks.predictor_forward.calls": calls["networks.predictor_forward"],
        "networks.discriminator_forward.calls": calls["networks.discriminator_forward"],
        "networks.save_checkpoint.s": total["networks.save_checkpoint"],
        "networks.load_checkpoint.s": total["networks.load_checkpoint"],
        "losses.window_cache.s": total["losses.window_cache"],
        "losses.window_cache.calls": calls["losses.window_cache"],
        "losses.taped_window_loss.self_s": self_s["losses.taped_window_loss"],
        "losses.stack_windows.s": total["losses.stack_windows"],
        "training.epochs": m["training.epochs"],
        "training.batches": calls["losses.taped_window_loss"],
        "training.adam_update.s": total["training.adam_update"],
        "training.validation_rmse.self_s": self_s["training.validation_rmse"],
        "training.validation_rmse.s": total["training.validation_rmse"],
        "training.train_pril.self_s": self_s["training.train_pril"],
        "adaptive.label_drastic_days.s": total["adaptive.label_drastic_days"],
        "adaptive.train_discriminator.s": total["adaptive.train_discriminator"],
        "adaptive.classify_days.s": total["adaptive.classify_days"],
        "adaptive.k_hist.1": m["adaptive.k_hist.1"],
        f"adaptive.k_hist.{K_DRASTIC}": m[f"adaptive.k_hist.{K_DRASTIC}"],
        "evaluate.mass_inconsistency.s": total["evaluate.mass_inconsistency"],
        "evaluate.export_timeseries.s": total["evaluate.export_timeseries"],
        "evaluate.reference_sims_per_lake": ratio(m["evaluate.reference_sims"],
                                                  calls["evaluate.export_timeseries"]),
        "cli.import_s": statistics.median(import_s),
        "trace.spans": float(sum(calls.values())),
    }
    for provenance in PROVENANCES:
        out[f"adaptive.labels.{provenance}"] = m[f"adaptive.labels.{provenance}"]
    cli_wall = 0.0
    for command in ("generate", "train", "evaluate"):
        out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
        cli_wall += total[f"cli.{command}"]
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"share.{layer}"] = ratio(layer_s, cli_wall)
    return out, {"per_command": per_command, "gate": gate}


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    thread_vars = sorted(set(THREAD_ENV) | {"NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: dict(os.environ, **THREAD_ENV).get(k) for k in thread_vars},
        "loadavg_start": os.getloadavg(),
        "limits": "shared 2-core box; no CPU pinning, cache drops or system-wide "
                  "tracing; timings are medians of child-process wall times",
    }


def measure(run: Run) -> dict | None:
    """Set up, iterate for run.seconds of command time, check; None if nothing ran."""
    import checks
    setup_walls = run.setup()
    if not setup_walls:
        return None
    measured, i = 0.0, 0
    quality, overheads, traced = {}, [], []
    while i == 0 or measured < run.seconds:
        if i and time.monotonic() + 2 * measured / i > run.deadline:
            break
        tag = f"it{i}"
        wall = run.iterate(tag, traced=False)
        if wall is None:
            break
        measured += wall
        digest, files = checks.output_digest(run.dir / tag)
        if i == 0:
            quality = check_outputs(run, tag)
            run.digests["outputs"] = digest
            run.digests.update({f"outputs/{k}": v for k, v in files.items()})
        else:
            run.record("repeat run byte-identical",
                       [] if digest == run.digests["outputs"] else [f"{tag} differs from it0"])
        if run.trace:
            ttag = f"tr{i}"
            twall = run.iterate(ttag, traced=True)
            if twall is None:
                break
            measured += twall
            same = checks.output_digest(run.dir / ttag)[0] == digest
            run.record("traced outputs byte-identical",
                       [] if same else [f"{ttag} differs from {tag}"])
            overheads.append(twall / wall)
            traced.append([run.dir / f"{ttag}-{label}.spans.json"
                           for label, _ in run.commands(ttag)])
            shutil.rmtree(run.dir / ttag)
        shutil.rmtree(run.dir / tag)
        i += 1
    if not run.samples["iteration_s"] or (run.trace and not traced):
        return None
    return {"setup": setup_walls, "quality": quality, "overheads": overheads,
            "traced": traced}


#: Units of the named end-to-end figures. Each is printed by name and
#: kept in the record; BENCHMARK.json bounds the ones every workload has.
NAMED_UNITS = {"setup_s": "s", "generate_s": "s", "lake_years_per_s": "lake-years/s",
               "train_s": "s", "train_days_per_s": "days/s", "evaluate_s": "s",
               "val_rmse_hyp": "mg/L", "inconsistency_hyp": "mg/L",
               "peak_rss_mb": "MB", "failed_ops": "ratio"}


def end_to_end(run: Run, measured: dict) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the named per-workload figures."""
    s = run.samples
    quality = measured["quality"]
    named = {"setup_s": summary(measured["setup"]), "peak_rss_mb": max(run.rss_mb)}
    if run.workload == "gen-truth":
        named["generate_s"] = summary(s["generate_s"])
        named["lake_years_per_s"] = (GEN_TRUTH["n_lakes"] * N_YEARS
                                     / named["generate_s"]["median"])
        days_per_s = named["lake_years_per_s"] * YEAR_DAYS
    else:
        windows = CORPUS["n_lakes"] * TRAIN_YEARS
        named["train_s"] = summary(s["train_s"])
        named["train_days_per_s"] = (windows * YEAR_DAYS * quality.get("epochs_run", 0)
                                     / named["train_s"]["median"])
        named["val_rmse_hyp"] = quality.get("val_rmse_hyp")
        days_per_s = named["train_days_per_s"]
    if run.workload == "april-eval":
        named["evaluate_s"] = summary(s["evaluate_s"])
        named["inconsistency_hyp"] = quality.get("inconsistency_hyp")
    named["failed_ops"] = run.failed / run.attempted
    metrics = {"setup_s": named["setup_s"]["median"],
               "command_s": statistics.median(s["iteration_s"]),
               "days_per_s": days_per_s,
               "peak_rss_mb": named["peak_rss_mb"]}
    return metrics, {name: {"unit": NAMED_UNITS[name],
                            **(value if isinstance(value, dict) else {"value": value})}
                     for name, value in named.items()}


def per_layer(run: Run, measured: dict) -> tuple[dict, dict]:
    """The BENCHMARK.json per-layer metrics: medians over the traced iterations."""
    results = [span_metrics(files) for files in measured["traced"]]
    metrics = {name: statistics.median([r[0][name] for r in results])
               for name in results[0][0]}
    metrics["trace.overhead"] = statistics.median(measured["overheads"])
    detail = results[0][1]
    gate = detail["gate"]
    if run.workload == "gen-truth":
        problems = [] if gate["lakes"] == GEN_TRUTH["n_lakes"] and not gate["short_lakes"] \
            else [f"{gate['short_lakes']} of {gate['lakes']} lakes skipped "
                  f"k={TRUTH_SUBSTEPS} Euler calls on stratified days"]
        run.record("gate: traced truth Euler calls at truth_substeps", problems)
    if run.workload == "april-eval":
        run.record("gate: traced stage 3 ran", [] if gate["stage3_ran"] else ["stage 3 skipped"])
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lakedo" / "cli.py").is_file():
        print(f"error: program source not found: {SRC / 'lakedo'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    try:
        measured = measure(run)
        if measured is None:
            print("error: no timed iteration completed:", *run.failures,
                  sep="\n  ", file=sys.stderr)
            return 1
        if run.trace:
            values, detail = per_layer(run, measured)
            wanted = spec["per_layer"]
            spans = {p.name: json.loads(p.read_text())
                     for files in measured["traced"] for p in files}
        else:
            values, detail = end_to_end(run, measured)
            wanted = spec["end_to_end"]
            spans = {}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"error: metrics {sorted(names ^ set(values))} are not both "
              f"measured and listed in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not run.failed, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    baseline = None
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text()).get(run.workload, {}).get(str(run.seed))
    same_keys = {k: run.digests.get(k) for k in baseline or ()}

    record = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
              "trace": run.trace, "environment": env, "result": result,
              "detail": detail, "samples": dict(run.samples),
              "setup_samples": measured["setup"], "failures": run.failures,
              "output_sha256": run.digests, "spans": spans}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = results_dir / f"{run.workload}-s{run.seed}-t{int(run.trace)}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: "
          f"nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, load {env['loadavg_start']} -> "
          f"{env['loadavg_end']}")
    if run.trace:
        for command, d in detail["per_command"].items():
            print(f"  {command} layer self-time share: {d['layer_share']}")
        print(f"  trace.overhead: {values['trace.overhead']} ratio")
    else:
        for name, d in detail.items():
            if "median" in d:
                extra = ", ".join(f"{k} {v}" for k, v in d.items() if k not in ("unit", "median"))
                print(f"  {name}: median {d['median']} {d['unit']} ({extra})")
            else:
                print(f"  {name}: {d['value']} {d['unit']}")
    print(f"  outputs sha256: {run.digests.get('outputs')}")
    if baseline is not None:
        print(f"  matches baseline: {'yes' if baseline == same_keys else 'no'} ({BASELINE.name})")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
