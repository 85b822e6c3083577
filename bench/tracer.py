"""Run one lakedo CLI command in-process with a span around each layer call.

    python3 bench/tracer.py SPANS_JSON RUN_ID -- <lakedo cli arguments>

The program under test is not modified: after `import lakedo.cli` the
wrappers below replace each traced function at every import site (the
defining module and every lakedo module that imported the name), so
`lakedo.synthetic.multi_step_euler` is traced as well as
`lakedo.physics.multi_step_euler`. Spans are kept in memory and written to
SPANS_JSON when the command returns; the exit code is the command's.

Per-substep helpers (`entrainment_fluxes_substep`, `format_value`, ...)
are deliberately not wrapped, so the tracing overhead stays small;
substeps are counted from the arguments of `multi_step_euler` instead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

perf = time.perf_counter


def _euler_attrs(args, kwargs, result):
    cfg = kwargs.get("cfg", args[8] if len(args) > 8 else None)
    # Python floats have no .size; scalar days count as one element.
    return {"k": 1 if cfg is None else int(cfg.k), "n": int(getattr(args[0], "size", 1))}


def _file_bytes(path_arg):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return attrs


def _lake_attrs(args, kwargs, result):
    strat = result.series.stratified
    return {"truth_days": int((strat[1:] & strat[:-1]).sum()),
            "clamped_days": int(result.clamped.sum()),
            "truth_substeps": int(args[0].truth_substeps)}


def _backward_attrs(args, kwargs, result):
    tape = args[0]
    return {"nodes": len(tape.values), "visits": int(tape.backward_visits)}


def _train_attrs(args, kwargs, result):
    return {"epochs": len(result.history.rows)}


def _april_attrs(args, kwargs, result):
    labels = [label for per_lake in result.labels.values() for label in per_lake]
    return {"labels": dict(Counter(label.provenance for label in labels)),
            "k_hist": {str(k): n for k, n in Counter(label.k for label in labels).items()},
            "stage3_ran": bool(result.stage3_ran)}


#: (module, attribute, span name, attribute extractor). Methods are "Class.method".
TARGETS = (
    ("lakedo.physics", "multi_step_euler", "physics.multi_step_euler", _euler_attrs),
    ("lakedo.physics", "simulate_targets", "physics.simulate_targets", None),
    ("lakedo.synthetic", "generate_lake", "synthetic.generate_lake", _lake_attrs),
    ("lakedo.synthetic", "write_truth", "synthetic.write_truth", _file_bytes(0)),
    ("lakedo.synthetic", "load_truth", "synthetic.load_truth", _file_bytes(0)),
    ("lakedo.series", "write_series", "series.write_series", _file_bytes(1)),
    ("lakedo.series", "load_series", "series.load_series", _file_bytes(0)),
    ("lakedo.series", "validate_series", "series.validate_series", None),
    ("lakedo.autodiff", "Tape.backward", "autodiff.backward", _backward_attrs),
    ("lakedo.networks", "predictor_forward_tape", "networks.predictor_forward_tape", None),
    ("lakedo.networks", "predictor_forward", "networks.predictor_forward", None),
    ("lakedo.networks", "discriminator_forward", "networks.discriminator_forward", None),
    ("lakedo.networks", "save_checkpoint", "networks.save_checkpoint", None),
    ("lakedo.networks", "load_checkpoint", "networks.load_checkpoint", None),
    ("lakedo.losses", "window_cache", "losses.window_cache", None),
    ("lakedo.losses", "stack_windows", "losses.stack_windows", None),
    ("lakedo.losses", "taped_window_loss", "losses.taped_window_loss", None),
    ("lakedo.training", "adam_update", "training.adam_update", None),
    ("lakedo.training", "validation_rmse", "training.validation_rmse", None),
    ("lakedo.training", "train_pril", "training.train_pril", _train_attrs),
    ("lakedo.training", "write_history", "training.write_history", None),
    ("lakedo.adaptive", "residual_gamma", "adaptive.residual_gamma", None),
    ("lakedo.adaptive", "label_drastic_days", "adaptive.label_drastic_days", None),
    ("lakedo.adaptive", "train_discriminator", "adaptive.train_discriminator", None),
    ("lakedo.adaptive", "classify_days", "adaptive.classify_days", None),
    ("lakedo.adaptive", "write_labels", "adaptive.write_labels", None),
    ("lakedo.adaptive", "train_april", "adaptive.train_april", _april_attrs),
    ("lakedo.evaluate", "mass_inconsistency", "evaluate.mass_inconsistency", None),
    ("lakedo.evaluate", "export_timeseries", "evaluate.export_timeseries", None),
)


class Tracer:
    """In-memory span log: [name, start, end, parent index, attributes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs_fn=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, perf(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if attrs_fn is not None:
                record[4] = attrs_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every target at every lakedo import site; returns the site count."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lakedo" or n.startswith("lakedo.")]
        sites = 0
        for module_name, attr, name, attrs_fn in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), attrs_fn))
                sites += 1
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        sites += 1
        return sites


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    started = perf()
    import lakedo.cli
    import_s = perf() - started

    tracer = Tracer()
    sites = tracer.install()
    command = tracer.wrap(f"cli.{cli_args[0]}", lakedo.cli.main)
    code = command(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"run_id": run_id, "argv": cli_args, "exit_code": code,
                   "import_s": import_s, "wrapped_sites": sites,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
