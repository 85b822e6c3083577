"""Independent oracles the unit tests and gates C05 and C06 compare against.

No command runs any of this. The taped ops below extend `lakedo.autodiff`'s
tape with ops that only oracles use, the finite-difference harness checks
the tape's gradients, `discriminator_logits_tape` is the taped discriminator
behind the hand-written BCE gradient in `lakedo.adaptive`, and the
value-level losses are what `lakedo.losses.taped_window_loss` must equal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lakedo import autodiff as ad
from lakedo.autodiff import Tape, Var, _same_tape, _scatter, sigmoid_values
from lakedo.errors import DomainError
from lakedo.losses import WindowBatch, _check_weights, stack_windows, window_cache
from lakedo.physics import simulate_targets
from lakedo.series import LakeSeries, stacked_observations


def neg(a: Var) -> Var:
    return a.tape._push(-a.value, (a,), lambda g: (-g,))


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape._push(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Var) -> Var:
    out = sigmoid_values(a.value)
    return a.tape._push(out, (a,), lambda g: (g * out * (1.0 - out),))


def logsigmoid(a: Var) -> Var:
    # log(sigmoid(x)) = -log(1 + exp(-x)), stable at both tails.
    x = a.value
    return a.tape._push(-np.logaddexp(0.0, -x), (a,), lambda g: (g * sigmoid_values(-x),))


def concat(vs: list[Var], axis: int = -1) -> Var:
    tape = _same_tape(*vs)
    sizes = [v.shape[axis] for v in vs]

    def grad_fn(g):
        sl, offset, out = [slice(None)] * g.ndim, 0, []
        for size in sizes:
            sl[axis] = slice(offset, offset + size)
            out.append(g[tuple(sl)])
            offset += size
        return out

    return tape._push(np.concatenate([v.value for v in vs], axis=axis), tuple(vs), grad_fn)


def stack(vs: list[Var]) -> Var:
    tape = _same_tape(*vs)
    # list(g) is g[0], g[1], ...: row i of the gradient goes to operand i.
    return tape._push(np.stack([v.value for v in vs], axis=0), tuple(vs), list)


def masked_sum(a: Var, mask: np.ndarray) -> Var:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.value.shape:
        raise DomainError("mask shape must match the operand")
    return a.tape._push(a.value[mask].sum(), (a,), _scatter(a.value, mask))


def evaluate_with_gradient(loss_program, params: dict) -> tuple[float, dict]:
    """Run a tape-building closure and return (loss value, gradients).

    params is a dict of named arrays and the gradient is a dict with the
    same names. loss_program(tape, p) must return a scalar Var.
    """
    tape = Tape()
    pvars = {k: tape.param(v) for k, v in params.items()}
    out = loss_program(tape, pvars)
    if not isinstance(out, Var) or out.value.size != 1:
        raise DomainError("loss_program must return a scalar Var")
    grads = tape.backward(out)
    grad = {}
    for name, pv in pvars.items():
        g = grads[pv.idx]
        grad[name] = np.zeros_like(pv.value) if g is None else np.asarray(g)
    return float(out.value), grad


def evaluate_value(loss_program, params: dict) -> float:
    """Forward-only evaluation of a loss_program."""
    tape = Tape()
    out = loss_program(tape, {k: tape.param(v) for k, v in params.items()})
    return float(out.value)


def _flatten(params: dict) -> tuple[np.ndarray, list]:
    names = sorted(params)
    vec = np.concatenate([np.asarray(params[n], dtype=np.float64).ravel() for n in names])
    return vec, [(n, np.asarray(params[n]).shape) for n in names]


def _unflatten(vec: np.ndarray, structure: list) -> dict:
    out = {}
    offset = 0
    for name, shape in structure:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out[name] = vec[offset:offset + size].reshape(shape)
        offset += size
    return out


#: Central-difference step of gradient_check.
FD_STEP = 1e-5


def gradient_check(loss_program, params: dict) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Central differences step each coordinate by FD_STEP. The error at each
    coordinate is |a - b| / max(|a|, |b|, floor), where floor is 1e-3 times
    the largest gradient magnitude (at least 1e-6):
    coordinates far below the gradient's own scale get an absolute rather
    than relative comparison, because central differences cannot resolve
    them relatively (roundoff of the loss value dominates there), while a
    genuinely wrong gradient at that scale still trips the ratio.
    """
    _, grad = evaluate_with_gradient(loss_program, params)
    gvec, _ = _flatten(grad)
    gmax = float(np.max(np.abs(gvec))) if gvec.size else 0.0
    floor = max(1e-6, 1e-3 * gmax)
    pvec, structure = _flatten(params)
    worst = 0.0
    for i in range(pvec.size):
        bumped = pvec.copy()
        bumped[i] = pvec[i] + FD_STEP
        hi = evaluate_value(loss_program, _unflatten(bumped, structure))
        bumped[i] = pvec[i] - FD_STEP
        lo = evaluate_value(loss_program, _unflatten(bumped, structure))
        fd = (hi - lo) / (2.0 * FD_STEP)
        a, b = gvec[i], fd
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), floor))
    return worst


def discriminator_logits_tape(tape: ad.Tape, p: dict[str, ad.Var], x: np.ndarray) -> ad.Var:
    """Differentiable logits for a fixed input matrix (n, f)."""
    n_layers = len([k for k in p if k.endswith("_w")])
    h = tape.constant(np.asarray(x, dtype=np.float64))
    for li in range(n_layers):
        z = ad.add(ad.matmul(h, p[f"layer{li}_w"]), p[f"layer{li}_b"])
        h = tanh(z) if li < n_layers - 1 else z
    return h


@dataclass(frozen=True)
class LossParts:
    ml: float
    mc_epi: float
    mc_hyp: float
    mc_total: float
    total: float


def supervised_loss(pred: np.ndarray, obs: np.ndarray) -> float:
    """Mean squared error pooled over every finite observation cell."""
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape:
        raise DomainError("pred and obs must have the same shape")
    mask = np.isfinite(obs)
    if not mask.any():
        warnings.warn("supervised loss over zero observations", RuntimeWarning,
                      stacklevel=2)
        return 0.0
    d = pred[mask] - obs[mask]
    return float(np.mean(d * d))


def mass_conservation_loss(pred: np.ndarray, target: np.ndarray, tau: float) -> float:
    """Mean ReLU(|pred - target| - tau) over cells defined in both arrays."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DomainError("pred and target must have the same shape")
    if not np.isfinite(tau) or tau < 0:
        raise DomainError("tau must be finite and >= 0")
    mask = np.isfinite(pred) & np.isfinite(target)
    if not mask.any():
        return 0.0
    hinge = np.maximum(np.abs(pred[mask] - target[mask]) - tau, 0.0)
    return float(np.mean(hinge))


def combined_loss(preds: np.ndarray, series: LakeSeries, lambdas, tau: float) -> LossParts:
    """Value-level total loss for one series given raw (T, 3) predictions.

    Consistency terms with a zero weight are skipped outright, so an
    all-zero weighting is structurally the supervised loss alone.
    """
    lams = _check_weights(lambdas, tau)
    preds = np.asarray(preds, dtype=np.float64)
    ml = supervised_loss(preds, stacked_observations(series))
    mc = [0.0, 0.0, 0.0]
    if any(lams):
        targets = simulate_targets(series, preds)
        for task in range(3):
            if lams[task] > 0:
                mc[task] = mass_conservation_loss(preds[:, task], targets[:, task], tau)
    total = ml + lams[0] * mc[0] + lams[1] * mc[1] + lams[2] * mc[2]
    return LossParts(ml=ml, mc_epi=mc[0], mc_hyp=mc[1], mc_total=mc[2], total=total)


def build_window_batch(windows: Sequence[LakeSeries], k_per_day=None) -> WindowBatch:
    """Stack same-length windows; k_per_day is one array per window (or None)."""
    if not windows:
        raise DomainError("need at least one window")
    if k_per_day is None:
        k_per_day = [None] * len(windows)
    if len(k_per_day) != len(windows):
        raise DomainError("k_per_day must have one entry per window")
    return stack_windows([window_cache(w, k_per_day=k) for w, k in zip(windows, k_per_day)])
