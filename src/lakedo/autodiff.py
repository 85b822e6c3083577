"""A small reverse-mode tape over numpy arrays.

Forward calls append primitive operations (affine maps, elementwise
nonlinearities, slicing, masked reductions) to an append-only list that is
already in topological order, so the backward pass is a single reverse walk
that visits each node exactly once. Nodes hold whole arrays; a whole LSTM
sequence is a single fused node with a hand-written BPTT backward.

Each op records, next to its forward, one gradient function that maps the
node's upstream gradient to one gradient per parent, in parent order. A
gradient function holds only arrays and constants, never a Var: a Var ->
tape -> gradient function cycle would leave a tape to the cyclic garbage
collector instead of freeing it when its last name goes.

Subgradient conventions: relu and abs both use 0 at their kinks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DomainError

__all__ = [
    "Tape",
    "Var",
    "add", "sub", "mul", "neg", "scale", "add_const", "matmul",
    "tanh", "sigmoid", "relu", "absval", "logsigmoid", "sqdiff",
    "concat", "stack", "lstm_sequence", "masked_sum", "masked_mean",
    "evaluate_with_gradient", "gradient_check",
]


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on raw arrays.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, both
    written with e = exp(-|x|) so no branch ever overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.idx]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tape.values[self.idx].shape

    def __getitem__(self, key):
        return index(self, key)


class Tape:
    """Append-only list of primitive operations in topological order."""

    def __init__(self) -> None:
        self.values: list[np.ndarray] = []
        self.parents: list[tuple[int, ...]] = []
        self.grad_fns: list = []     # None where a node passes no gradient, as leaves do
        self.needs_grad: list[bool] = []
        self.backward_visits = 0  # nodes processed by the last backward pass

    def _push(self, value, parents: tuple = (), grad_fn=None) -> Var:
        value = np.asarray(value, dtype=np.float64)
        idx = len(self.values)
        self.values.append(value)
        self.parents.append(tuple(p.idx for p in parents))
        self.grad_fns.append(grad_fn)
        self.needs_grad.append(any(self.needs_grad[p.idx] for p in parents))
        return Var(self, idx)

    def constant(self, value) -> Var:
        return self._push(value)

    def param(self, value) -> Var:
        v = self._push(value)
        self.needs_grad[v.idx] = True
        return v

    def backward(self, out: Var) -> list:
        """Gradients of a scalar output with respect to every node (None where unneeded)."""
        if out.value.size != 1:
            raise DomainError("backward requires a scalar output")
        grads: list = [None] * len(self.values)
        grads[out.idx] = np.ones_like(self.values[out.idx])
        self.backward_visits = 0
        for i in range(out.idx, -1, -1):
            g, grad_fn = grads[i], self.grad_fns[i]
            if g is None or not self.needs_grad[i]:
                continue
            self.backward_visits += 1
            if grad_fn is None:
                continue
            for p, gp in zip(self.parents[i], grad_fn(g)):
                # Accumulation always builds a fresh array, so storing views is safe.
                if self.needs_grad[p]:
                    grads[p] = gp if grads[p] is None else grads[p] + gp
        return grads


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Only leading broadcast axes are summed; any other mismatch fails in reshape.
    if g.shape == shape:
        return g
    return g.sum(axis=tuple(range(g.ndim - len(shape)))).reshape(shape)


def _same_tape(*vs: Var) -> Tape:
    tape = vs[0].tape
    if any(v.tape is not tape for v in vs):
        raise DomainError("operands belong to different tapes")
    return tape


def add(a: Var, b: Var) -> Var:
    sa, sb = a.shape, b.shape
    return _same_tape(a, b)._push(a.value + b.value, (a, b),
                                  lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Var, b: Var) -> Var:
    sa, sb = a.shape, b.shape
    return _same_tape(a, b)._push(a.value - b.value, (a, b),
                                  lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Var, b: Var) -> Var:
    x, y = a.value, b.value
    return _same_tape(a, b)._push(x * y, (a, b), lambda g: (
        _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


def neg(a: Var) -> Var:
    return a.tape._push(-a.value, (a,), lambda g: (-g,))


def scale(a: Var, c: float) -> Var:
    cf = float(c)
    return a.tape._push(a.value * c, (a,), lambda g: (g * cf,))


def add_const(a: Var, c) -> Var:
    return a.tape._push(a.value + c, (a,), lambda g: (g,))


def matmul(a: Var, b: Var) -> Var:
    x, y = a.value, b.value
    if y.ndim != 2 or x.ndim not in (2, 3):
        raise DomainError("matmul supports (n,k)@(k,m) or (t,n,k)@(k,m)")
    lead = list(range(x.ndim - 1))
    return _same_tape(a, b)._push(x @ y, (a, b), lambda g: (
        g @ y.T, np.tensordot(x, g, axes=(lead, lead))))


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape._push(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Var) -> Var:
    out = sigmoid_values(a.value)
    return a.tape._push(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Var) -> Var:
    x = a.value
    return a.tape._push(np.maximum(x, 0.0), (a,), lambda g: (g * (x > 0.0),))


def absval(a: Var) -> Var:
    x = a.value
    return a.tape._push(np.abs(x), (a,), lambda g: (g * np.sign(x),))


def logsigmoid(a: Var) -> Var:
    # log(sigmoid(x)) = -log(1 + exp(-x)), stable at both tails.
    x = a.value
    return a.tape._push(-np.logaddexp(0.0, -x), (a,), lambda g: (g * sigmoid_values(-x),))


def sqdiff(a: Var, b: Var) -> Var:
    x, y = a.value, b.value

    def grad_fn(g):
        d = x - y       # recomputed, so the node holds no second array
        return _unbroadcast(2.0 * g * d, x.shape), _unbroadcast(-2.0 * g * d, y.shape)

    d = x - y
    return _same_tape(a, b)._push(d * d, (a, b), grad_fn)


def _scatter(x: np.ndarray, key, divisor=None):
    """Gradient function that puts the upstream gradient on the cells key selects."""
    def grad_fn(g):
        gx = np.zeros_like(x)
        gx[key] = g if divisor is None else g / divisor
        return (gx,)
    return grad_fn


def index(a: Var, key) -> Var:
    return a.tape._push(a.value[key], (a,), _scatter(a.value, key))


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


def lstm_sequence_values(w_cell: np.ndarray, b_cell: np.ndarray,
                         groups: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
    """LSTM hidden states (T, B, H) for row groups (B_i, T, m), plus the BPTT cache.

    w_cell stacks the recurrent rows above the input rows, (H + m, 4H), with
    gate columns in the order input, forget, output, candidate; the state
    starts at zero. The input projection x @ W_x + b is computed for all days
    at once, outside the time loop, so each day costs one (B, H) @ (H, 4H)
    product, one sigmoid over the three contiguous sigmoid gates (the
    arithmetic of sigmoid_values) and one tanh. Every per-day operand is a
    view taken by zip over the (T, ...) arrays, and every per-day result is
    written into a preallocated buffer.

    The groups are stacked along B, each with its own matrix products read
    from its own array, so each group's rows equal a call on it alone bit for
    bit, whatever row blocking the BLAS uses. The cache is (gates, h, c, tanh_c).
    """
    bounds = np.cumsum([0] + [len(x) for x in groups]).tolist()
    rows = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    b, t_count = bounds[-1], groups[0].shape[1]
    hidden = w_cell.shape[1] // 4
    n_sig = 3 * hidden
    w_h = w_cell[:hidden]
    gates = np.empty((t_count, b, 4 * hidden))          # (T, B, 4H) pre-activations
    for x, r in zip(groups, rows):
        np.matmul(x.transpose(1, 0, 2), w_cell[hidden:], out=gates[:, r])
    gates += b_cell
    h = np.zeros((t_count + 1, b, hidden))              # h[t] is the state before day t
    c = np.zeros((t_count + 1, b, hidden))
    tanh_c = np.empty((t_count, b, hidden))
    rec = np.empty((b, 4 * hidden))
    rec_groups = [rec[r] for r in rows]
    e = np.empty((b, n_sig))
    den = np.empty((b, n_sig))
    nonneg = np.empty((b, n_sig), dtype=bool)
    iu = np.empty((b, hidden))
    days = zip(gates, gates[..., :n_sig], gates[..., :hidden],
               gates[..., hidden:2 * hidden], gates[..., 2 * hidden:n_sig],
               gates[..., n_sig:], zip(*(h[:, r] for r in rows)),
               h[1:], c, c[1:], tanh_c)
    for g, sig, i, f, o, u, h_prev_groups, h_next, c_prev, c_next, tc in days:
        for h_prev, r in zip(h_prev_groups, rec_groups):
            np.matmul(h_prev, w_h, out=r)
        g += rec
        np.copysign(sig, -1.0, out=e)                   # sigmoid_values, in place
        np.exp(e, out=e)
        np.add(e, 1.0, out=den)
        np.greater_equal(sig, 0.0, out=nonneg)
        np.copyto(e, 1.0, where=nonneg)
        np.divide(e, den, out=sig)
        np.tanh(u, out=u)
        np.multiply(f, c_prev, out=c_next)
        np.multiply(i, u, out=iu)
        c_next += iu
        np.tanh(c_next, out=tc)
        np.multiply(o, tc, out=h_next)
    return h[1:], (gates, h, c, tanh_c)


def lstm_sequence(w_cell: Var, b_cell: Var, features: np.ndarray,
                  ride_along: np.ndarray | None = None) -> tuple[Var, np.ndarray]:
    """Fused LSTM over features (B, T, m): hidden states (T, B, H) as one tape node.

    Returns (node, ride). The backward pass is hand-written backpropagation
    through time. ride_along (V, T, m) rows join the same time loop without
    entering the tape: the node holds and differentiates the B feature rows
    only, and ride is the ride-along hidden states (T, V, H); None means
    zero ride-along rows, giving an empty ride. Both groups' values equal
    separate calls bit for bit, and the taped rows' cache is copied out, so
    the node holds exactly what a B-row call holds. The copies are
    C-contiguous (BPTT's tensordots take another BLAS path on strided views,
    which changes the gradient's rounding), and each joint array is released
    as soon as its taped rows are copied, so the copies add at most one
    array to the joint forward's memory.
    """
    tape = _same_tape(w_cell, b_cell)
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    groups = [features] if ride_along is None else [features, ride_along]
    joint = list(lstm_sequence_values(w_cell.value, b_cell.value, groups)[1])
    ride_hs = np.ascontiguousarray(joint[1][1:, n:])    # joint: gates, h, c, tanh_c
    cache = [features.transpose(1, 0, 2)]
    while joint:
        cache.append(np.ascontiguousarray(joint.pop(0)[:, :n]))
    w_h_t = w_cell.value[:w_cell.value.shape[1] // 4].T
    node = tape._push(cache[2][1:], (w_cell, b_cell), partial(_lstm_grads, w_h_t, tuple(cache)))
    return node, ride_hs


def _lstm_grads(w_h_t: np.ndarray, cache: tuple, g: np.ndarray) -> tuple:
    """BPTT of lstm_sequence: (d w_cell, d b_cell) for upstream g (T, B, H)."""
    x, act, h, c, tanh_c = cache
    t_count, b, hidden = tanh_c.shape
    n_sig = 3 * hidden
    # d(pre-activation) = upstream * partner * activation', where the upstream
    # is dc for the input, forget and candidate gates and dh for the output
    # gate. partner * activation' is formed in d_pre for all days at once, and
    # the reverse loop multiplies each day's row by its upstream in place.
    d_pre = np.empty_like(act)                          # (T, B, 4H)
    sig, d_sig = act[..., :n_sig], d_pre[..., :n_sig]
    np.subtract(1.0, sig, out=d_sig)
    d_sig *= sig
    cand, d_cand = act[..., n_sig:], d_pre[..., n_sig:]
    np.square(cand, out=d_cand)
    np.subtract(1.0, d_cand, out=d_cand)
    d_pre[..., :hidden] *= cand
    d_pre[..., hidden:2 * hidden] *= c[:-1]
    d_pre[..., 2 * hidden:n_sig] *= tanh_c
    d_cand *= act[..., :hidden]
    dc_from_h = np.square(tanh_c)
    np.subtract(1.0, dc_from_h, out=dc_from_h)
    dc_from_h *= act[..., 2 * hidden:n_sig]
    dh = np.empty((b, hidden))
    dc = np.empty((b, hidden))
    d_out = np.empty((b, hidden))
    dh_next = np.zeros((b, hidden))
    dc_next = np.zeros((b, hidden))
    dc_gates = dc[:, None, :]
    # One broadcast product scales all four gates by dc; the output gate's
    # dh product is set aside before it and written back after it.
    steps = zip(g[::-1], dc_from_h[::-1], act[::-1, :, hidden:2 * hidden], d_pre[::-1],
                d_pre.reshape(t_count, b, 4, hidden)[::-1],
                d_pre[::-1, :, 2 * hidden:n_sig])
    for g_t, dfh, forget, dp, dp_gates, dp_out in steps:
        np.add(g_t, dh_next, out=dh)
        np.multiply(dh, dfh, out=dc)
        dc += dc_next
        np.multiply(dp_out, dh, out=d_out)
        dp_gates *= dc_gates
        np.copyto(dp_out, d_out)
        np.multiply(dc, forget, out=dc_next)
        np.matmul(dp, w_h_t, out=dh_next)
    dw_h = np.tensordot(h[:-1], d_pre, axes=([0, 1], [0, 1]))
    dw_x = np.tensordot(x, d_pre, axes=([0, 1], [0, 1]))
    return np.vstack([dw_h, dw_x]), d_pre.sum(axis=(0, 1))


def masked_sum(a: Var, mask: np.ndarray) -> Var:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.value.shape:
        raise DomainError("mask shape must match the operand")
    return a.tape._push(a.value[mask].sum(), (a,), _scatter(a.value, mask))


def masked_mean(a: Var, mask: np.ndarray) -> Var:
    """Mean over selected cells; an empty mask yields 0 and passes no gradient."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.value.shape:
        raise DomainError("mask shape must match the operand")
    count = int(mask.sum())
    value = a.value[mask].sum() / count if count else 0.0
    return a.tape._push(value, (a,), _scatter(a.value, mask, count) if count else None)


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
