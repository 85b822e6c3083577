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
    "add", "sub", "mul", "scale", "add_const", "matmul",
    "relu", "absval", "sqdiff", "lstm_sequence", "masked_mean",
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


def relu(a: Var) -> Var:
    x = a.value
    return a.tape._push(np.maximum(x, 0.0), (a,), lambda g: (g * (x > 0.0),))


def absval(a: Var) -> Var:
    x = a.value
    return a.tape._push(np.abs(x), (a,), lambda g: (g * np.sign(x),))


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


def lstm_sequence_values(w_cell: np.ndarray, b_cell: np.ndarray,
                         features: np.ndarray) -> tuple[np.ndarray, tuple]:
    """LSTM hidden states (T, B, H) for features (B, T, m), plus the BPTT cache.

    w_cell stacks the recurrent rows above the input rows, (H + m, 4H), with
    gate columns in the order input, forget, output, candidate; the state
    starts at zero. The input projection x @ W_x + b is computed for all days
    at once, outside the time loop, so each day costs one (B, H) @ (H, 4H)
    product, one sigmoid over the three contiguous sigmoid gates (the
    arithmetic of sigmoid_values) and one tanh. Every per-day operand is a
    view taken by zip over the (T, ...) arrays, and every per-day result is
    written into a preallocated buffer. The cache is (gates, h, c, tanh_c),
    all C-contiguous.
    """
    b, t_count = features.shape[:2]
    hidden = w_cell.shape[1] // 4
    n_sig = 3 * hidden
    w_h = w_cell[:hidden]
    gates = np.empty((t_count, b, 4 * hidden))          # (T, B, 4H) pre-activations
    np.matmul(features.transpose(1, 0, 2), w_cell[hidden:], out=gates)
    gates += b_cell
    h = np.zeros((t_count + 1, b, hidden))              # h[t] is the state before day t
    c = np.zeros((t_count + 1, b, hidden))
    tanh_c = np.empty((t_count, b, hidden))
    rec = np.empty((b, 4 * hidden))
    e = np.empty((b, n_sig))
    den = np.empty((b, n_sig))
    nonneg = np.empty((b, n_sig), dtype=bool)
    iu = np.empty((b, hidden))
    days = zip(gates, gates[..., :n_sig], gates[..., :hidden],
               gates[..., hidden:2 * hidden], gates[..., 2 * hidden:n_sig],
               gates[..., n_sig:], h, h[1:], c, c[1:], tanh_c)
    for g, sig, i, f, o, u, h_prev, h_next, c_prev, c_next, tc in days:
        np.matmul(h_prev, w_h, out=rec)
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


def lstm_sequence(w_cell: Var, b_cell: Var, features: np.ndarray) -> Var:
    """Fused LSTM over features (B, T, m): hidden states (T, B, H) as one tape node.

    The backward pass is hand-written backpropagation through time over the
    kernel's own cache; the node's value is a view of the cached h.
    """
    tape = _same_tape(w_cell, b_cell)
    features = np.asarray(features, dtype=np.float64)
    hs, cache = lstm_sequence_values(w_cell.value, b_cell.value, features)
    w_h_t = w_cell.value[:w_cell.value.shape[1] // 4].T
    return tape._push(hs, (w_cell, b_cell),
                      partial(_lstm_grads, w_h_t, (features.transpose(1, 0, 2), *cache)))


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


def masked_mean(a: Var, mask: np.ndarray) -> Var:
    """Mean over selected cells; an empty mask yields 0 and passes no gradient."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.value.shape:
        raise DomainError("mask shape must match the operand")
    count = int(mask.sum())
    value = a.value[mask].sum() / count if count else 0.0
    return a.tape._push(value, (a,), _scatter(a.value, mask, count) if count else None)
