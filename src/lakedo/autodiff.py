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
    """Logistic function on raw arrays, as 0.5 * tanh(x / 2) + 0.5.

    No branch overflows: a logit past about +-37 gives exactly 1 or 0. The
    LSTM kernel gets the same bits with the x / 2 folded into its weights.
    """
    return 0.5 * np.tanh(0.5 * np.asarray(x, dtype=np.float64)) + 0.5


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
        self.backward_visits = 0  # nodes processed by its backward pass

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
        """Gradients of a scalar output at the leaves; None at every interior node.

        An interior gradient is dropped once its gradient function has passed
        it on. The LSTM node consumes its cache, so a tape runs backward once.
        """
        if out.value.size != 1:
            raise DomainError("backward requires a scalar output")
        if self.backward_visits:
            raise DomainError("a tape runs backward once: its LSTM cache is consumed")
        grads: list = [None] * len(self.values)
        grads[out.idx] = np.ones_like(out.value) if self.needs_grad[out.idx] else None
        for i in range(out.idx, -1, -1):
            g, grad_fn = grads[i], self.grad_fns[i]
            if g is None:                   # only nodes that need a gradient get one
                continue
            self.backward_visits += 1
            if not self.parents[i]:
                continue
            grads[i] = None
            for p, gp in zip(self.parents[i], grad_fn(g) if grad_fn else ()):
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
    starts at zero. Each day costs one (B, H) @ (H, 4H) product and one tanh
    over all four gates, with the sigmoids as 0.5 * tanh(x / 2) + 0.5 (the
    arithmetic of sigmoid_values). The x / 2 happens once per call: the three
    contiguous sigmoid columns of w_cell and b_cell are halved up front, so
    the input projection x @ W_x + b (all days at once, outside the time loop)
    and each day's recurrent product come out exactly halved. Halving is exact
    and commutes with every rounding, so the bits are those of halving the sum
    afterwards, unless an intermediate is subnormal. After the tanh, two
    contiguous full-row ops map the gates back: * 0.5 + 0.5 on the sigmoid
    columns, * 1.0 + -0.0 on the candidate (-0.0 is the additive identity that
    keeps the sign of a zero). Every per-day operand is a view taken by zip
    over the (T, ...) arrays, and every per-day result is written into a
    preallocated buffer. The cache is (gates, h, c, tanh_c), all C-contiguous.
    """
    b, t_count = features.shape[:2]
    hidden = w_cell.shape[1] // 4
    n_sig = 3 * hidden
    col_half = np.ones(4 * hidden)                      # 0.5 on the sigmoid columns
    col_half[:n_sig] = 0.5
    w_half = w_cell * col_half
    gate_mul = np.tile(col_half, (b, 1))                # the per-day map back, (B, 4H)
    gate_shift = np.full((b, 4 * hidden), -0.0)
    gate_shift[:, :n_sig] = 0.5
    w_h = w_half[:hidden]
    gates = np.empty((t_count, b, 4 * hidden))          # (T, B, 4H) pre-activations
    np.matmul(features.transpose(1, 0, 2), w_half[hidden:], out=gates)
    gates += b_cell * col_half
    h = np.zeros((t_count + 1, b, hidden))              # h[t] is the state before day t
    c = np.zeros((t_count + 1, b, hidden))
    tanh_c = np.empty((t_count, b, hidden))
    rec = np.empty((b, 4 * hidden))
    iu = np.empty((b, hidden))
    days = zip(gates, gates[..., :hidden], gates[..., hidden:2 * hidden],
               gates[..., 2 * hidden:n_sig], gates[..., n_sig:],
               h, h[1:], c, c[1:], tanh_c)
    for g, i, f, o, u, h_prev, h_next, c_prev, c_next, tc in days:
        np.dot(h_prev, w_h, out=rec)
        g += rec
        np.tanh(g, out=g)
        g *= gate_mul
        g += gate_shift
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
    """BPTT of lstm_sequence: (d w_cell, d b_cell) for upstream g (T, B, H).

    Consumes the cache in place: act takes the gate derivatives, tanh_c
    becomes dc_from_h and c[:-1] the forget activations.
    """
    x, act, h, c, tanh_c = cache
    t_count, b, hidden = tanh_c.shape
    # d(pre-activation) = upstream * partner * activation', where the upstream
    # is dc for the input, forget and candidate gates and dh for the output
    # gate. partner * activation' is formed in act, a quarter of the days at a
    # time through two temporaries (no product reads one view of act while it
    # writes another, which would make numpy copy the operand), and the reverse
    # loop multiplies each day's row by its upstream in place.
    tmp = np.empty((2, (t_count + 3) // 4, b, hidden))
    for a, c_prev, tc in zip(*(np.array_split(y, 4) for y in (act, c[:-1], tanh_c))):
        i, f, o, u = np.split(a, 4, axis=-1)
        t, t2 = tmp[:, :len(a)]
        for sig, partner in ((f, c_prev), (o, tc), (i, u)):
            np.subtract(1.0, sig, out=t)                # ((1 - s) * s) * partner
            t *= sig
            t *= partner
            if partner is c_prev:                       # keeps the forget activations
                np.copyto(c_prev, sig)
            else:                                       # a tanh partner: (1 - p**2) * s
                np.square(partner, out=t2)              # is dc_from_h, or u's derivative
                np.subtract(1.0, t2, out=t2)
                t2 *= sig
                np.copyto(partner, t2)
            np.copyto(sig, t)
    del tmp, t, t2
    dh, dc, d_out = np.empty((3, b, hidden))
    dh_next, dc_next = np.zeros((2, b, hidden))
    dc_gates = dc[:, None, :]
    # One broadcast product scales all four gates by dc; the output gate's
    # dh product is set aside before it and written back after it.
    steps = zip(g[::-1], tanh_c[::-1], c[:-1][::-1], act[::-1],
                act.reshape(t_count, b, 4, hidden)[::-1], act[::-1, :, 2 * hidden:3 * hidden])
    for g_t, dfh, forget, dp, dp_gates, dp_out in steps:
        np.add(g_t, dh_next, out=dh)
        np.multiply(dh, dfh, out=dc)
        dc += dc_next
        np.multiply(dp_out, dh, out=d_out)
        dp_gates *= dc_gates
        np.copyto(dp_out, d_out)
        np.multiply(dc, forget, out=dc_next)
        np.dot(dp, w_h_t, out=dh_next)
    # dw sums a[t].T @ act[t] over the days for a = h[:-1] and x, in day order
    # over chunks small enough that OpenBLAS runs each product on one thread:
    # by default it keeps a gemm of m * n * k <= 2**18 on one, and a threaded
    # gemm can round its cells differently. So the bits do not depend on the
    # thread count, unless one day's product alone is past that bound.
    dw = np.zeros((hidden + x.shape[-1], 4 * hidden))
    for part, a in ((dw[:hidden], h[:-1]), (dw[hidden:], x)):
        step = max(1, 2**18 // (b * a.shape[-1] * 4 * hidden))
        for s in range(0, t_count, step):
            days = slice(s, s + step)
            part += a[days].reshape(-1, a.shape[-1]).T @ act[days].reshape(-1, 4 * hidden)
    return dw, act.sum(axis=(0, 1))


def masked_mean(a: Var, mask: np.ndarray) -> Var:
    """Mean over selected cells; an empty mask yields 0 and passes no gradient."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.value.shape:
        raise DomainError("mask shape must match the operand")
    count = int(mask.sum())
    value = a.value[mask].sum() / count if count else 0.0
    return a.tape._push(value, (a,), _scatter(a.value, mask, count) if count else None)
