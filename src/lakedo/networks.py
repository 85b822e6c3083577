"""Prediction networks: a gated recurrent generator and an MLP discriminator.

The generator is an LSTM-style cell (input/forget/output/candidate gates)
over the daily feature vectors, with three affine heads producing
epilimnion, hypolimnion, and total concentrations every day; regime masking
happens downstream, not here. The discriminator is a small tanh MLP whose
sigmoid output is the probability that a day is numerically mild.

Both parameter sets serialize to a flat CSV of named blocks that
round-trips exactly (values rendered with shortest-round-trip repr).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import sigmoid_values
from .errors import DomainError, SchemaError
from .series import _read_csv, _readonly

__all__ = [
    "MIN_HIDDEN", "MAX_HIDDEN",
    "PredictorParams", "DiscriminatorParams",
    "init_predictor", "init_discriminator",
    "predictor_forward", "predictor_forward_series", "predictor_forward_tape",
    "discriminator_activations", "discriminator_forward", "discriminator_logits",
    "save_checkpoint", "load_checkpoint",
]

# Hidden-state size must stay inside the tuned search range.
MIN_HIDDEN = 20
MAX_HIDDEN = 200

CHECKPOINT_MAGIC = "lakedo-checkpoint"
CHECKPOINT_VERSION = 1
CHECKPOINT_COLUMNS = ("section", "block", "shape", "index", "value")


def _frozen(a) -> np.ndarray:
    return _readonly(np.ascontiguousarray(np.asarray(a, dtype=np.float64)))


@dataclass(frozen=True)
class PredictorParams:
    """Generator weights. Gate order in w_cell/b_cell: input, forget, output, candidate."""

    w_cell: np.ndarray   # (n_features + hidden, 4 * hidden)
    b_cell: np.ndarray   # (4 * hidden,)
    w_head: np.ndarray   # (hidden, 3) -> epi, hyp, total columns
    b_head: np.ndarray   # (3,)

    def __post_init__(self) -> None:
        for name in ("w_cell", "b_cell", "w_head", "b_head"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} must be finite")
        if self.w_cell.ndim != 2 or self.w_cell.shape[1] % 4:
            raise DomainError("w_cell must have shape (n_features + hidden, 4 * hidden)")
        hidden = self.w_cell.shape[1] // 4
        if not (MIN_HIDDEN <= hidden <= MAX_HIDDEN):
            raise DomainError(f"hidden size must lie in [{MIN_HIDDEN}, {MAX_HIDDEN}], got {hidden}")
        if self.w_cell.shape[0] <= hidden:
            raise DomainError("w_cell must stack hidden state above at least one feature")
        if self.b_cell.shape != (4 * hidden,):
            raise DomainError("b_cell must have shape (4 * hidden,)")
        if self.w_head.shape != (hidden, 3):
            raise DomainError("w_head must have shape (hidden, 3)")
        if self.b_head.shape != (3,):
            raise DomainError("b_head must have shape (3,)")

    @property
    def hidden_size(self) -> int:
        return self.w_cell.shape[1] // 4

    @property
    def n_features(self) -> int:
        return self.w_cell.shape[0] - self.hidden_size

    def to_blocks(self) -> dict[str, np.ndarray]:
        return {"w_cell": self.w_cell, "b_cell": self.b_cell,
                "w_head": self.w_head, "b_head": self.b_head}

    @staticmethod
    def from_blocks(blocks: dict[str, np.ndarray]) -> "PredictorParams":
        return PredictorParams(w_cell=blocks["w_cell"], b_cell=blocks["b_cell"],
                               w_head=blocks["w_head"], b_head=blocks["b_head"])


def init_predictor(n_features: int, hidden_size: int, seed: int) -> PredictorParams:
    """Uniform init on [-1/sqrt(hidden), 1/sqrt(hidden)] for every block."""
    if n_features < 1:
        raise DomainError("n_features must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden_size)
    return PredictorParams(
        w_cell=rng.uniform(-bound, bound, (n_features + hidden_size, 4 * hidden_size)),
        b_cell=rng.uniform(-bound, bound, 4 * hidden_size),
        w_head=rng.uniform(-bound, bound, (hidden_size, 3)),
        b_head=rng.uniform(-bound, bound, 3),
    )


def predictor_forward(params: PredictorParams, features: np.ndarray) -> np.ndarray:
    """Raw head outputs, one (epi, hyp, total) row per day.

    features is (days, n_features) for one series, giving (days, 3), or
    (windows, days, n_features) for equal-length windows, giving
    (windows, days, 3). All three heads fire every day; callers mask by
    regime.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (2, 3) or features.shape[-1] != params.n_features:
        raise DomainError(f"features must have shape ([windows,] days, {params.n_features})")
    batch = features if features.ndim == 3 else features[None]
    hs, _ = ad.lstm_sequence_values(params.w_cell, params.b_cell, batch)
    # (days, windows, H) hidden states -> (windows, days, 3) head outputs.
    out = np.ascontiguousarray((hs @ params.w_head + params.b_head).transpose(1, 0, 2))
    return out if features.ndim == 3 else out[0]


def predictor_forward_series(params: PredictorParams,
                             features: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Head outputs for series of any lengths, all from one batched forward.

    Each (days_i, n_features) series is right-padded with zeros to the
    longest one and its (days_i, 3) outputs are cut back to its own days.
    The LSTM is causal, so padding after a series' end cannot change any of
    its days.
    """
    features = [np.asarray(f, dtype=np.float64) for f in features]
    if not features or any(f.ndim != 2 for f in features):
        raise DomainError("need at least one (days, n_features) series")
    lengths = [f.shape[0] for f in features]
    batch = np.zeros((len(features), max(lengths), features[0].shape[1]))
    for row, f in zip(batch, features):
        row[:f.shape[0]] = f
    out = predictor_forward(params, batch)
    return [series[:n] for series, n in zip(out, lengths)]


def predictor_forward_tape(p: dict[str, ad.Var], features: np.ndarray) -> ad.Var:
    """Differentiable batched forward: features (B, T, m) -> head outputs (T, B, 3)."""
    hs = ad.lstm_sequence(p["w_cell"], p["b_cell"], features)
    return ad.add(ad.matmul(hs, p["w_head"]), p["b_head"])


@dataclass(frozen=True)
class DiscriminatorParams:
    """Tanh MLP with a single sigmoid output; layers as ((w, b), ...)."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise DomainError("discriminator needs at least one layer")
        frozen = []
        for li, (w, b) in enumerate(self.layers):
            w, b = _frozen(w), _frozen(b)
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise DomainError(f"layer {li}: w must be 2-D with matching bias")
            frozen.append((w, b))
        for (w0, _), (w1, _) in zip(frozen, frozen[1:]):
            if w0.shape[1] != w1.shape[0]:
                raise DomainError("consecutive layer shapes do not chain")
        if frozen[-1][0].shape[1] != 1:
            raise DomainError("final layer must emit a single logit")
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def n_inputs(self) -> int:
        return self.layers[0][0].shape[0]

    def to_blocks(self) -> dict[str, np.ndarray]:
        blocks: dict[str, np.ndarray] = {}
        for li, (w, b) in enumerate(self.layers):
            blocks[f"layer{li}_w"] = w
            blocks[f"layer{li}_b"] = b
        return blocks

    @staticmethod
    def from_blocks(blocks: dict[str, np.ndarray]) -> "DiscriminatorParams":
        layers = []
        li = 0
        while f"layer{li}_w" in blocks:
            layers.append((blocks[f"layer{li}_w"], blocks[f"layer{li}_b"]))
            li += 1
        return DiscriminatorParams(layers=tuple(layers))


def init_discriminator(n_inputs: int, hidden: tuple[int, ...] = (32, 32),
                       seed: int = 0) -> DiscriminatorParams:
    """Uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    sizes = [n_inputs, *hidden, 1]
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append((rng.uniform(-bound, bound, (fan_in, fan_out)),
                       rng.uniform(-bound, bound, fan_out)))
    return DiscriminatorParams(layers=tuple(layers))


def discriminator_activations(layers: Sequence[tuple[np.ndarray, np.ndarray]],
                              x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output for rows x, x first: tanh after each layer but the linear last."""
    acts = [x]
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if li < len(layers) - 1 else z)
    return acts


def discriminator_logits(params: DiscriminatorParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.n_inputs:
        raise DomainError(f"discriminator expects {params.n_inputs} inputs per row")
    return discriminator_activations(params.layers, x)[-1][:, 0]


def discriminator_forward(params: DiscriminatorParams, x: np.ndarray) -> np.ndarray:
    """Probability that each day (row) is mild: exactly 0 or 1 past a logit of about +-37."""
    return sigmoid_values(discriminator_logits(params, x))


def save_checkpoint(path: str | Path, predictor: PredictorParams | None = None,
                    discriminator: DiscriminatorParams | None = None) -> None:
    """Flat CSV of named parameter blocks: section,block,shape,index,value.

    Rows end in CRLF, as the csv module writes them; no cell ever needs
    quoting, and values render as shortest-round-trip repr.
    """
    if predictor is None and discriminator is None:
        raise DomainError("nothing to save")
    lines = [f"{CHECKPOINT_MAGIC},{CHECKPOINT_VERSION}", ",".join(CHECKPOINT_COLUMNS)]
    sections = []
    if predictor is not None:
        sections.append(("predictor", predictor.to_blocks()))
    if discriminator is not None:
        sections.append(("discriminator", discriminator.to_blocks()))
    for section, blocks in sections:
        for name, arr in blocks.items():
            prefix = f"{section},{name},{'x'.join(str(d) for d in arr.shape)},"
            lines += [f"{prefix}{idx},{value!r}"
                      for idx, value in enumerate(arr.ravel().tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def load_checkpoint(path: str | Path) -> tuple[PredictorParams | None, DiscriminatorParams | None]:
    """Inverse of save_checkpoint; raises SchemaError on malformed content."""
    path = Path(path)
    rows = _read_csv(path)
    if len(rows) < 2 or rows[0][:1] != [CHECKPOINT_MAGIC]:
        raise SchemaError(f"{path}: not a checkpoint file")
    try:
        version = int(rows[0][1])
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed checkpoint version") from exc
    if version != CHECKPOINT_VERSION:
        raise SchemaError(f"{path}: unsupported checkpoint version {version}")
    if tuple(rows[1]) != CHECKPOINT_COLUMNS:
        raise SchemaError(f"{path}: malformed checkpoint header")

    # section -> block -> (shape, indices, values), blocks in file order
    sections: dict[str, dict] = {"predictor": {}, "discriminator": {}}
    shapes: dict[str, tuple[int, ...]] = {}     # a block's rows repeat one shape cell
    for r, row in enumerate(rows[2:], start=3):
        if len(row) != 5:
            raise SchemaError(f"{path}: row {r}: expected 5 cells")
        section, block, shape_s, idx_s, value_s = row
        if section not in sections:
            raise SchemaError(f"{path}: row {r}: unknown section {section!r}")
        try:
            shape = shapes.get(shape_s)
            if shape is None:
                shape = shapes[shape_s] = (tuple(int(d) for d in shape_s.split("x"))
                                           if shape_s else ())
            idx = int(idx_s)
            value = float(value_s)
        except ValueError as exc:
            raise SchemaError(f"{path}: row {r}: malformed cell") from exc
        entry = sections[section].setdefault(block, (shape, [], []))
        if shape != entry[0]:
            raise SchemaError(f"{path}: row {r}: inconsistent shape for {block}")
        entry[1].append(idx)
        entry[2].append(value)

    for blocks in sections.values():
        for block, (shape, indices, values) in blocks.items():
            size = int(np.prod(shape, dtype=np.int64))
            if len(indices) != size or sorted(indices) != list(range(size)):
                raise SchemaError(f"{path}: block {block} has missing or duplicate indices")
            flat = np.empty(size)
            flat[indices] = values
            blocks[block] = flat.reshape(shape)
    pred_blocks, disc_blocks = sections["predictor"], sections["discriminator"]
    try:
        predictor = PredictorParams.from_blocks(pred_blocks) if pred_blocks else None
        discriminator = DiscriminatorParams.from_blocks(disc_blocks) if disc_blocks else None
    except (KeyError, DomainError) as exc:
        raise SchemaError(f"{path}: checkpoint blocks do not form valid parameters: {exc}") from exc
    return predictor, discriminator
