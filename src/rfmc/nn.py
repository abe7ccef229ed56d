"""Float feedforward classifier: batched forward pass, backprop, Adam training.

The production architecture is 1800-100-20-7 (ReLU hidden layers, softmax
output, cross-entropy loss), but every routine works for arbitrary layer
dims so small networks can be checked against independent oracles.

``activations`` is the one float forward pass. Inference (``forward_batch``,
through ``rfmc.model``), training (``_forward_backward``, then the in-place
``adam_update``) and quantization's calibration all read their layers from
it. ``forward`` and ``adam_step`` are one-frame and copying forms that stay
only because the benchmark traces them.

``check_layers`` is the one layer-stack check, for both network kinds, so
a network of either kind that validates also saves and loads.

``train`` has one recipe: batches of ``BATCH_SIZE``, each an Adam step at
``LEARNING_RATE`` then decoupled weight decay ``WEIGHT_DECAY``. Callers set
only the epochs (``EPOCHS`` by default) and the seed.

``train`` runs in float32: frames, parameters, gradients and Adam state.
The deployed datapath is 16-bit fixed point, so float64 training carries
precision that deployment throws away. ``train`` returns float64
widenings of its float32 parameters, which are exact, so model files,
float inference and quantization see float64 as before. The other
routines compute in the dtype they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import rng_from_seed, split_seed

ARCH = (1800, 100, 20, 7)

# Probabilities are clamped here before log() so a confident miss stays finite.
LOSS_CLAMP = 1e-12

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
LEARNING_RATE = 1e-3

# Decoupled L2 decay on weights (biases exempt), applied by train() after
# each Adam step. Without it the over-parameterized first layer memorizes
# raw I/Q training frames instead of learning statistics.
WEIGHT_DECAY = 1.0

BATCH_SIZE = 64
EPOCHS = 30


@dataclass
class NetworkParams:
    """Per-layer weight matrices (out x in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "NetworkParams":
        return NetworkParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def astype(self, dtype) -> "NetworkParams":
        return NetworkParams(
            [w.astype(dtype) for w in self.weights], [b.astype(dtype) for b in self.biases]
        )

    def validate(self) -> None:
        check_layers(self.weights, self.biases)
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")


def check_layers(weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
    """Raise ``ValueError`` unless ``weights`` and ``biases`` are a non-empty
    layer stack: 2-D (out x in) weights, one bias per row, chained dims."""
    if len(weights) != len(biases) or not weights:
        raise ValueError("weights and biases must be non-empty and congruent")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("bias length must match weight rows")
        if i and w.shape[1] != weights[i - 1].shape[0]:
            raise ValueError(f"layer {i} input dim {w.shape[1]} does not chain to the "
                             f"previous output dim {weights[i - 1].shape[0]}")


@dataclass
class AdamState:
    # First and second moments, one array per parameter array in
    # ``params.weights + params.biases`` order.
    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0
    # Two work buffers per parameter array for adam_update.
    _buffers: list[tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list, repr=False, compare=False
    )

    @classmethod
    def zeros(cls, params: NetworkParams) -> "AdamState":
        arrays = params.weights + params.biases
        return cls([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays])

    def copy(self) -> "AdamState":
        return AdamState([m.copy() for m in self.m], [v.copy() for v in self.v], self.step_count)

    def buffers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Work buffers shaped like the moments."""
        if not self._buffers:
            self._buffers = [(np.empty_like(m), np.empty_like(m)) for m in self.m]
        return self._buffers


def init_params(layer_dims: tuple[int, ...] = ARCH, seed: int = 0) -> NetworkParams:
    """He-style uniform init (+-sqrt(6/fan_in)), zero biases.

    The float64 weights hold float32-representable values, so ``train``
    starts from them exactly and ``train(epochs=0)`` returns them.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = rng_from_seed(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        weights.append(w.astype(np.float32).astype(np.float64))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis, in float32 for float32
    logits and in float64 otherwise."""
    z = np.asarray(z)
    if z.dtype != np.float32:
        z = z.astype(np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def activations(params: NetworkParams, x: np.ndarray) -> list[np.ndarray]:
    """[x, h1, ..., logits] for a (n, in_dim) batch: each layer's input, then
    the output layer's logits. Hidden layers are ReLU."""
    acts = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        acts.append(relu(acts[-1] @ w.T + b))
    acts.append(acts[-1] @ params.weights[-1].T + params.biases[-1])
    return acts


def forward_batch(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Logits for a (n, in_dim) batch."""
    return activations(params, x)[-1]


def forward(params: NetworkParams, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logits, probs) for a single frame: one row of ``forward_batch``.

    No program path calls it; it stays because the benchmark traces it.
    """
    x = np.asarray(frame, dtype=np.float64)
    in_dim = params.weights[0].shape[1]
    if x.shape != (in_dim,):
        raise ValueError(f"frame must have shape ({in_dim},), got {x.shape}")
    logits = forward_batch(params, x[None, :])[0]
    return logits, softmax(logits)


def _forward_backward(
    params: NetworkParams, x: np.ndarray, labels: np.ndarray
) -> tuple[NetworkParams, float]:
    """Mean cross-entropy gradients over a batch, plus the mean loss.

    The gradients take the dtype of ``params`` and ``x``: float32 in
    ``train``, float64 for the finite-difference checks.
    """
    n = x.shape[0]
    acts = activations(params, x)
    probs = softmax(acts[-1])

    picked = probs[np.arange(n), labels]
    loss = float(np.mean(-np.log(np.maximum(picked, LOSS_CLAMP))))

    # Fused softmax + cross-entropy gradient.
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grad_w = [np.empty(0)] * params.n_layers
    grad_b = [np.empty(0)] * params.n_layers
    delta = dlogits
    for i in range(params.n_layers - 1, -1, -1):
        grad_w[i] = delta.T @ acts[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            # ReLU subgradient, 0 at exactly 0: acts[i] = max(z, 0) > 0 iff z > 0.
            delta = (delta @ params.weights[i]) * (acts[i] > 0)
    return NetworkParams(grad_w, grad_b), loss


def adam_update(params: NetworkParams, grads: NetworkParams, state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    Allocates nothing per step: the work buffers live in ``state``.
    """
    arrays = params.weights + params.biases
    grad_arrays = grads.weights + grads.biases
    for g, p in zip(grad_arrays, arrays):
        if g.shape != p.shape:
            raise ValueError("gradient shape mismatch")

    state.step_count += 1
    t = state.step_count
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, LEARNING_RATE
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t

    for p, g, m, v, (step, denom) in zip(arrays, grad_arrays, state.m, state.v, state.buffers()):
        # One operation at a time, in the order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2;
        #   p = p - lr*(m/c1) / (sqrt(v/c2) + eps)
        # so the bits are those of evaluating these expressions.
        m *= b1
        np.multiply(g, 1 - b1, out=step)
        m += step
        v *= b2
        np.square(g, out=denom)
        denom *= 1 - b2
        v += denom
        np.divide(m, c1, out=step)
        step *= lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step


def adam_step(
    params: NetworkParams, grads: NetworkParams, state: AdamState
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update; returns new params and state.

    The inputs are left as they were: this is ``adam_update`` on copies.
    ``train`` runs ``adam_update`` itself; this copying form stays only
    because the benchmark traces it.
    """
    params, state = params.copy(), state.copy()
    adam_update(params, grads, state)
    return params, state


def train(
    frames: np.ndarray,
    labels: np.ndarray,
    epochs: int = EPOCHS,
    seed: int = 0,
    layer_dims: tuple[int, ...] = ARCH,
) -> tuple[NetworkParams, list[float]]:
    """Train from a fresh seeded init; returns (params, per-epoch mean loss).

    Requires ``epochs >= 0``, every label an output class and every output
    class in ``labels``. Batches of ``BATCH_SIZE`` are reshuffled each epoch
    from ``seed``, so the run is a pure function of (frames, labels, epochs,
    seed). Each batch takes one ``adam_update`` at ``LEARNING_RATE``, then
    the weights decay by ``LEARNING_RATE * WEIGHT_DECAY``.

    Training runs in float32: float32 frames are used as they are (others
    are converted once), and the parameters, gradients, Adam moments and
    weight decay are float32. The returned parameters are float64
    widenings of the float32 ones, so they hold exactly what was trained.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    x = np.asarray(frames, dtype=np.float32)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("frames must be a non-empty (n, dim) array")
    if x.shape[1] != layer_dims[0]:
        raise ValueError(f"frame dim {x.shape[1]} != input dim {layer_dims[0]}")
    present = set(np.unique(y).tolist())
    if outside := sorted(present - set(range(layer_dims[-1]))):
        raise ValueError(f"label {outside[0]} is outside 0..{layer_dims[-1] - 1}")
    missing = [c for c in range(layer_dims[-1]) if c not in present]
    if missing:
        raise ValueError(f"dataset is missing classes: {missing}")

    init_seed, shuffle_seed = split_seed(seed, 2)
    params = init_params(layer_dims, seed=init_seed).astype(np.float32)
    state = AdamState.zeros(params)
    shuffle_rng = rng_from_seed(shuffle_seed)

    n = x.shape[0]
    decay = np.float32(1.0 - LEARNING_RATE * WEIGHT_DECAY)
    history: list[float] = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            grads, loss = _forward_backward(params, x[idx], y[idx])
            adam_update(params, grads, state)
            for w in params.weights:
                w *= decay
            epoch_loss += loss
            n_batches += 1
        history.append(epoch_loss / n_batches)
    return params.astype(np.float64), history

