"""Dense tensors with reverse-mode automatic differentiation.

A tensor holds a float32 or a float64 array, and every op computes in the
dtype of its inputs, forward and backward, with no branch per dtype. The
model keeps its parameters in float32 (see `model.Multinet`), so it runs in
single precision; tests that build float64 tensors check finite differences
in double precision through the same code. Everything is single-threaded
per tape. Ops only record onto a tape when one is active (see `Tape`), so
inference code that never opens a tape pays no autodiff overhead.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TensorError",
    "ParamGroup",
    "elementwise",
    "matmul",
    "reshape",
    "take_rows",
    "add_rowvec",
    "sum_all",
    "backward",
    "sgd_step",
    "seed_rng",
]


class TensorError(ValueError):
    """Shape mismatch or non-finite values in a tensor operation."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise TensorError(f"non-finite values produced by {op}")


class Tensor:
    """N-dimensional float32 or float64 array with an optional gradient
    buffer of the same dtype. A float32 array stays float32; anything else
    becomes float64."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        _check_finite(self.data, "Tensor()")
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)  # the same array, with no gradient

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar for the two `elementwise` forms.
    def __add__(self, other):
        return elementwise("add", self, other)

    def __mul__(self, other):
        return elementwise("mul", self, other)


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed differentiable ops.

    Ops append in execution order, so the record is topologically sorted by
    construction and a single reverse sweep implements backpropagation.
    """

    _stack: list = []

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._stack.pop()
        return False


def make_op(
    data: np.ndarray,
    inputs: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], Iterable[np.ndarray | None]],
    op: str,
) -> Tensor:
    """Wrap an op result, recording it on the active tape when needed.

    `backward_fn(grad_out)` must return one gradient array (or None) per
    input, in order. `backward` never keeps or writes into what it returns,
    so views of `grad_out`, one array for several inputs and arrays the op
    keeps are all fine. None means the input gets no gradient (`conv2d`
    returns it for the image).
    Upper layers (nnops, model, tasks) use this hook to define fused ops
    with hand-written adjoints.
    """
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    tape = Tape._stack[-1] if Tape._stack else None  # the innermost open tape
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out.requires_grad = needs
    if needs:
        tape.nodes.append(_Node(out, tuple(inputs), backward_fn))
    return out


def elementwise(kind: str, a: Tensor, b) -> Tensor:
    """The two elementwise ops the model runs: `add` of two Tensors of the
    same shape, and `mul` of a Tensor by a number."""
    if kind == "add":
        if a.data.shape != b.data.shape:
            raise TensorError(f"elementwise add: shape {a.data.shape} vs {b.data.shape}")
        return make_op(a.data + b.data, (a, b), lambda g: (g, g), "elementwise:add")
    if kind == "mul":
        k = float(b)
        return make_op(a.data * k, (a,), lambda g: (g * k,), "elementwise:mul")
    raise TensorError(f"unknown elementwise kind {kind!r}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise TensorError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return (g @ bd.T, ad.T @ g)

    return make_op(data, (a, b), bwd, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    """Kept only for `nnops.spp_pool` and the benchmark's name bindings (ROADMAP item 1)."""
    shape = tuple(shape)
    data = a.data.reshape(shape)
    orig = a.data.shape

    def bwd(g):
        return (g.reshape(orig),)

    return make_op(data, (a,), bwd, "reshape")


def take_rows(a: Tensor, idx) -> Tensor:
    """Select distinct rows of a tensor. The backward returns a new gradient,
    zero outside the selected rows. A repeated row raises TensorError."""
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]
    shape = a.data.shape
    if idx.size and np.bincount(idx.ravel() % shape[0]).max() > 1:
        raise TensorError(f"take_rows: repeated rows in {idx.size} indices")

    def bwd(g):
        ga = np.zeros(shape, dtype=a.data.dtype)
        ga[idx] = g
        return (ga,)

    return make_op(data, (a,), bwd, "take_rows")


def add_rowvec(mat: Tensor, vec: Tensor) -> Tensor:
    """Add a length-D vector to every row of an N x D matrix (explicit op;
    no silent broadcasting elsewhere).
    Kept only for the benchmark, which binds it by name (ROADMAP item 1)."""
    if mat.data.ndim != 2 or vec.data.ndim != 1 or mat.data.shape[1] != vec.data.shape[0]:
        raise TensorError(
            f"add_rowvec: shapes {mat.data.shape} and {vec.data.shape}"
        )
    data = mat.data + vec.data[None, :]

    def bwd(g):
        return (g, g.sum(axis=0))

    return make_op(data, (mat, vec), bwd, "add_rowvec")


def sum_all(a: Tensor) -> Tensor:
    """Kept only for the benchmark, which binds it by name (ROADMAP item 1)."""
    data = np.asarray(a.data.sum())
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, g, dtype=a.data.dtype),)

    return make_op(data, (a,), bwd, "sum_all")


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep from `loss`, an op output, whose gradient it sets to 1:
    accumulate grads of all requires_grad ancestors of loss.

    Gradients add onto existing buffers (sum semantics); callers zero
    parameter grads between steps. An input without a buffer gets a copy
    of the first gradient it receives, so every buffer is the sweep's own
    and no two tensors' grads share memory. The tape is cleared afterwards.
    """
    if loss.data.size != 1:
        raise TensorError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = node.out.grad
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.array(gi, dtype=t.data.dtype)
            else:
                t.grad += gi
    tape.nodes.clear()


class ParamGroup:
    """Named parameter tensors with per-parameter learning-rate multipliers
    (1 for filters/weights, 2 for biases)."""

    def __init__(self):
        self._params: dict[str, tuple[Tensor, float]] = {}

    def add(self, name: str, tensor: Tensor, lr_mult: float = 1.0) -> Tensor:
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        if lr_mult <= 0:
            raise TensorError(f"lr multiplier for {name!r} must be positive")
        tensor.requires_grad = True
        if tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)
        self._params[name] = (tensor, lr_mult)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name][0]

    def items(self):
        return [(n, t, m) for n, (t, m) in self._params.items()]

    def zero_grads(self) -> None:
        for t, _ in self._params.values():
            t.grad.fill(0.0)


def sgd_step(params: ParamGroup, base_lr: float) -> None:
    """Plain SGD: w <- w - base_lr * multiplier * grad. No momentum."""
    if base_lr <= 0:
        raise TensorError("base_lr must be positive")
    for name, t, mult in params.items():
        if not np.all(np.isfinite(t.grad)):
            raise TensorError(f"non-finite gradient for parameter {name!r}")
        t.data -= base_lr * mult * t.grad


def seed_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator from one or more integer seed components."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))
