"""Dense tensors with reverse-mode automatic differentiation.

A tensor holds a float32 or a float64 array, and every op computes in the
dtype of its inputs, forward and backward, with no branch per dtype. The
model keeps its parameters in float32 (see `model.Multinet`), so it runs in
single precision; tests that build float64 tensors check finite differences
in double precision through the same code. Everything is single-threaded
per tape. Ops only record onto a tape when one is active (see `Tape`), so
inference code that never opens a tape pays no autodiff overhead. A
parameter holds no gradient until a backward sweep reaches it: `sgd_step`
steps only the parameters that hold one, and `zero_grads` drops them.
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


class Tensor:
    """N-dimensional float32 or float64 array with an optional gradient
    buffer of the same dtype. A float32 array stays float32; anything else
    becomes float64. Only `ParamGroup.add` and ops mark a tensor as needing a
    gradient. `spare` is a dropped gradient's array, which the next sweep
    writes the tensor's first gradient into (`ParamGroup.zero_grads`)."""

    __slots__ = ("data", "requires_grad", "grad", "spare")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        if not np.isfinite(self.data).all():
            raise TensorError("non-finite values produced by Tensor()")
        self.requires_grad = False
        self.grad = self.spare = None

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)  # the same array, with no gradient

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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
    if not np.isfinite(data).all():
        raise TensorError(f"non-finite values produced by {op}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = out.spare = None
    out.requires_grad = False
    if Tape._stack:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                Tape._stack[-1].nodes.append(_Node(out, tuple(inputs), backward_fn))  # innermost
                break
    return out


def elementwise(a: Tensor, b: Tensor) -> Tensor:
    """The one elementwise op the model runs: the sum of two Tensors of the
    same shape."""
    if a.data.shape != b.data.shape:
        raise TensorError(f"elementwise add: shape {a.data.shape} vs {b.data.shape}")
    return make_op(a.data + b.data, (a, b), lambda g: (g, g), "elementwise:add")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b of a D vector or an N x D matrix `a` and a D x K matrix `b`."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise TensorError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")

    def bwd(g):
        return (g @ bd.T, np.outer(ad, g) if ad.ndim == 1 else ad.T @ g)

    return make_op(ad @ bd, (a, b), bwd, "matmul")


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

    Gradients add onto existing buffers (sum semantics); callers drop
    parameter grads between steps (`ParamGroup.zero_grads`). An input
    without a buffer gets its first gradient plus 0.0, the bytes adding it
    onto zeros gives (-0.0 becomes +0.0), in its `spare` or a new array, so
    every buffer is the sweep's own and no two tensors' grads share memory.
    Each node leaves the tape as the
    sweep reaches it, so what only it holds is freed before the next runs.
    """
    if loss.data.size != 1:
        raise TensorError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    while tape.nodes:
        node = tape.nodes.pop()
        g = node.out.grad
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = gi + 0.0 if t.spare is None else np.add(gi, 0.0, out=t.spare)
                t.spare = None
            else:
                t.grad += gi


class ParamGroup:
    """Named parameter tensors with per-parameter learning-rate multipliers
    (1 for filters/weights, 2 for biases). A parameter has no gradient
    (`grad` None) until a backward sweep reaches it."""

    def __init__(self):
        self._params: dict[str, tuple[Tensor, float]] = {}

    def add(self, name: str, tensor: Tensor, lr_mult: float = 1.0) -> Tensor:
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        if lr_mult <= 0:
            raise TensorError(f"lr multiplier for {name!r} must be positive")
        tensor.requires_grad = True
        self._params[name] = (tensor, lr_mult)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name][0]

    def items(self):
        return [(n, t, m) for n, (t, m) in self._params.items()]

    def zero_grads(self) -> None:
        """Drop every gradient, keeping its array as the tensor's `spare`
        for the next sweep, so a step allocates no parameter gradient."""
        for t, _ in self._params.values():
            if t.grad is not None:
                t.spare, t.grad = t.grad, None


def sgd_step(params: ParamGroup, base_lr: float) -> None:
    """Plain SGD, no momentum: grad <- base_lr * multiplier * grad in place,
    then w <- w - grad, for each parameter that has a gradient. One without
    stays as it is, as subtracting a zero step would leave it."""
    if base_lr <= 0:
        raise TensorError("base_lr must be positive")
    for name, t, mult in params.items():
        if t.grad is None:
            continue
        if not np.isfinite(t.grad).all():
            raise TensorError(f"non-finite gradient for parameter {name!r}")
        t.grad *= base_lr * mult
        t.data -= t.grad


def seed_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator from one or more integer seed components."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))
