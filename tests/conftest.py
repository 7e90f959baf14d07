import dataclasses
import hashlib

import numpy as np
import pytest

from multinet.model import fc1_rows
from multinet.tensor import Tape, Tensor, backward, make_op


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def numeric_grads(f, arrays, eps=1e-5):
    """Central finite differences of scalar f(*arrays) w.r.t. each array."""
    grads = []
    arrays = [np.array(a, dtype=float) for a in arrays]
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f(*arrays)
            flat[i] = orig - eps
            fm = f(*arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def weighted_sum(t, w):
    """Scalar sum(t * w) for a constant array w, as one tape op. A gradient
    check reads an op's output through random weights so that each output
    element carries its own gradient; the engine's `elementwise` mul takes
    only a number, the one form the model runs, so the tests bring this op."""
    w = np.asarray(w)
    return make_op(np.asarray((t.data * w).sum()), (t,), lambda g: (g * w,), "weighted_sum")


def analytic_grads(build, arrays):
    """Tape gradients of scalar build(*tensors) w.r.t. each input array."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*ts)
        backward(loss, tape)
    return [t.grad.copy() for t in ts], float(loss.data)


def check_grads(build, arrays, tol=1e-4, eps=1e-5):
    """Assert analytic and finite-difference gradients agree."""

    def scalar(*arrs):
        ts = [Tensor(a) for a in arrs]
        return float(build(*ts).data)

    ana, _ = analytic_grads(build, arrays)
    num = numeric_grads(scalar, arrays, eps=eps)
    worst = max(rel_err(a, n) for a, n in zip(ana, num))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3g} > {tol}"
    return worst


def as_float64(net):
    """Cast a Multinet's parameters to float64 in place, with zeroed grads,
    and return it. Every op follows its inputs' dtype and the network casts
    its inputs to the parameters', so the same code then runs in float64."""
    for _, t, _ in net.params.items():
        t.data = t.data.astype(np.float64)
        t.grad = np.zeros_like(t.data)
    return net


def record_grads(net):
    """Record name -> the gradient of that checkpoint record of a Multinet, in
    the order and shapes `records` gives: a stacking-mode region fc1's image
    and task block gradients are joined through `fc1_rows`."""
    grads = {}
    for name, t, _ in net.params.items():
        record, _, block = name.partition(":")
        if block:
            rows = fc1_rows(net.cfg)
            shape = (len(rows["image"]) + len(rows["task"]), t.grad.shape[1])
            grads.setdefault(record, np.empty(shape, t.grad.dtype))[rows[block]] = t.grad
        else:
            grads[record] = t.grad.copy()
    return grads


def reseal(path, edit):
    """Rewrite a checksummed container with body `edit(body)` and a valid
    SHA-256 trailer, so only the parser can catch the damage."""
    raw = path.read_bytes()
    body = edit(raw[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())


def as_boxes(rows):
    """(N, 4) float64 box array of N (x1, y1, x2, y2) rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def check_scene(scene, spec):
    """Assert the invariants of a generated scene: image shape and range,
    classes in range, object boxes on the canvas, an image label naming
    exactly the object classes, and every part strictly inside its parent
    object and at least 6 pixels on a side."""
    assert scene.image.shape == (spec.canvas, spec.canvas, 3)
    assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
    cls, ob = scene.object_classes, scene.object_boxes
    assert ob.shape == (len(cls), 4) and ob.dtype == np.float64
    assert np.all((1 <= cls) & (cls <= spec.n_classes))
    assert np.all((0 <= ob[:, 0]) & (ob[:, 0] < ob[:, 2]) & (ob[:, 2] <= spec.canvas))
    assert np.all((0 <= ob[:, 1]) & (ob[:, 1] < ob[:, 3]) & (ob[:, 3] <= spec.canvas))
    present = np.zeros(spec.n_classes, dtype=np.uint8)
    present[cls - 1] = 1
    assert np.array_equal(present, scene.img_label)
    pcls, pb, parent = scene.part_classes, scene.part_boxes, scene.part_parents
    assert pb.shape == (len(pcls), 4) and parent.shape == pcls.shape
    assert np.all((1 <= pcls) & (pcls <= spec.n_part_classes))
    pob = ob[parent]
    assert np.all((pob[:, 0] < pb[:, 0]) & (pb[:, 2] < pob[:, 2]))
    assert np.all((pob[:, 1] < pb[:, 1]) & (pb[:, 3] < pob[:, 3]))
    assert np.all(pb[:, 2] - pb[:, 0] >= 6) and np.all(pb[:, 3] - pb[:, 1] >= 6)


def assert_same_scene(a, b):
    """Every array of scene `a` equals the same field of scene `b`."""
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def n_values(params):
    """Number of scalar values in a ParamGroup."""
    return sum(t.data.size for _, t, _ in params.items())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
