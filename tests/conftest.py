import hashlib

import numpy as np
import pytest

from multinet.tensor import Tape, Tensor, backward


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


def reseal(path, edit):
    """Rewrite a checksummed container with body `edit(body)` and a valid
    SHA-256 trailer, so only the parser can catch the damage."""
    raw = path.read_bytes()
    body = edit(raw[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
