"""Shared numeric-check utilities for the test suite."""

import numpy as np

from labelset import tensor as T

FD_STEP = 1e-5
GRAD_TOL = 1e-3


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def numeric_grad(build_loss, leaves, step: float = FD_STEP):
    """Central-difference gradient of a scalar loss wrt each leaf array.

    ``build_loss`` takes the list of leaf Tensors and returns a scalar float.
    Returns one array per leaf, same shapes.
    """
    grads = []
    for leaf in leaves:
        g = np.zeros_like(leaf.data)
        flat = leaf.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = build_loss(leaves)
            flat[i] = keep - step
            down = build_loss(leaves)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def check_gradients(build_graph, leaves, tol: float = GRAD_TOL, step: float = FD_STEP):
    """Compare reverse-mode gradients against central differences.

    ``build_graph`` maps leaf Tensors to a scalar loss Tensor.  Asserts the
    relative error at every coordinate whose analytic or numeric gradient is
    nonzero.  The leaves are cast to float64 first: a central difference at
    ``FD_STEP`` is defined there, not at a model's float32.
    """
    for leaf in leaves:
        leaf.data = leaf.data.astype(np.float64)
        leaf.grad = leaf.grad.astype(np.float64)

    def scalar_loss(ls):
        T.reset_tape()
        value = float(build_graph(ls).data)
        T.reset_tape()
        return value

    numeric = numeric_grad(scalar_loss, leaves, step=step)

    for leaf in leaves:
        leaf.grad[...] = 0.0
    T.reset_tape()
    loss = build_graph(leaves)
    T.backward(loss)
    T.reset_tape()

    for leaf, num in zip(leaves, numeric):
        ana = leaf.grad
        for a, n in zip(ana.ravel(), num.ravel()):
            if a == 0.0 and abs(n) < 10 * step:
                continue
            assert rel_err(a, n) <= tol, f"gradient mismatch: analytic={a!r} numeric={n!r}"


def leaf(rng, *shape, scale: float = 1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)
