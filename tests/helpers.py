"""Shared numeric-check utilities and oracles for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import labelset
from labelset import tensor as T
from labelset.decoder import PredictionSet
from labelset.diversity import objective
from labelset.errors import ContractError, GraphConstructionError

# the paper-like corpus of 64 labels (``SyntheticSpec`` settings)
K64_SPEC = {"num_labels": 64, "vocab_size": 160, "extra_label_prob": 0.25}
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


def bhattacharyya_pair(p, q) -> T.Tensor:
    """Overlap coefficient of two probability vectors, in [0, 1], as a
    constant: the reference the batched ``bc_penalty`` is checked against."""
    p, q = T.as_tensor(p), T.as_tensor(q)
    for vec in (p, q):
        if vec.ndim != 1:
            raise ContractError(f"expected probability vectors, got shape {vec.shape}")
        if (vec.data < 0.0).any():
            raise ContractError("probability vector has negative entries")
        if abs(vec.data.sum() - 1.0) > 1e-9:
            raise ContractError(f"probability vector sums to {vec.data.sum()!r}, not 1")
    if p.shape != q.shape:
        raise ContractError(f"length mismatch: {p.shape} vs {q.shape}")
    return T.Tensor(np.sqrt(p.data * q.data).sum())


def total_loss(gold: np.ndarray, ps: PredictionSet, bc_weight: float,
               cost_mode: str = "prob") -> T.Tensor:
    """The ``total`` of ``diversity.objective``."""
    return objective(gold, ps, bc_weight, cost_mode).total


def load_matrix(path) -> np.ndarray:
    """Read back a ``graph.dump_matrix`` text dump."""
    with open(path, encoding="utf-8") as fh:
        k = int(fh.readline())
        rows = [np.fromstring(fh.readline(), sep=" ") for _ in range(k)]
    matrix = np.vstack(rows)
    if matrix.shape != (k, k):
        raise GraphConstructionError(f"matrix dump at {path} is not {k}x{k}")
    return matrix


def rule_labels(text: str, spec) -> tuple[str, ...]:
    """Oracle: recover the gold label names a ``data.SyntheticSpec`` text
    implies, each trigger word "trig{i}" implying "label{i}"."""
    table = {f"trig{i}": f"label{i}" for i in range(spec.num_labels)}
    present = {table[w] for w in text.split() if w in table}
    return tuple(sorted(present, key=lambda n: int(n.removeprefix("label"))))


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args`` in ``cwd``, importing labelset
    from the same sources as this suite; its output is captured as text."""
    src = str(Path(labelset.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
