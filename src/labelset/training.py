"""Adam optimizer, evaluation loop, and the deterministic training driver.

``Adam`` owns the storage of the parameters it updates: it moves them and
their gradients into two flat buffers and steps over those in cache-sized
blocks of the fixed ``BLOCK`` elements.

Determinism contract: all randomness flows from three generators derived
from the configured seed (parameter init, shuffling, dropout), the numeric
core replays gradients in a fixed order, and evaluation is pure, so two
runs with the same config and corpus produce bit-identical logs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .data import Corpus, Dataset, batch_iterator
from .diversity import objective
from .errors import ContractError, NumericDomainError, TrainingDiverged
from .matching import pad_gold
from .metrics import MetricAccumulator
from .model import Model, RunConfig, build_model, save_checkpoint

# elements per Adam block: a block's four state slices and two scratch rows
# (6 x 256 KiB) fit in a 2 MiB L2 cache
BLOCK = 32768
# Adam's moment decay rates and the floor added to the update's denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment gradient descent over a named parameter dict.

    Construction moves the parameters into one flat buffer of their dtype
    (float32 for a model's), in the dict's insertion order, and their
    gradients into a second one; the moments and scratch rows take the same
    dtype.  Each parameter's ``.data`` and ``.grad`` are rebound to views of
    those buffers, so the model and the optimizer share storage.  ``step`` walks
    the parameters, gradients and both moments in blocks of ``BLOCK``
    elements, a size whose working set fits in a core's cache, and gives
    each element the same arithmetic in the same order as a per-parameter
    update would, so the result does not depend on the block size.
    """

    def __init__(self, params: dict[str, T.Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        total = sum(p.data.size for p in params.values())
        dtype = np.result_type(*(p.data.dtype for p in params.values()))
        self.data = np.empty(total, dtype)
        self.grad = np.empty(total, dtype)
        offset = 0
        for param in params.values():
            shape, end = param.data.shape, offset + param.data.size
            self.data[offset:end] = param.data.ravel()
            self.grad[offset:end] = param.grad.ravel()
            param.data = self.data[offset:end].reshape(shape)
            param.grad = self.grad[offset:end].reshape(shape)
            offset = end
        self.first_moment = np.zeros(total, dtype)
        self.second_moment = np.zeros(total, dtype)
        self._scratch = np.empty((2, BLOCK), dtype)

    def step(self) -> None:
        for name, param in self.params.items():
            if param.data.base is not self.data or \
                    getattr(param.grad, "base", None) is not self.grad:
                raise ContractError(f"parameter {name!r} no longer views the optimizer's buffers")
        self.step_count += 1
        scale1 = 1.0 - BETA1 ** self.step_count
        scale2 = 1.0 - BETA2 ** self.step_count
        block = self._scratch.shape[1]
        for start in range(0, self.data.size, block):
            end = start + block
            p, g = self.data[start:end], self.grad[start:end]
            m, v = self.first_moment[start:end], self.second_moment[start:end]
            a, b = self._scratch[0, :p.size], self._scratch[1, :p.size]
            m *= BETA1
            np.multiply(1.0 - BETA1, g, out=a)
            m += a
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=a)
            a *= g
            v += a
            np.divide(m, scale1, out=a)
            a *= self.lr
            np.divide(v, scale2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p -= a

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def evaluate(model: Model, dataset: Dataset) -> dict[str, float]:
    """Micro metrics of the model's predictions over one split."""
    acc = MetricAccumulator(model.label_vocab.size)
    preds = model.predict_many([sample.tokens for sample in dataset])
    for sample, pred in zip(dataset, preds):
        acc.accumulate(set(sample.labels), pred)
    return acc.finalize()


class BatchLoss(NamedTuple):
    """One batch's mean objective on the tape, and the forward means of its
    two terms: the set loss (the binary cross entropy for the bce head) and
    the unweighted overlap penalty (0.0 when it is off)."""

    total: T.Tensor
    set_loss: float
    bc_penalty: float


def batch_loss(model: Model, samples, dropout_rng=None) -> BatchLoss:
    """Mean per-sample objective over one batch of samples, on the active
    tape: the model's queries, then one encoder and one decoder pass for the
    whole batch, matched per sample.  Dropout runs when given a Generator."""
    config, queries = model.config, model.queries()
    memory = model.encode([sample.tokens for sample in samples], rng=dropout_rng)
    labels = [sample.labels for sample in samples]
    if model.bce is not None:
        total = model.bce.loss(memory, labels).mean()
        return BatchLoss(total, float(total.data), 0.0)
    ps = model.decoder.decode(queries, memory, rng=dropout_rng)
    gold = np.stack([pad_gold(l, config.num_queries, model.label_vocab.null_index) for l in labels])
    terms = objective(gold, ps, config.effective_bc_weight, config.cost_mode)
    penalty = 0.0 if terms.penalty is None else float(terms.penalty.data.mean())
    total = terms.total.mean()
    # the float32 set loss averaged in total's float64, so the logged parts add up
    return BatchLoss(total, float(terms.set_loss.data.mean(dtype=total.data.dtype)), penalty)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    set_loss: float     # train_loss = set_loss + bc_weight * bc_penalty, up to rounding
    bc_penalty: float
    grad_norm: float    # mean over the epoch's batches of the L2 norm of the gradient before a step
    valid_f1: float
    valid_precision: float
    valid_recall: float
    valid_hamming: float


@dataclass
class TrainResult:
    history: list[EpochRecord] = field(default_factory=list)
    best_valid_f1: float = -1.0
    best_epoch: int = -1
    checkpoint_path: str | None = None


def train(model: Model, corpus: Corpus, out_dir: str | None = None,
          log_stream=None) -> TrainResult:
    """Optimize the model, tracking the best validation micro-F1.

    Writes the best checkpoint and a JSONL epoch log under ``out_dir`` when
    given.  A non-finite batch loss, or NaN/Inf met anywhere in an epoch's
    training or validation, aborts with ``TrainingDiverged`` and the best
    checkpoint already on disk.
    """
    config = model.config
    shuffle_rng = np.random.default_rng(config.seed + 1)
    dropout_rng = np.random.default_rng(config.seed + 2)
    optimizer = Adam(model.trainable_parameters(), lr=config.learning_rate)
    result = TrainResult()
    log_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.checkpoint_path = os.path.join(out_dir, "best.npz")
        log_fh = open(os.path.join(out_dir, "train_log.jsonl"), "w", encoding="utf-8")
    try:
        for epoch in range(1, config.epochs + 1):
            epoch_losses = []
            try:
                for samples in batch_iterator(corpus.train, config.batch_size, rng=shuffle_rng):
                    T.reset_tape()
                    loss = batch_loss(model, samples, dropout_rng)
                    value = float(loss.total.data)
                    if not np.isfinite(value):
                        raise NumericDomainError("non-finite loss")
                    optimizer.zero_grad()
                    T.backward(loss.total)
                    grad_norm = float(np.sqrt(np.dot(optimizer.grad, optimizer.grad)))
                    optimizer.step()
                    epoch_losses.append((value, loss.set_loss, loss.bc_penalty, grad_norm))
                T.reset_tape()
                valid_report = evaluate(model, corpus.valid)
            except NumericDomainError as exc:
                # parameters blown up by an update reach a softmax or matching
                # as NaN/Inf before any loss is non-finite
                kept = (f"best checkpoint is from epoch {result.best_epoch}"
                        if result.best_epoch > 0 else "no checkpoint was saved")
                raise TrainingDiverged(f"{exc} at epoch {epoch}; {kept}") from exc
            train_loss, set_part, penalty, grad_norm = (float(np.mean(column))
                                                        for column in zip(*epoch_losses))
            record = EpochRecord(epoch=epoch,
                                 train_loss=train_loss,
                                 set_loss=set_part,
                                 bc_penalty=penalty,
                                 grad_norm=grad_norm,
                                 valid_f1=valid_report["f1"],
                                 valid_precision=valid_report["precision"],
                                 valid_recall=valid_report["recall"],
                                 valid_hamming=valid_report["hamming_loss"])
            result.history.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record.__dict__) + "\n")
                log_fh.flush()
            if log_stream is not None:
                log_stream.write(
                    f"epoch {record.epoch:3d}  loss {record.train_loss:.4f}  "
                    f"valid F1 {record.valid_f1:.4f}  HL {record.valid_hamming:.4f}\n")
            if record.valid_f1 > result.best_valid_f1:
                result.best_valid_f1 = record.valid_f1
                result.best_epoch = epoch
                if result.checkpoint_path is not None:
                    save_checkpoint(result.checkpoint_path, model)
    finally:
        if log_fh is not None:
            log_fh.close()
    return result


def run_training(config: RunConfig, corpus: Corpus, out_dir: str | None = None,
                 log_stream=None) -> tuple[Model, TrainResult]:
    model = build_model(config, corpus)
    return model, train(model, corpus, out_dir=out_dir, log_stream=log_stream)
