"""Bit-identity fingerprint of training and serving on five configs.

Run as ``PYTHONPATH=src python tests/fingerprint.py [--against FILE] [config ...]``
(all configs when none is named).  It prints one JSON object with, per config:

- ``parameters``: the sha256 of the trained model's parameters, by name;
- ``train_log``: the sha256 of each ``train_log.jsonl`` row, so every
  logged field of every epoch;
- ``labels``: the sha256 of ``predict_many``'s label sets on the 2,000
  training records of ``SyntheticSpec(train_size=2000, seed=7)`` (with the
  config's corpus settings);
- ``chunks``: the sha256 of each serving chunk's head output (the decoder's
  log-probabilities, or the bce head's logits), in chunk order.

The trained model is also saved with ``save_checkpoint`` and loaded again,
and the loaded model serves the same records twice, the second time with
the decoder prefix it kept from the first; if either pass gives other
labels or chunks than the trained model, the script exits 1 with a message.

A change meant to keep every bit prints the same object as its parent: run
the script with the parent's ``src`` on ``PYTHONPATH`` and save what it
prints, then run it with the change's ``src`` and ``--against`` that file.
With ``--against FILE`` it prints each config and digest that differ from
FILE's instead (or that none does) and exits 1 on any difference.
BLAS is pinned to one thread, as the CLI pins it, and the chunks run one
after another, so the chunk order is fixed.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import tempfile
from itertools import zip_longest

from labelset import model as model_module
from labelset.data import SyntheticSpec, generate_synthetic, synthetic_corpus
from labelset.decoder import BceHead, SetDecoder
from labelset.model import RunConfig, load_checkpoint, save_checkpoint
from labelset.training import run_training

K64_SPEC = {"num_labels": 64, "vocab_size": 160, "extra_label_prob": 0.25}
# name: (SyntheticSpec settings, RunConfig settings)
CONFIGS = {
    "default": ({}, {"epochs": 3}),
    "bce": ({}, {"epochs": 3, "head": "bce"}),
    "leaky_relu": ({}, {"epochs": 2, "gcn_activation": "leaky_relu"}),
    "dropout": ({}, {"epochs": 2, "dropout": 0.1}),
    "k64": (K64_SPEC, {"epochs": 2, "num_queries": 32}),
}
SERVE_RECORDS = 2000
SERVE_SEED = 7


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(array) -> str:
    return sha256(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())


def serve(model, rows) -> tuple[list, list[str]]:
    """``predict_many``'s label sets of ``rows``, and a digest of each
    chunk's head output, taken before any later chunk can reuse its buffer."""
    chunks = []
    decode, logits, cpu_count = SetDecoder.decode, BceHead.logits, model_module._cpu_count

    def recording_decode(self, *args, **kwargs):
        ps = decode(self, *args, **kwargs)
        chunks.append(array_digest(ps.log_probs.data))
        return ps

    def recording_logits(self, *args, **kwargs):
        out = logits(self, *args, **kwargs)
        chunks.append(array_digest(out.data))
        return out

    SetDecoder.decode, BceHead.logits, model_module._cpu_count = recording_decode, recording_logits, lambda: 1
    try:
        labels = model.predict_many(rows)
    finally:
        SetDecoder.decode, BceHead.logits, model_module._cpu_count = decode, logits, cpu_count
    return labels, chunks


def fingerprint(name: str) -> dict:
    """Train config ``name`` from its seed, serve the held-out records, and
    digest what came out."""
    spec, settings = CONFIGS[name]
    corpus = synthetic_corpus(SyntheticSpec(**spec))
    with tempfile.TemporaryDirectory() as out_dir:
        model, _ = run_training(RunConfig(**settings), corpus, out_dir=out_dir)
        with open(os.path.join(out_dir, "train_log.jsonl"), "rb") as fh:
            train_log = [sha256(line) for line in fh]
        save_checkpoint(os.path.join(out_dir, "final.npz"), model)
        loaded = load_checkpoint(os.path.join(out_dir, "final.npz"))
    parameters = hashlib.sha256()
    for param_name, param in model.named_parameters().items():
        parameters.update(param_name.encode())
        parameters.update(array_digest(param.data).encode())
    records = generate_synthetic(SyntheticSpec(**spec, train_size=SERVE_RECORDS, seed=SERVE_SEED))[0]
    rows = [model.token_vocab.encode(record.text) for record in records]
    labels, chunks = serve(model, rows)
    for _ in range(2):
        if serve(loaded, rows) != (labels, chunks):
            raise SystemExit(f"{name}: the checkpoint-loaded model serves other labels or "
                             f"chunks than the trained model")
    return {
        "parameters": parameters.hexdigest(),
        "train_log": train_log,
        "labels": sha256(json.dumps([sorted(row) for row in labels]).encode()),
        "chunks": chunks,
    }


def differences(result: dict, saved: dict) -> list[str]:
    """One line per config and digest of ``result`` that ``saved`` does not
    hold alike; a list entry is named by its index."""
    lines = []
    for name, digests in result.items():
        if name not in saved:
            lines.append(f"{name}: not in the saved fingerprint")
            continue
        for key, value in digests.items():
            want = saved[name].get(key)
            if isinstance(value, list) and isinstance(want, list):
                lines += [f"{name} {key}[{i}]: {got} != {old}"
                          for i, (got, old) in enumerate(zip_longest(value, want)) if got != old]
            elif value != want:
                lines.append(f"{name} {key}: {value} != {want}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Bit-identity fingerprint of training and serving.")
    parser.add_argument("configs", nargs="*", metavar="config", help=f"any of {', '.join(CONFIGS)}")
    parser.add_argument("--against", metavar="FILE", help="a saved fingerprint to compare with")
    args = parser.parse_args(argv)
    unknown = [name for name in args.configs if name not in CONFIGS]
    if unknown:
        parser.error(f"unknown config {', '.join(unknown)}; choose from {', '.join(CONFIGS)}")
    result = {name: fingerprint(name) for name in args.configs or CONFIGS}
    if args.against is None:
        print(json.dumps(result, indent=1))
        return 0
    with open(args.against) as fh:
        lines = differences(result, json.load(fh))
    print("\n".join(lines) or f"same as {args.against}: {', '.join(result)}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
