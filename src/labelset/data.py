"""Corpus ingestion, label vocabulary, synthetic corpus generation, batching.

The on-disk format is JSONL: one object per line with a string "text" and a
string-array "labels".  Label and token vocabularies are built from the
training split only; valid/test labels never seen in training are dropped
(and counted) because every downstream structure is sized by the training
label set.

``batch_iterator`` groups samples, and samples keep their untruncated
tokens: ``Model.encode`` clips each row and pads the batch with
``pad_batch``, in training and in serving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encoder import PAD, TokenVocabulary
from .errors import ConfigError, ContractError, ParseError, ValidationError

@dataclass(frozen=True)
class RawRecord:
    """One corpus line before vocabularies exist: text plus label names."""
    text: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class Sample:
    text: str
    tokens: np.ndarray        # ids, CLS ... SEP, untruncated
    labels: tuple[int, ...]   # sorted distinct indices in 0..K-1


@dataclass
class Dataset:
    name: str
    samples: list[Sample]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i) -> Sample:
        return self.samples[i]


class LabelVocabulary:
    """Bijection between the K training label names and 0..K-1.

    Index K is reserved for the no-label class appended by the decoder head.
    Names are assigned indices in first-occurrence order over the training
    split, so rebuilding from the same split is reproducible.
    """

    def __init__(self, names):
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValidationError("duplicate label names in vocabulary")

    @classmethod
    def build(cls, records) -> "LabelVocabulary":
        seen: dict[str, None] = {}
        for record in records:
            for name in record.labels:
                seen.setdefault(name, None)
        return cls(list(seen))

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def null_index(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def encode(self, names) -> tuple[int, ...]:
        return tuple(sorted(self.index[n] for n in set(names)))

    def decode(self, indices) -> list[str]:
        return sorted(self.names[i] for i in set(indices))


def read_jsonl(path, require_labels: bool = True) -> tuple[list[RawRecord], int]:
    """Parse a JSONL corpus file.

    Returns the records plus a count of duplicate label mentions that were
    collapsed.  Whitespace-only lines are skipped; anything else that fails
    to parse points at its 1-based line number.  With ``require_labels``
    off (prediction inputs), a missing "labels" field reads as empty.
    """
    records: list[RawRecord] = []
    duplicates = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: expected an object")
            text = obj.get("text")
            labels = obj.get("labels")
            if labels is None and not require_labels:
                labels = []
            if not isinstance(text, str):
                raise ParseError(f"{path}:{lineno}: field \"text\" must be a string")
            if not isinstance(labels, list) or any(not isinstance(l, str) for l in labels):
                raise ParseError(f"{path}:{lineno}: field \"labels\" must be an array of strings")
            deduped: dict[str, None] = {}
            for name in labels:
                if name in deduped:
                    duplicates += 1
                deduped.setdefault(name, None)
            records.append(RawRecord(text=text, labels=tuple(deduped)))
    return records, duplicates


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps({"text": record.text, "labels": list(record.labels)}) + "\n")


@dataclass
class Corpus:
    train: Dataset
    valid: Dataset
    test: Dataset
    label_vocab: LabelVocabulary
    token_vocab: TokenVocabulary
    counters: dict[str, int] = field(default_factory=dict)


def records_to_dataset(records, label_vocab: LabelVocabulary,
                       token_vocab: TokenVocabulary, name: str,
                       drop_unseen: bool) -> tuple[Dataset, int]:
    """Tokenize records against fixed vocabularies.

    With ``drop_unseen`` on, labels outside the vocabulary are removed and
    counted; otherwise they raise through the vocabulary lookup.
    """
    dropped = 0
    samples = []
    for record in records:
        names = record.labels
        if drop_unseen:
            kept = tuple(n for n in names if n in label_vocab)
            dropped += len(names) - len(kept)
            names = kept
        samples.append(Sample(text=record.text,
                              tokens=token_vocab.encode(record.text),
                              labels=label_vocab.encode(names)))
    return Dataset(name, samples), dropped


def build_corpus(train_records, valid_records, test_records) -> Corpus:
    """Assemble a Corpus from parsed records.

    Both vocabularies come from the training records alone.  Training
    records must carry at least one label each; valid/test labels outside
    the training vocabulary are dropped and counted.
    """
    if not train_records:
        raise ValidationError("training split is empty")
    for i, record in enumerate(train_records):
        if not record.labels:
            raise ValidationError(f"training record {i} has no labels")
    label_vocab = LabelVocabulary.build(train_records)
    token_vocab = TokenVocabulary.build(r.text for r in train_records)

    train, _ = records_to_dataset(train_records, label_vocab, token_vocab, "train", drop_unseen=False)
    valid, dropped_v = records_to_dataset(valid_records, label_vocab, token_vocab, "valid", drop_unseen=True)
    test, dropped_t = records_to_dataset(test_records, label_vocab, token_vocab, "test", drop_unseen=True)

    corpus = Corpus(train=train, valid=valid, test=test,
                    label_vocab=label_vocab, token_vocab=token_vocab)
    corpus.counters["dropped_unseen_labels"] = dropped_v + dropped_t
    return corpus


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a rule-determined corpus.

    Each label i owes its presence to the trigger token "trig{i}" appearing
    in the text, so by default gold sets are exactly recoverable from the
    words.  A bias pair (i, j, rho) rewrites membership of j on every sample
    where i is active: present with probability rho, absent otherwise, which
    pins the conditional co-occurrence rate P(j|i) to rho.

    With hidden_partners=True a partner label j rewritten by a firing bias
    pair keeps its membership but loses its trigger token: the words then
    carry no direct evidence for j, and predicting it requires exploiting
    the co-occurrence with i.  Labels never touched by a bias rewrite stay
    fully evidenced.
    """

    num_labels: int = 8
    vocab_size: int = 40
    train_size: int = 200
    valid_size: int = 50
    test_size: int = 50
    bias_pairs: tuple[tuple[int, int, float], ...] = ((0, 1, 0.9), (2, 3, 0.8))
    extra_label_prob: float = 0.15
    hidden_partners: bool = False
    min_fillers: int = 2
    max_fillers: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.num_labels < 1:
            raise ConfigError("num_labels must be positive")
        if self.vocab_size <= self.num_labels:
            raise ConfigError(
                f"vocab_size {self.vocab_size} leaves no filler room for {self.num_labels} trigger tokens")
        for i, j, rho in self.bias_pairs:
            if not (0 <= i < self.num_labels and 0 <= j < self.num_labels) or i == j:
                raise ConfigError(f"bias pair ({i}, {j}) out of range")
            if not 0.0 <= rho <= 1.0:
                raise ConfigError(f"bias strength {rho} outside [0, 1]")


def _synthesize_one(spec: SyntheticSpec, rng: np.random.Generator, fillers: list[str]) -> RawRecord:
    active = {int(rng.integers(spec.num_labels))}
    for j in range(spec.num_labels):
        if j not in active and rng.random() < spec.extra_label_prob:
            active.add(j)
    evidenced = set(active)
    for i, j, rho in spec.bias_pairs:
        if i in active:
            if rng.random() < rho:
                active.add(j)
                if spec.hidden_partners:
                    evidenced.discard(j)
                else:
                    evidenced.add(j)
            else:
                active.discard(j)
                evidenced.discard(j)
    words = [f"trig{i}" for i in sorted(evidenced)]
    n_fill = int(rng.integers(spec.min_fillers, spec.max_fillers + 1))
    words += [fillers[int(rng.integers(len(fillers)))] for _ in range(n_fill)]
    rng.shuffle(words)
    return RawRecord(text=" ".join(words), labels=tuple(f"label{i}" for i in sorted(active)))


def generate_synthetic(spec: SyntheticSpec):
    """Three deterministic record lists (train, valid, test) from one seed."""
    rng = np.random.default_rng(spec.seed)
    fillers = [f"filler{j}" for j in range(spec.vocab_size - spec.num_labels)]
    splits = []
    for size in (spec.train_size, spec.valid_size, spec.test_size):
        splits.append([_synthesize_one(spec, rng, fillers) for _ in range(size)])
    return tuple(splits)


def synthetic_corpus(spec: SyntheticSpec) -> Corpus:
    train, valid, test = generate_synthetic(spec)
    return build_corpus(train, valid, test)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def pad_batch(token_rows: list[np.ndarray],
              width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token rows with PAD to ``width`` (the longest row's length
    when absent); returns the (B, width) tokens and their 0/1 mask."""
    if width is None:
        width = max(row.shape[0] for row in token_rows)
    tokens = np.full((len(token_rows), width), PAD, dtype=np.intp)
    mask = np.zeros((len(token_rows), width), dtype=np.float64)
    for r, row in enumerate(token_rows):
        tokens[r, : row.shape[0]] = row
        mask[r, : row.shape[0]] = 1.0
    return tokens, mask


def batch_iterator(dataset: Dataset, batch_size: int, rng: np.random.Generator | None = None):
    """Yield lists of up to ``batch_size`` samples; shuffles when given a
    Generator."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(dataset))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(dataset), batch_size):
        yield [dataset[int(i)] for i in order[start : start + batch_size]]
