"""Run configuration, full-model assembly, and checkpoint round-tripping.

A Model owns the encoder, the query source (graph-convolution pipeline or a
plain learnable table), and either the set-decoder head or the
independent-sigmoid baseline head.  Parameter creation order is fixed by the
architecture, so seeded initialization and optimizer iteration are
reproducible run to run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn, tensor as T
from .data import Corpus, LabelVocabulary
from .decoder import BceHead, PredictionSet, SetDecoder, predict_labels
from .encoder import EncodedSentence, TokenVocabulary, TransformerEncoder
from .errors import CheckpointError, ConfigError
from .graph import GcnStack, LabelGraph, QueryProjection
from .matching import COST_MODES

CHECKPOINT_VERSION = 1
HEADS = ("set_prediction", "bce")


@dataclass
class RunConfig:
    train_path: str | None = None
    valid_path: str | None = None
    test_path: str | None = None
    out_dir: str = "run_out"
    d_model: int = 64
    encoder_layers: int = 2
    encoder_heads: int = 4
    decoder_layers: int = 2
    decoder_heads: int = 4
    max_len: int = 64
    dropout: float = 0.0
    gcn_layers: int = 2
    gcn_activation: str = "relu"
    num_queries: int | None = None  # resolved from the training split when absent
    tau: float = 0.1
    p_neighbor: float = 0.25
    bc_weight: float = 0.1
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 8
    seed: int = 0
    use_gcn: bool = True
    use_bc: bool = True
    head: str = "set_prediction"
    cost_mode: str = "prob"
    freeze_encoder: bool = False

    def __post_init__(self):
        for f in fields(self):
            # annotations are strings here: "int", "float", "str | None", ...
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if value is None and optional:
                continue
            allowed = {"int": int, "float": (int, float), "bool": bool, "str": str}[kind]
            if isinstance(value, bool) != (kind == "bool") or not isinstance(value, allowed):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for path_name in ("train_path", "valid_path", "test_path", "out_dir"):
            if "\0" in (getattr(self, path_name) or ""):
                raise ConfigError(f"{path_name} must not contain a NUL character")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.d_model <= 0:
            raise ConfigError("d_model must be positive")
        for dim_name in ("encoder_layers", "encoder_heads", "decoder_layers",
                         "decoder_heads", "gcn_layers", "epochs", "batch_size"):
            if getattr(self, dim_name) < 1:
                raise ConfigError(f"{dim_name} must be at least 1")
        if self.d_model % self.encoder_heads or self.d_model % self.decoder_heads:
            raise ConfigError("d_model must be divisible by both head counts")
        if self.max_len < 3:
            raise ConfigError("max_len must be at least 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.gcn_activation not in ("relu", "leaky_relu"):
            raise ConfigError(f"unknown gcn_activation {self.gcn_activation!r}")
        if self.num_queries is not None and self.num_queries < 1:
            raise ConfigError("num_queries must be positive when given")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if not 0.0 < self.p_neighbor < 1.0:
            raise ConfigError(f"p_neighbor must be in (0, 1), got {self.p_neighbor}")
        if self.bc_weight < 0.0:
            raise ConfigError(f"bc_weight must be nonnegative, got {self.bc_weight}")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.cost_mode not in COST_MODES:
            raise ConfigError(f"cost_mode must be one of {COST_MODES}, got {self.cost_mode!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def effective_bc_weight(self) -> float:
        return self.bc_weight if self.use_bc else 0.0


def resolve_num_queries(config: RunConfig, corpus: Corpus) -> int:
    """Default slot count: largest training gold set plus two, capped at K."""
    if config.num_queries is not None:
        return config.num_queries
    largest = max(len(s.labels) for s in corpus.train)
    return min(largest + 2, corpus.label_vocab.size)


class Model(nn.Module):
    def __init__(self, rng: np.random.Generator, config: RunConfig,
                 label_vocab: LabelVocabulary, token_vocab: TokenVocabulary,
                 propagation: np.ndarray | None):
        super().__init__()
        if config.num_queries is None:
            raise ConfigError("num_queries must be resolved before model construction")
        self.config = config
        self.label_vocab = label_vocab
        self.token_vocab = token_vocab
        self.propagation = propagation
        k = label_vocab.size
        m = config.num_queries

        self.encoder = self.add_child("encoder", TransformerEncoder(
            rng, token_vocab.size, config.d_model, config.encoder_layers,
            config.encoder_heads, config.max_len, dropout=config.dropout))
        if config.freeze_encoder:
            for param in self.encoder.named_parameters().values():
                param.requires_grad = False
                param.grad = None

        self.gcn = None
        self.query_projection = None
        self.query_table = None
        self.decoder = None
        self.bce = None
        if config.head == "set_prediction":
            if config.use_gcn:
                if propagation is None:
                    raise ConfigError("graph propagation matrix required when the GCN is enabled")
                if propagation.shape != (k, k):
                    raise ConfigError(f"propagation matrix {propagation.shape} does not cover {k} labels")
                self.gcn = self.add_child("gcn", GcnStack(
                    rng, propagation, num_layers=config.gcn_layers,
                    width=config.d_model, activation=config.gcn_activation))
                self.query_projection = self.add_child(
                    "query_projection", QueryProjection(rng, num_queries=m, num_labels=k))
            else:
                self.query_table = self.register(
                    "query_table", nn.uniform_init(rng, config.d_model, (m, config.d_model)))
            self.decoder = self.add_child("decoder", SetDecoder(
                rng, m, k + 1, config.d_model, config.decoder_layers,
                config.decoder_heads, dropout=config.dropout))
        else:
            self.bce = self.add_child("bce", BceHead(rng, config.d_model, k))

    def queries(self) -> T.Tensor | None:
        """Decoder input embeddings: graph-propagated or plain learnable;
        None for the bce head, which has no decoder."""
        if self.gcn is not None:
            return self.query_projection(self.gcn())
        return self.query_table

    def encode(self, tokens: np.ndarray, mask: np.ndarray | None = None,
               rng: np.random.Generator | None = None, train: bool = False) -> EncodedSentence:
        return self.encoder.encode(tokens, attention_mask=mask, rng=rng, train=train)

    def decode(self, queries: T.Tensor, memory: EncodedSentence,
               rng: np.random.Generator | None = None, train: bool = False) -> PredictionSet:
        return self.decoder.decode(queries, memory, rng=rng, train=train)

    def predict(self, tokens: np.ndarray) -> set[int]:
        """The label set of one token row."""
        return self.predict_many([tokens])[0]

    def predict_many(self, token_rows) -> list[set[int]]:
        """Label sets of many token rows, in input order.

        Rows are clipped, then batched only with rows of the same length, at
        most ``batch_size`` at a time, so no row is padded and no row's
        labels depend on the other rows.  The label queries are computed
        once per call."""
        rows = [self.encoder.clip(row) for row in token_rows]
        by_length: dict[int, list[int]] = {}
        for i, row in enumerate(rows):
            by_length.setdefault(row.shape[0], []).append(i)
        out: list = [None] * len(rows)
        with T.no_grad():
            queries = self.queries()
            for group in by_length.values():
                for start in range(0, len(group), self.config.batch_size):
                    chunk = group[start:start + self.config.batch_size]
                    memory = self.encode(np.stack([rows[i] for i in chunk]))
                    labels = (self.bce.predict(memory) if self.bce is not None
                              else predict_labels(self.decode(queries, memory)))
                    for i, row_labels in zip(chunk, labels):
                        out[i] = row_labels
        return out

    def trainable_parameters(self) -> dict[str, T.Tensor]:
        """The parameters that take gradients: all but a frozen encoder's."""
        return {name: p for name, p in self.named_parameters().items() if p.requires_grad}


def build_model(config: RunConfig, corpus: Corpus, graph: LabelGraph | None = None) -> Model:
    """Resolve the slot count, build the label graph if needed, assemble."""
    num_queries = resolve_num_queries(config, corpus)
    largest = max((len(s.labels) for s in corpus.train), default=0)
    if config.head == "set_prediction" and num_queries < largest:
        raise ConfigError(f"{num_queries} query slots cannot hold the largest "
                          f"training gold set ({largest} labels)")
    resolved = RunConfig.from_dict({**config.to_dict(), "num_queries": num_queries})
    propagation = None
    if resolved.head == "set_prediction" and resolved.use_gcn:
        if graph is None:
            graph = LabelGraph(corpus.train, corpus.label_vocab,
                               tau=resolved.tau, p_neighbor=resolved.p_neighbor)
        propagation = graph.propagation
    rng = np.random.default_rng(resolved.seed)
    return Model(rng, resolved, corpus.label_vocab, corpus.token_vocab, propagation)


def save_checkpoint(path, model: Model) -> None:
    """Write through a temp file and rename, so a crash mid-write leaves any
    earlier checkpoint at ``path`` intact."""
    arrays = {
        "__version__": np.array(CHECKPOINT_VERSION),
        "__config__": np.array(json.dumps(model.config.to_dict())),
        "__labels__": np.array(list(model.label_vocab.names)),
        "__tokens__": np.array(model.token_vocab.to_list()),
        "__propagation__": (model.propagation if model.propagation is not None
                            else np.zeros((0, 0))),
    }
    for name, param in model.named_parameters().items():
        arrays[f"param/{name}"] = param.data
    temp = os.fspath(path) + ".tmp"
    try:
        with open(temp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def _checked_array(path, name: str, value: np.ndarray, dtype) -> np.ndarray:
    """A stored array cast to ``dtype``; anything but finite real numbers,
    before or after the cast, is a ``CheckpointError``."""
    if value.dtype.kind not in "iuf":
        raise CheckpointError(f"checkpoint {path} array {name} has dtype {value.dtype}, "
                              f"not real numbers")
    with np.errstate(over="ignore"):   # a float64 beyond float32's range becomes Inf
        value = value.astype(dtype)
    if not np.isfinite(value).all():
        raise CheckpointError(f"checkpoint {path} array {name} holds NaN or Inf")
    return value


def _metadata(path, archive, name: str) -> np.ndarray:
    """A stored metadata array; a missing one is a ``CheckpointError``."""
    if name not in archive:
        raise CheckpointError(f"checkpoint {path} has no array {name}")
    return archive[name]


def _names(path, archive, name: str) -> list[str]:
    """A stored 1-D metadata array of names, as strings."""
    names = _metadata(path, archive, name)
    if names.ndim != 1:
        raise CheckpointError(f"checkpoint {path} array {name} has shape {names.shape}, not a list")
    return [str(n) for n in names]


def load_checkpoint(path) -> Model:
    """The model a checkpoint stores, with its parameters in the model's
    dtype (float32); float64 checkpoints load too."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with archive:
        if "__version__" not in archive:
            raise CheckpointError(f"{path} is not a model checkpoint")
        try:
            version = int(archive["__version__"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path} array __version__ is not an integer") from exc
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})")
        try:
            raw = json.loads(str(_metadata(path, archive, "__config__")))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint {path} array __config__ is not JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise CheckpointError(f"checkpoint {path} array __config__ is not a JSON object")
        config = RunConfig.from_dict(raw)
        label_vocab = LabelVocabulary(_names(path, archive, "__labels__"))
        token_vocab = TokenVocabulary(_names(path, archive, "__tokens__")[4:])
        propagation = _checked_array(path, "__propagation__",
                                     _metadata(path, archive, "__propagation__"), np.float64)
        if propagation.size == 0:
            propagation = None
        model = Model(np.random.default_rng(config.seed), config,
                      label_vocab, token_vocab, propagation)
        stored = {key[len("param/"):] for key in archive.files if key.startswith("param/")}
        current = set(model.named_parameters())
        if stored != current:
            raise CheckpointError("checkpoint parameters do not match the configured architecture")
        for name, param in model.named_parameters().items():
            value = archive[f"param/{name}"]
            if value.shape != param.data.shape:
                raise CheckpointError(
                    f"checkpoint parameter {name} has shape {value.shape}, model expects {param.data.shape}")
            param.data = _checked_array(path, f"param/{name}", value, param.data.dtype)
    return model
