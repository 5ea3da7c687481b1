"""Run configuration, full-model assembly, and checkpoint round-tripping.

A Model owns the encoder, the query source (graph-convolution pipeline or a
plain learnable table), and either the set-decoder head or the
independent-sigmoid baseline head.  Parameter creation order is fixed by the
architecture, so seeded initialization and optimizer iteration are
reproducible run to run.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn, tensor as T
from .data import Corpus, LabelVocabulary, pad_batch
from .decoder import BceHead, SetDecoder, predict_labels
from .encoder import SPECIALS, EncodedSentence, TokenVocabulary, TransformerEncoder
from .errors import CheckpointError, ConfigError
from .graph import GcnStack, LabelGraph, QueryProjection
from .matching import COST_MODES

CHECKPOINT_VERSION = 1
HEADS = ("set_prediction", "bce")
# tokens per serving chunk in predict_many: rows of one width run together up
# to this many tokens, which bounds each chunk's activations by its real size
SERVE_TOKENS = 1024


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


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        if label_vocab.size == 0:
            raise ConfigError("a model needs at least one label")
        self.config = config
        self.label_vocab = label_vocab
        self.token_vocab = token_vocab
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
        # the parameters of the query source and of the decoder's layer 0,
        # which with the GCN's matrix hold all that ``queries`` and the
        # decoder's prefix read; ``_decoder_prefix`` keeps its result with
        # the arrays they held
        self._prefix_reads = [] if self.decoder is None else [
            p for name, p in self.named_parameters().items()
            if name.startswith(("gcn.", "query_projection.", "query_table", "decoder.layer0."))]
        self._kept_prefix = None

    def queries(self) -> T.Tensor | None:
        """Decoder input embeddings: graph-propagated or plain learnable;
        None for the bce head, which has no decoder."""
        if self.gcn is not None:
            return self.query_projection(self.gcn())
        return self.query_table

    def _decoder_prefix(self) -> tuple[T.Tensor, tuple[T.Tensor, T.Tensor]]:
        """The queries and the decoder's layer-0 prefix of them, without
        dropout and under ``no_grad``.  The result is kept, and returned
        again, while the GCN's matrix and every parameter of the query
        source and of the decoder's layer 0, a superset of what it read,
        still hold the same read-only arrays: such an array cannot be
        written in place, and a rebound one fails the identity check.
        ``load_checkpoint`` makes arrays read-only; a built model's, or a
        trained one's ``Adam`` views, are writable, so it recomputes."""
        arrays = [param.data for param in self._prefix_reads]
        if self.gcn is not None:
            arrays.append(self.gcn.propagation)
        fixed = not any(array.flags.writeable for array in arrays)
        kept = self._kept_prefix
        if fixed and kept is not None and all(map(operator.is_, arrays, kept[0])):
            return kept[1]
        with T.no_grad():
            queries = self.queries()
            result = queries, self.decoder.layers[0].prefix(queries)
        if fixed:
            for tensor in (queries, *result[1]):   # shared by every later call
                tensor.data.flags.writeable = False
            self._kept_prefix = arrays, result
        return result

    def encode(self, token_rows, width: int | None = None,
               rng: np.random.Generator | None = None) -> EncodedSentence:
        """Encode token rows as one batch, the only way rows become one in
        training and serving: each row clipped to ``max_len``, padded with
        PAD to ``width`` (the longest clipped row when absent) and masked.
        Dropout runs exactly when given a Generator."""
        tokens, mask = pad_batch([self.encoder.clip(row) for row in token_rows], width)
        return self.encoder.encode(tokens, mask, rng=rng)

    def predict(self, tokens: np.ndarray) -> set[int]:
        """The label set of one token row."""
        return self.predict_many([tokens])[0]

    def predict_many(self, token_rows) -> list[set[int]]:
        """Label sets of many token rows, in input order.

        Rows are grouped by width: a row's clipped length rounded up to an
        even number, at most ``max_len``.  ``encode`` clips each row and pads
        it with PAD to exactly its width, and each group runs
        ``SERVE_TOKENS // max(width, m)`` rows at a time (at least one),
        where m is the decoder's slot count (0 for the bce head), so each
        chunk's activations, the encoder's rows × width and the decoder's
        rows × m, stay within a fixed budget whatever ``max_len``,
        ``num_queries`` and ``batch_size`` are.  A chunk runs at its group's
        width even when no row in it is that long, and rows share no
        reduction, so up to ``d_model`` 64 a row's labels depend only on its
        own tokens and width: alone (``predict``) it gets the same bytes as
        in any chunk.  From 128 on they need not, since ``linear`` gives a
        row the same bits at any row count only up to an inner width of 256
        and the feed-forward's is 4·``d_model``.  Even widths halve the
        chunks a call of mixed lengths runs.  The label queries and the
        decoder's prefix of them are computed once per call, or kept from an
        earlier call (``_decoder_prefix``).

        A call of at least ``2 * SERVE_TOKENS`` real tokens, on a process
        that may run on more than one CPU, runs its chunks on a pool of one
        thread per CPU, created for the call; smaller calls, where threads
        would cost more than they overlap, run them one after another.  Both
        ways give the same bytes, since chunks only read the parameters and
        the queries, and each matrix product still runs on one BLAS thread.
        Each chunk runs under ``no_grad`` on its own thread, so serving may
        run while another thread trains.  A chunk's error surfaces only
        after every chunk already running has finished (the rest never
        start), and it is the error the serial loop would raise first."""
        rows = list(token_rows)
        lengths = [min(len(row), self.config.max_len) for row in rows]   # clipped
        by_width: dict[int, list[int]] = {}
        for i, length in enumerate(lengths):
            by_width.setdefault(min(length + length % 2, self.config.max_len), []).append(i)
        # a decoder's arrays hold each row's m slots, a bce head's only tokens
        slots = 0 if self.decoder is None else self.config.num_queries
        chunks = []
        for width, group in by_width.items():
            size = max(1, SERVE_TOKENS // max(width, slots))
            chunks += [(width, group[start:start + size]) for start in range(0, len(group), size)]
        workers = _cpu_count() if sum(lengths) >= 2 * SERVE_TOKENS else 1
        queries, prefix = (None, None) if self.decoder is None else self._decoder_prefix()

        def run(chunk):
            width, indices = chunk
            with T.no_grad():
                memory = self.encode([rows[i] for i in indices], width)
                return (self.bce.predict(memory) if self.bce is not None
                        else predict_labels(self.decoder.decode(queries, memory, prefix=prefix)))

        if workers > 1:
            with ThreadPoolExecutor(workers) as pool:
                results = list(pool.map(run, chunks))
        else:
            results = [run(chunk) for chunk in chunks]
        out: list = [None] * len(rows)
        for (_, indices), labels in zip(chunks, results):
            for i, row_labels in zip(indices, labels):
                out[i] = row_labels
        return out

    def trainable_parameters(self) -> dict[str, T.Tensor]:
        """The parameters that take gradients: all but a frozen encoder's."""
        return {name: p for name, p in self.named_parameters().items() if p.requires_grad}


def build_model(config: RunConfig, corpus: Corpus) -> Model:
    """Resolve the slot count, build the label graph if needed, assemble."""
    num_queries = resolve_num_queries(config, corpus)
    largest = max((len(s.labels) for s in corpus.train), default=0)
    if config.head == "set_prediction" and num_queries < largest:
        raise ConfigError(f"{num_queries} query slots cannot hold the largest "
                          f"training gold set ({largest} labels)")
    resolved = RunConfig.from_dict({**config.to_dict(), "num_queries": num_queries})
    propagation = None
    if resolved.head == "set_prediction" and resolved.use_gcn:
        propagation = LabelGraph(corpus.train, corpus.label_vocab,
                                 tau=resolved.tau, p_neighbor=resolved.p_neighbor).propagation
    rng = np.random.default_rng(resolved.seed)
    return Model(rng, resolved, corpus.label_vocab, corpus.token_vocab, propagation)


def save_checkpoint(path, model: Model) -> None:
    """Write through a temp file and rename, so a crash mid-write leaves any
    earlier checkpoint at ``path`` intact.  ``__propagation__`` is the
    GCN's own (float32) matrix, or zeros (0, 0) without a GCN."""
    arrays = {
        "__version__": np.array(CHECKPOINT_VERSION),
        "__config__": np.array(json.dumps(model.config.to_dict())),
        "__labels__": np.array(list(model.label_vocab.names)),
        "__tokens__": np.array(model.token_vocab.to_list()),
        "__propagation__": model.gcn.propagation if model.gcn is not None else np.zeros((0, 0)),
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


def _names(path, archive, name: str, reserved: tuple[str, ...] = ()) -> list[str]:
    """A stored 1-D metadata array of distinct names, as strings, that
    starts with the ``reserved`` names; the names after those."""
    names = _metadata(path, archive, name)
    if names.ndim != 1:
        raise CheckpointError(f"checkpoint {path} array {name} has shape {names.shape}, not a list")
    names = [str(n) for n in names]
    if len(set(names)) != len(names):
        raise CheckpointError(f"checkpoint {path} array {name} repeats a name")
    if tuple(names[:len(reserved)]) != reserved:
        raise CheckpointError(f"checkpoint {path} array {name} does not start with {list(reserved)}")
    return names[len(reserved):]


def _read_archive(path) -> dict[str, np.ndarray]:
    """The arrays of the ``.npz`` file at ``path`` by name, all read before
    any is used.  Each member is read whole before numpy parses it, so zip
    checks every member's CRC, however much of it the ``.npy`` header says
    to read."""
    with zipfile.ZipFile(path) as archive:
        return {name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(archive.read(name)),
                                                                    allow_pickle=False)
                for name in archive.namelist()}


def load_checkpoint(path) -> Model:
    """The model a checkpoint stores, with its parameters in the model's
    dtype (float32), as is the GCN's matrix; float64 checkpoints load too.
    A file that cannot be read, or whose archive is damaged, is a
    ``CheckpointError``.  These arrays are read-only, so serving may keep
    what it computes from them alone across calls; ``Adam`` rebinds the
    parameters to writable views."""
    try:
        archive = _read_archive(path)
    # besides BadZipFile, zip raises EOFError for a member that runs past the
    # file's end and RuntimeError for an encrypted or unknown-method one
    except (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"checkpoint {path} cannot be read: {exc}") from exc
    if "__version__" not in archive:
        raise CheckpointError(f"checkpoint {path} has no array __version__: not a model checkpoint")
    try:
        version = int(archive["__version__"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} array __version__ is not an integer") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}, not the supported {CHECKPOINT_VERSION}")
    try:
        raw = json.loads(str(_metadata(path, archive, "__config__")))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint {path} array __config__ is not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CheckpointError(f"checkpoint {path} array __config__ is not a JSON object")
    label_vocab = LabelVocabulary(_names(path, archive, "__labels__"))
    token_vocab = TokenVocabulary(_names(path, archive, "__tokens__", SPECIALS))
    propagation = _checked_array(path, "__propagation__",
                                 _metadata(path, archive, "__propagation__"), nn.DTYPE)
    try:
        config = RunConfig.from_dict(raw)
        model = Model(np.random.default_rng(config.seed), config, label_vocab, token_vocab,
                      propagation if propagation.size else None)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path} arrays __config__, __labels__ and __propagation__ "
                              f"do not describe a model: {exc}") from exc
    stored = {key[len("param/"):] for key in archive if key.startswith("param/")}
    current = set(model.named_parameters())
    if stored != current:
        raise CheckpointError(f"checkpoint {path} parameters do not match the configured architecture")
    for name, param in model.named_parameters().items():
        value = archive[f"param/{name}"]
        if value.shape != param.data.shape:
            raise CheckpointError(
                f"checkpoint {path} parameter {name} has shape {value.shape}, "
                f"model expects {param.data.shape}")
        param.data = _checked_array(path, f"param/{name}", value, param.data.dtype)
        param.data.flags.writeable = False
    return model
