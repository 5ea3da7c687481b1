"""Model assembly, configuration validation, and checkpoint round trips."""

import ctypes
import functools
import itertools
import json
import math
import os
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelset.model as model_module
import labelset.tensor as T
from helpers import K64_SPEC
from labelset.data import SyntheticSpec, batch_iterator, synthetic_corpus
from labelset.encoder import CLS, PAD, SEP, SPECIALS
from labelset.errors import CheckpointError, ConfigError, ContractError, NumericDomainError
from labelset.graph import GcnStack
from labelset.model import (
    SERVE_TOKENS,
    Model,
    RunConfig,
    build_model,
    load_checkpoint,
    resolve_num_queries,
    save_checkpoint,
)
from labelset.training import Adam, batch_loss, evaluate, run_training


def tiny_corpus(seed=0, num_labels=5):
    spec = SyntheticSpec(
        num_labels=num_labels,
        vocab_size=30,
        train_size=24,
        valid_size=8,
        test_size=8,
        bias_pairs=((0, 1, 0.8),),
        seed=seed,
    )
    return synthetic_corpus(spec)


def tiny_config(**overrides):
    base = dict(
        d_model=16,
        encoder_layers=1,
        encoder_heads=2,
        decoder_layers=1,
        decoder_heads=2,
        gcn_layers=1,
        epochs=2,
        batch_size=4,
        max_len=32,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):   # no C library to load by that name
        return False


def random_rows(model, count, length, seed=0):
    """``count`` unpadded sentences of ``length`` tokens: CLS, random words, SEP."""
    rows = np.random.default_rng(seed).integers(
        len(SPECIALS), model.token_vocab.size, size=(count, length))
    rows[:, 0], rows[:, -1] = CLS, SEP
    return rows


def head_output(model, rows, width=None):
    """The head's output for a batch of rows padded to ``width``: slot
    log-probs, or the bce logits."""
    with T.no_grad():
        memory = model.encode(rows, width)
        if model.bce is not None:
            return model.bce.logits(memory).data
        return model.decoder.decode(model.queries(), memory).log_probs.data


def served_width(model, row):
    """The width ``predict_many`` pads a clipped row to: its length rounded
    up to an even number, at most ``max_len``."""
    return min(row.shape[0] + row.shape[0] % 2, model.config.max_len)


def alone_at_width(model, rows, copies=1):
    """Each row's head output, run alone (``copies`` times in one batch)
    padded to its served width, keyed by the row's bytes."""
    return {row.tobytes():
            head_output(model, [row] * copies, served_width(model, row))[0].tobytes()
            for row in rows}


def chunk_rows(calls):
    """(unpadded row, its head output) for every row of every recorded chunk."""
    return [(row[:int(real)], output)
            for tokens, mask, outputs in calls
            for row, real, output in zip(tokens, mask.sum(axis=1), outputs)]


def serving_calls(monkeypatch, model):
    """Record each chunk a later ``predict_many`` runs: a list of its padded
    encoder tokens, its mask and the head output for it.  Chunks may run on
    several threads at once, so a head output finds its chunk through the
    ``EncodedSentence`` that chunk's encoder call returned."""
    calls = []
    pending = {}   # id of an encoder output not yet read by the head -> its call
    encode = model.encoder.encode

    def recording_encode(tokens, mask=None, **kwargs):
        call = [np.array(tokens), mask, None]
        calls.append(call)
        memory = encode(tokens, mask, **kwargs)
        pending[id(memory)] = call
        return memory

    monkeypatch.setattr(model.encoder, "encode", recording_encode)
    if model.bce is not None:
        logits = model.bce.logits

        def recording_logits(memory):
            out = logits(memory)
            pending.pop(id(memory))[2] = out.data
            return out

        monkeypatch.setattr(model.bce, "logits", recording_logits)
    else:
        decode = model.decoder.decode

        def recording_decode(queries, memory, **kwargs):
            out = decode(queries, memory, **kwargs)
            pending.pop(id(memory))[2] = out.log_probs.data
            return out

        monkeypatch.setattr(model.decoder, "decode", recording_decode)
    return calls


class TestRunConfig:
    def test_from_dict_round_trip(self):
        cfg = tiny_config(bc_weight=0.25, tau=0.3)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"d_model": 16, "not_a_field": 1})

    def test_bad_values_rejected(self):
        for field, value in [
            ("d_model", 0),
            ("encoder_heads", 3),  # 16 % 3 != 0
            ("dropout", 1.0),
            ("tau", -0.1),
            ("tau", 1.5),
            ("p_neighbor", 1.5),
            ("bc_weight", -1.0),
            ("learning_rate", 0.0),
            ("epochs", 0),
            ("batch_size", 0),
            ("head", "linear_probe"),
            ("cost_mode", "squared"),
            ("gcn_activation", "tanh"),
            ("num_queries", 0),
            ("max_len", 2),
            ("decoder_heads", 3),
            ("encoder_layers", 0),
            ("decoder_layers", 0),
            ("gcn_layers", 0),
            ("dropout", -0.1),
            ("p_neighbor", 0.0),
            ("out_dir", ""),
        ]:
            with pytest.raises(ConfigError):
                tiny_config(**{field: value})

    def test_effective_bc_weight_respects_toggle(self):
        assert tiny_config(bc_weight=0.4).effective_bc_weight == 0.4
        assert tiny_config(bc_weight=0.4, use_bc=False).effective_bc_weight == 0.0

    def test_resolve_num_queries_from_data(self):
        corpus = tiny_corpus()
        m = resolve_num_queries(tiny_config(), corpus)
        widest = max(len(s.labels) for s in corpus.train.samples)
        assert m == min(widest + 2, corpus.label_vocab.size)

    def test_resolve_num_queries_explicit_wins(self):
        corpus = tiny_corpus()
        assert resolve_num_queries(tiny_config(num_queries=3), corpus) == 3

    def test_too_few_slots_rejected_before_building(self):
        corpus = tiny_corpus()
        widest = max(len(s.labels) for s in corpus.train.samples)
        with pytest.raises(ConfigError, match=f"largest training gold set \\({widest} labels\\)"):
            build_model(tiny_config(num_queries=widest - 1), corpus)
        assert build_model(tiny_config(num_queries=widest), corpus).config.num_queries == widest
        # the sigmoid head has no slots to fill
        build_model(tiny_config(num_queries=1, head="bce"), corpus)


class TestModelAssembly:
    def test_builds_all_components(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        names = dict(model.named_parameters())
        assert any(n.startswith("encoder.") for n in names)
        assert any(n.startswith("gcn.") for n in names)
        assert any(n.startswith("query_projection.") for n in names)
        assert any(n.startswith("decoder.") for n in names)

    def test_no_gcn_uses_query_table(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(use_gcn=False), corpus)
        names = dict(model.named_parameters())
        assert "query_table" in names
        assert not any(n.startswith("gcn.") for n in names)
        assert model.gcn is None

    def test_bce_head_has_no_decoder(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(head="bce"), corpus)
        names = dict(model.named_parameters())
        assert any(n.startswith("bce.") for n in names)
        assert not any(n.startswith("decoder.") for n in names)

    def test_seeded_build_is_deterministic(self):
        corpus = tiny_corpus()
        a = build_model(tiny_config(), corpus)
        b = build_model(tiny_config(), corpus)
        pa = a.named_parameters()
        pb = b.named_parameters()
        assert list(pa) == list(pb)
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data)

    def test_queries_shape(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        model = build_model(cfg, corpus)
        T.reset_tape()
        q = model.queries()
        assert q.data.shape == (model.config.num_queries, cfg.d_model)

    def test_predict_returns_sorted_known_labels(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        sample = corpus.valid.samples[0]
        got = model.predict(sample.tokens)
        assert list(got) == sorted(set(got))
        assert all(0 <= l < corpus.label_vocab.size for l in got)

    @pytest.mark.parametrize("head", ["set_prediction", "bce"])
    def test_rows_batched_by_length_match_predict_bitwise(self, monkeypatch, head):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(head=head), corpus)
        # the valid split's lengths, and one group of 40-token rows that
        # needs three chunks of SERVE_TOKENS // 40 = 25 rows
        rows = [sample.tokens for sample in corpus.valid] + list(random_rows(model, 60, 40))
        assert len({row.shape[0] for row in rows}) >= 4
        alone = alone_at_width(model, rows)
        # a lone row's one-row products (the bce readout) round as they do
        # among other rows
        assert alone_at_width(model, rows, copies=2) == alone
        expected = [model.predict(row) for row in rows]
        calls = serving_calls(monkeypatch, model)
        assert model.predict_many(rows) == expected
        widths = [tokens.shape[1] for tokens, _, _ in calls]
        assert max(widths.count(width) for width in widths) >= 2
        assert max(len(tokens) for tokens, _, _ in calls) > 8
        # some chunk pads rows of two lengths to one width
        assert any(len(set(mask.sum(axis=1))) >= 2 for _, mask, _ in calls)
        for row, output in chunk_rows(calls):
            assert output.tobytes() == alone[row.tobytes()]

    def test_serving_ignores_batch_size(self, monkeypatch):
        corpus = synthetic_corpus(SyntheticSpec())
        models = [build_model(RunConfig(batch_size=size), corpus) for size in (1, 64)]
        rows = [sample.tokens for sample in corpus.valid] + list(random_rows(models[0], 30, 40))
        served = []
        for model in models:
            calls = serving_calls(monkeypatch, model)
            labels = model.predict_many(rows)
            served.append(([p.data.tobytes() for p in model.named_parameters().values()],
                           [(tokens.tobytes(), output.tobytes()) for tokens, _, output in calls],
                           labels))
            monkeypatch.undo()
        assert served[0] == served[1]

    def test_predict_many_peak_memory_does_not_grow_with_the_group(self, monkeypatch):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        rows = list(random_rows(model, 2000, 42))
        model.predict_many(rows[:1])   # one-time allocations stay out of both peaks

        def peak(n):
            tracemalloc.start()
            try:
                model.predict_many(rows[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one full chunk (1,008 tokens) runs serially, below the thread gate;
        # at most one chunk per worker thread is live at a time, and a
        # whole-group chunk of 2,000 rows would hold about 80x its peak
        one_chunk = peak(SERVE_TOKENS // 42)
        assert peak(2000) <= model_module._cpu_count() * one_chunk + 2 ** 20

    def test_predict_many_computes_the_queries_once(self, monkeypatch):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        rows = [sample.tokens for sample in corpus.valid]
        assert len({row.shape[0] for row in rows}) >= 3
        calls = []
        queries = model.queries

        def counting():
            calls.append(1)
            return queries()

        monkeypatch.setattr(model, "queries", counting)
        model.predict_many(rows)
        assert len(calls) == 1

    def test_predict_many_clips_and_keeps_order(self, monkeypatch):
        corpus = tiny_corpus()
        model = build_model(tiny_config(max_len=7, batch_size=2), corpus)
        rows = [sample.tokens for sample in corpus.valid] + [sample.tokens for sample in corpus.test]
        assert any(row.shape[0] > 7 for row in rows)
        clipped = [model.encoder.clip(row) for row in rows]
        widths = Counter(served_width(model, row) for row in clipped)
        assert sorted(widths) == [6, 7]
        expected = [model.predict(row) for row in rows]
        # the real budget, one that splits groups, and one below a row's width
        for budget in (SERVE_TOKENS, 12, 4):
            monkeypatch.setattr(model_module, "SERVE_TOKENS", budget)
            calls = serving_calls(monkeypatch, model)
            assert model.predict_many(rows) == expected
            for call in calls:
                # masked chunks padded with PAD to one even width, or to an
                # odd max_len, that each row's length rounds up to
                tokens, mask, _ = call
                assert tokens.ndim == 2 and mask.shape == tokens.shape
                assert ((tokens != PAD) == (mask == 1.0)).all()
                width = tokens.shape[1]
                assert width % 2 == 0 or width == 7
                assert {served_width(model, row) for row, _ in chunk_rows([call])} == {width}
                # one row, or at most `budget` tokens
                assert len(tokens) == 1 or tokens.size <= budget
            # as many rows a chunk as the budget allows, counting the slots
            m = model.config.num_queries
            assert len(calls) == sum(math.ceil(count / max(1, budget // max(width, m)))
                                     for width, count in widths.items())
            # every row once
            assert sorted(row.tobytes() for row, _ in chunk_rows(calls)) == \
                sorted(row.tobytes() for row in clipped)
            monkeypatch.undo()
        assert model.predict_many([]) == []

    def test_mixed_lengths_share_even_width_chunks(self, monkeypatch):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        rows = [sample.tokens for sample in corpus.valid]
        assert {row.shape[0] for row in rows} == set(range(5, 13))
        calls = serving_calls(monkeypatch, model)
        model.predict_many(rows)
        # widths 6, 8, 10 and 12, one chunk each, not one chunk per length
        assert sorted(tokens.shape[1] for tokens, _, _ in calls) == [6, 8, 10, 12]
        # a chunk runs at its width even when no row in it is that long
        sevens = [row for row in rows if row.shape[0] == 7]
        expected = [model.predict(row) for row in sevens]
        calls.clear()
        assert model.predict_many(sevens) == expected
        assert [tokens.shape for tokens, _, _ in calls] == [(len(sevens), 8)]

    @pytest.mark.parametrize("head, sizes", [("set_prediction", [32, 32, 32, 4]), ("bce", [100])])
    def test_chunks_are_budgeted_by_decoder_slots(self, monkeypatch, head, sizes):
        # 10-token rows, narrower than 32 slots: a decoder chunk holds
        # SERVE_TOKENS // 32 rows, a bce chunk SERVE_TOKENS // 10
        model = build_model(tiny_config(head=head, num_queries=32), tiny_corpus())
        calls = serving_calls(monkeypatch, model)
        model.predict_many(list(random_rows(model, 100, 10)))
        assert [tokens.shape for tokens, _, _ in calls] == [(size, 10) for size in sizes]

    def test_freeze_encoder_filters_trainables(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(freeze_encoder=True), corpus)
        trainable = model.trainable_parameters()
        assert trainable
        assert not any(n.startswith("encoder.") for n in trainable)
        full = dict(model.named_parameters())
        assert set(full) - set(trainable) == {
            n for n in full if n.startswith("encoder.")
        }


class TestThreadedServing:
    """A ``predict_many`` call of at least two token budgets runs its chunks
    on one thread per CPU; ``_cpu_count`` is patched to pick the path."""

    @pytest.mark.parametrize("head", ["set_prediction", "bce"])
    def test_threaded_and_serial_dispatch_agree_bitwise(self, monkeypatch, head):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(head=head), corpus)
        rows = [sample.tokens for sample in corpus.valid] + list(random_rows(model, 120, 40))
        served, threads = {}, {}
        # serial, then more threads than cores, switching as often as possible
        for cpus in (1, 4):
            monkeypatch.setattr(model_module, "_cpu_count", lambda: cpus)
            calls = serving_calls(monkeypatch, model)
            encode, threads[cpus] = model.encode, set()

            def tagged_encode(rows, width=None, **kwargs):
                threads[cpus].add(threading.get_ident())
                return encode(rows, width, **kwargs)

            monkeypatch.setattr(model, "encode", tagged_encode)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                labels = model.predict_many(rows)
            finally:
                sys.setswitchinterval(interval)
            served[cpus] = labels, sorted((tokens.tobytes(), output.tobytes())
                                          for tokens, _, output in calls)
            monkeypatch.undo()
        assert served[1] == served[4]
        assert threads[1] == {threading.get_ident()}
        assert threads[4] and threading.get_ident() not in threads[4]

    def test_a_failing_chunk_raises_once_the_pool_has_stopped(self, monkeypatch):
        model = build_model(RunConfig(), synthetic_corpus(SyntheticSpec()))
        rows = list(random_rows(model, 100, 40))   # four chunks of 25 rows
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        decode, count = model.decoder.decode, itertools.count()

        def failing_decode(queries, memory, **kwargs):
            if next(count) == 1:
                raise NumericDomainError("second chunk")
            return decode(queries, memory, **kwargs)

        monkeypatch.setattr(model.decoder, "decode", failing_decode)
        T.reset_tape()
        before = threading.active_count()
        with pytest.raises(NumericDomainError, match="second chunk"):
            model.predict_many(rows)
        assert T._GRAD_MODE.enabled
        assert len(T.active_tape()) == 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("count, length, pooled", [(89, 23, False), (64, 32, True)],
                             ids=["2047-tokens", "2048-tokens"])
    def test_only_a_call_of_two_token_budgets_starts_threads(self, monkeypatch,
                                                             count, length, pooled):
        assert count * length == 2 * SERVE_TOKENS - (not pooled)
        model = build_model(RunConfig(), synthetic_corpus(SyntheticSpec()))
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 4)
        started, start = [], threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        model.predict_many(list(random_rows(model, count, length)))
        assert bool(started) == pooled


class TestServingWhileTraining:
    """Grad mode is per thread: serving under ``no_grad`` on one thread
    neither stops nor adds to the recording of a thread that trains."""

    def test_gradients_stay_exact_while_another_thread_serves(self):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        batch = next(batch_iterator(corpus.train, model.config.batch_size))
        params = list(model.named_parameters().values())

        def step():
            """One default batch's gradient: its tape nodes and bytes, or
            the error that stopped it."""
            for param in params:
                param.grad[...] = 0.0
            T.reset_tape()
            try:
                T.backward(batch_loss(model, batch).total)
            except ContractError as exc:   # a loss recorded under another thread's no_grad
                return str(exc)
            finally:
                nodes = len(T.active_tape())
                T.reset_tape()
            return nodes, b"".join(param.grad.tobytes() for param in params)

        reference = step()
        assert reference[0] == 83
        rows = [sample.tokens for sample in corpus.valid.samples[:3]]
        stop, served = threading.Event(), []

        def serve():   # without pause
            while not stop.is_set():
                served.append(model.predict_many(rows))

        server = threading.Thread(target=serve)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-3)   # switch threads more often than the default 5 ms
        server.start()
        try:
            steps = [step() for _ in range(200)]
        finally:
            stop.set()
            server.join()
            sys.setswitchinterval(interval)
        assert len(served) > 1
        wrong = [i for i, result in enumerate(steps) if result != reference]
        assert wrong == [], f"{len(wrong)} of 200 gradients wrong or raised"

    def test_pool_threads_record_nothing_on_the_callers_tape(self, monkeypatch):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        rows = list(random_rows(model, 64, 32))   # 2,048 tokens: a pooled call
        started, start = [], threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        T.reset_tape()
        loss = batch_loss(model, next(batch_iterator(corpus.train, 8)))
        recorded = len(T.active_tape())
        assert recorded == 83
        model.predict_many(rows)
        assert len(started) == 2
        assert len(T.active_tape()) == recorded
        T.backward(loss.total)
        T.reset_tape()


class TestServingBuffers:
    """Serving reuses the memory its freed activations held, and threads
    that serve at once give the serial bytes."""

    @pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt (not glibc)")
    def test_a_repeated_serial_call_faults_in_almost_no_pages(self, monkeypatch):
        # with glibc's default thresholds, freed activations go back to the
        # kernel and fault in again: tens of thousands of minor faults a call
        model = build_model(RunConfig(), synthetic_corpus(SyntheticSpec()))
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 1)
        rows = [row for length in (6, 12, 20) for row in random_rows(model, 700, length, seed=length)]
        first = model.predict_many(rows)
        import resource   # Unix only, as glibc is
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert model.predict_many(rows) == first
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    def test_concurrent_calls_give_the_serial_bytes(self, monkeypatch):
        model = build_model(RunConfig(), synthetic_corpus(SyntheticSpec()))
        rows = list(random_rows(model, 100, 12)) + list(random_rows(model, 100, 21))
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 1)
        calls = serving_calls(monkeypatch, model)
        expected = model.predict_many(rows)
        serial = {row.tobytes(): output.tobytes() for row, output in chunk_rows(calls)}
        calls.clear()
        # four callers at once, each over the thread gate on a pool of two
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        results = []
        callers = [threading.Thread(target=lambda: results.append(model.predict_many(rows)))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4
        served = chunk_rows(calls)
        assert len(served) == 4 * len(rows)
        assert all(output.tobytes() == serial[row.tobytes()] for row, output in served)


# a call of up to 24 random rows of mixed lengths, under the real token
# budget, one that splits width groups, and one below every width
PROPERTY_MAX_LEN = 9
SERVING_CALLS = st.fixed_dictionaries({
    "head": st.sampled_from(["set_prediction", "bce"]),
    "lengths": st.lists(st.integers(2, PROPERTY_MAX_LEN), min_size=1, max_size=24),
    "budget": st.sampled_from([SERVE_TOKENS, 16, 1]),
    "seed": st.integers(0, 2 ** 16),
})


@functools.cache
def property_model(head):
    return build_model(tiny_config(head=head, max_len=PROPERTY_MAX_LEN), tiny_corpus())


class TestRowIndependence:
    @given(call=SERVING_CALLS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_a_row_serves_the_same_alone_as_in_a_mixed_call(self, call):
        model = property_model(call["head"])
        rng = np.random.default_rng(call["seed"])
        rows = []
        for length in call["lengths"]:
            row = rng.integers(len(SPECIALS), model.token_vocab.size, size=length)
            row[0], row[-1] = CLS, SEP
            rows.append(row)
        expected = [model.predict(row) for row in rows]
        alone = alone_at_width(model, rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "SERVE_TOKENS", call["budget"])
            calls = serving_calls(patch, model)
            assert model.predict_many(rows) == expected
        assert sorted(row.tobytes() for row, _ in chunk_rows(calls)) == \
            sorted(row.tobytes() for row in rows)
        for row, output in chunk_rows(calls):
            assert output.tobytes() == alone[row.tobytes()]


    def test_a_k64_row_serves_the_same_alone_as_in_a_full_chunk(self, monkeypatch):
        # 32 slots and 65 classes: alone, a row's head is a (32, 64)@(64, 65)
        # product, in a chunk of 12 rows a (384, 64)@(64, 65) one
        corpus = synthetic_corpus(SyntheticSpec(num_labels=64, vocab_size=160, extra_label_prob=0.25))
        model = build_model(RunConfig(num_queries=32), corpus)
        rows = list(random_rows(model, 12, 10))
        alone = alone_at_width(model, rows)
        calls = serving_calls(monkeypatch, model)
        model.predict_many(rows)
        assert [tokens.shape for tokens, _, _ in calls] == [(12, 10)]
        assert all(output.tobytes() == alone[row.tobytes()] for row, output in chunk_rows(calls))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Trained models by name, with the corpus they learned and the path of
    their saved checkpoint: the default config and a K=64 one."""
    out = {}
    for name, spec, config in [("default", {}, RunConfig(epochs=2)),
                               ("k64", K64_SPEC, RunConfig(epochs=2, num_queries=32))]:
        corpus = synthetic_corpus(SyntheticSpec(**spec))
        model, _ = run_training(config, corpus)
        path = tmp_path_factory.mktemp(name) / "best.npz"
        save_checkpoint(str(path), model)
        out[name] = model, corpus, str(path)
    return out


def served(monkeypatch, model, rows, one_row=False):
    """The labels ``predict_many`` (or ``predict`` row by row) gives ``rows``,
    and each row's head-output bytes, keyed by the row's bytes.  Undoes
    every patch of ``monkeypatch`` before it returns."""
    calls = serving_calls(monkeypatch, model)
    labels = [model.predict(row) for row in rows] if one_row else model.predict_many(rows)
    monkeypatch.undo()
    return labels, {row.tobytes(): output.tobytes() for row, output in chunk_rows(calls)}


class TestKeptPrefix:
    """A checkpoint-loaded model keeps the decoder's parameter-only prefix
    across serving calls while its parameters stay the same read-only
    arrays; anything that could change them makes it compute the prefix
    again."""

    @pytest.mark.parametrize("name", ["default", "k64"])
    def test_a_loaded_model_serves_the_trained_bytes_every_way(self, monkeypatch, trained, name):
        model, corpus, path = trained[name]
        rows = [sample.tokens for sample in corpus.valid] + list(random_rows(model, 120, 20))
        assert sum(min(len(row), model.config.max_len) for row in rows) >= 2 * SERVE_TOKENS
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 1)
        expected = served(monkeypatch, model, rows)
        loaded = load_checkpoint(path)
        for cpus, one_row in [(1, False), (2, False), (1, True)]:
            monkeypatch.setattr(model_module, "_cpu_count", lambda: cpus)
            assert served(monkeypatch, loaded, rows, one_row) == expected, (cpus, one_row)
        assert loaded._kept_prefix is not None

    def test_threads_serving_at_once_give_the_serial_bytes(self, monkeypatch, trained):
        # four callers race to compute and keep the prefix of a fresh load
        model, corpus, path = trained["default"]
        rows = [sample.tokens for sample in corpus.valid]
        expected, alone = model.predict_many(rows), alone_at_width(model, rows)
        loaded = load_checkpoint(path)
        calls = serving_calls(monkeypatch, loaded)
        results = [None] * 4

        def serve(i):
            results[i] = [loaded.predict(row) for row in rows]

        callers = [threading.Thread(target=serve, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4
        served_rows = chunk_rows(calls)
        assert len(served_rows) == 4 * len(rows)
        assert all(output.tobytes() == alone[row.tobytes()] for row, output in served_rows)

    def test_a_loaded_parameter_cannot_be_written_in_place(self, trained):
        model = load_checkpoint(trained["default"][2])
        for name, param in model.named_parameters().items():
            with pytest.raises(ValueError, match="read-only"):
                param.data[...] = 0.0
        assert not model.gcn.propagation.flags.writeable

    @pytest.mark.parametrize("name", ["gcn.node_features", "decoder.layer0.attn_self.proj_v.weight",
                                      "decoder.layer0.attn_cross.proj_q.bias"])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_a_rebound_prefix_parameter_serves_its_new_values(self, monkeypatch, trained,
                                                              name, writeable):
        _, corpus, path = trained["default"]
        model = load_checkpoint(path)
        rows = [sample.tokens for sample in corpus.valid.samples[:20]]
        before = served(monkeypatch, model, rows, one_row=True)
        param = model.named_parameters()[name]
        new = np.random.default_rng(3).uniform(-1.0, 1.0, param.data.shape).astype(np.float32)
        new.flags.writeable = writeable
        param.data = new
        after = served(monkeypatch, model, rows, one_row=True)
        fresh = load_checkpoint(path)
        fresh.named_parameters()[name].data = new.copy()
        assert after == served(monkeypatch, fresh, rows, one_row=True)
        assert after[1] == alone_at_width(model, rows)
        assert after[1] != before[1]
        # a read-only replacement is kept in turn; a writable one never is
        assert any(array is new for array in model._kept_prefix[0]) == (not writeable)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_a_rebound_propagation_matrix_serves_its_new_values(self, monkeypatch, tmp_path,
                                                                trained, writeable):
        _, corpus, path = trained["default"]
        model = load_checkpoint(path)
        rows = [sample.tokens for sample in corpus.valid.samples[:20]]
        before = served(monkeypatch, model, rows, one_row=True)
        identity = np.eye(model.label_vocab.size, dtype=np.float32)
        identity.flags.writeable = writeable
        model.gcn.propagation = identity
        after = served(monkeypatch, model, rows, one_row=True)
        # a fresh load of the same checkpoint storing the identity, in float64
        # as checkpoints before the GCN's own matrix was saved stored it
        fresh = tmp_path / "identity.npz"
        fresh.write_bytes(Path(path).read_bytes())
        tampered(fresh, lambda blob: blob.update(__propagation__=np.eye(len(identity))))
        assert after == served(monkeypatch, load_checkpoint(str(fresh)), rows, one_row=True)
        assert after[0] != before[0]
        assert any(array is identity for array in model._kept_prefix[0]) == (not writeable)

    def test_every_rebound_parameter_serves_its_new_values(self, monkeypatch, trained):
        # a parameter the prefix reads but the kept prefix's check missed
        # would serve the old values once rebound to a read-only array
        _, corpus, path = trained["default"]
        model = load_checkpoint(path)
        rows = [sample.tokens for sample in corpus.valid.samples[:3]]
        rng = np.random.default_rng(4)
        for name, param in model.named_parameters().items():
            kept = param.data
            param.data = kept + rng.uniform(-0.5, 0.5, kept.shape).astype(kept.dtype)
            param.data.flags.writeable = False
            assert served(monkeypatch, model, rows, one_row=True)[1] == alone_at_width(model, rows), name
            param.data = kept

    def test_after_adam_steps_a_loaded_model_serves_what_it_recomputes(self, monkeypatch, trained):
        _, corpus, path = trained["default"]
        model = load_checkpoint(path)
        rows = [sample.tokens for sample in corpus.valid.samples[:20]]
        before = served(monkeypatch, model, rows, one_row=True)
        optimizer = Adam(model.trainable_parameters(), model.config.learning_rate)
        assert served(monkeypatch, model, rows, one_row=True) == before
        T.reset_tape()
        T.backward(batch_loss(model, next(batch_iterator(corpus.train, 8))).total)
        T.reset_tape()
        optimizer.step()
        after = served(monkeypatch, model, rows, one_row=True)
        assert after[1] == alone_at_width(model, rows)
        assert after[1] != before[1]

    def test_only_a_loaded_model_runs_the_gcn_once_for_many_calls(self, monkeypatch, trained):
        _, corpus, path = trained["default"]
        calls, gcn = [], GcnStack.__call__

        def counted(stack):
            calls.append(stack)
            return gcn(stack)

        monkeypatch.setattr(GcnStack, "__call__", counted)
        for serving, expected in [(load_checkpoint(path), 1), (build_model(RunConfig(), corpus), 50)]:
            calls.clear()
            for sample in corpus.valid.samples[:50]:
                serving.predict(sample.tokens)
            assert len(calls) == expected


def tampered(path, mutate):
    """Rewrite a checkpoint archive after applying ``mutate`` to its arrays."""
    with np.load(str(path), allow_pickle=False) as archive:
        blob = {key: archive[key] for key in archive.files}
    mutate(blob)
    np.savez(str(path), **blob)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), model)
        restored = load_checkpoint(str(path))

        assert restored.label_vocab.names == corpus.label_vocab.names
        assert restored.token_vocab.to_list() == corpus.token_vocab.to_list()
        before = model.named_parameters()
        after = restored.named_parameters()
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name].data, after[name].data)
        assert restored.gcn.propagation.dtype == model.gcn.propagation.dtype
        assert np.array_equal(restored.gcn.propagation, model.gcn.propagation)
        assert evaluate(restored, corpus.test) == evaluate(model, corpus.test)

    def test_no_gcn_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        model = build_model(tiny_config(use_gcn=False), corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), model)
        restored = load_checkpoint(str(path))
        assert restored.gcn is None
        assert evaluate(restored, corpus.test) == evaluate(model, corpus.test)

    def test_version_mismatch_rejected(self, tmp_path):
        corpus = tiny_corpus()
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), build_model(tiny_config(), corpus))

        def bump(blob):
            blob["__version__"] = np.array(999)

        tampered(path, bump)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_missing_parameter_rejected(self, tmp_path):
        corpus = tiny_corpus()
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), build_model(tiny_config(), corpus))

        def drop(blob):
            victim = next(k for k in blob if k.startswith("param/decoder."))
            del blob[victim]

        tampered(path, drop)
        with pytest.raises(CheckpointError, match="parameter"):
            load_checkpoint(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        corpus = tiny_corpus()
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), build_model(tiny_config(), corpus))

        def squash(blob):
            victim = next(k for k in sorted(blob) if k.startswith("param/"))
            blob[victim] = np.zeros((1, 1))

        tampered(path, squash)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(str(path))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        path = tmp_path / "best.npz"
        save_checkpoint(str(path), model)
        before = path.read_bytes()

        def crash(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), build_model(tiny_config(seed=1), corpus))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["best.npz"]
        assert evaluate(load_checkpoint(str(path)), corpus.test) == evaluate(model, corpus.test)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_config_survives_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_config(bc_weight=0.33, tau=0.2)
        model = build_model(cfg, corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), model)
        stored = load_checkpoint(str(path)).config.to_dict()
        assert stored["bc_weight"] == 0.33
        assert stored["tau"] == 0.2
        assert stored["num_queries"] == model.config.num_queries


def test_float64_checkpoint_loads_as_float32_and_predicts(tmp_path):
    corpus = tiny_corpus()
    model = build_model(tiny_config(), corpus)
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model)

    def widen(blob):
        for key in blob:
            if key.startswith("param/"):
                blob[key] = blob[key].astype(np.float64)

    tampered(path, widen)
    with np.load(str(path), allow_pickle=False) as archive:
        assert archive["param/decoder.head.weight"].dtype == np.float64
    restored = load_checkpoint(str(path))
    for name, param in restored.named_parameters().items():
        assert param.data.dtype == np.float32, name
        assert np.array_equal(param.data, model.named_parameters()[name].data), name
    assert evaluate(restored, corpus.test) == evaluate(model, corpus.test)
