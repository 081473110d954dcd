"""Tests of the benchmark's own code: input generation, span arithmetic,
patching, the window medians and the tail-percentile rule.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import tracemalloc
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_generator_is_a_function_of_the_seed():
    lengths = inputs.length_order(list(range(30, 61)), 5)
    assert sorted(lengths) == list(range(30, 61))
    assert lengths == inputs.length_order(list(range(30, 61)), 5)
    assert lengths != inputs.length_order(list(range(30, 61)), 6)
    text = inputs.format_sdp(inputs.corpus(lengths, 5))
    assert text == inputs.format_sdp(inputs.corpus(lengths, 5))
    assert text != inputs.format_sdp(inputs.corpus(lengths, 6))
    assert inputs.embedding_text(5) == inputs.embedding_text(5)
    assert inputs.embedding_text(5) != inputs.embedding_text(6)


def test_generated_corpus_reads_back_with_the_promised_shape(tmp_path):
    from sdparse.graph import has_cycle
    from sdparse.sdp_io import build_vocab, load_pretrained, parse_sdp

    path = tmp_path / "corpus.sdp"
    path.write_text(inputs.format_sdp(inputs.corpus(range(20, 46), 3)))
    data = parse_sdp(str(path))
    assert [s.n for s, _ in data] == list(range(20, 46))
    tokens = sum(s.n for s, _ in data)
    edges = sum(len(g.edges) for _, g in data)
    assert 1.0 <= edges / tokens <= 1.5
    for _, g in data:
        assert sum(1 for h, _, _ in g.edges if h == 0) == 1
    heads_per_dep = [sum(1 for h, d, _ in g.edges if d == dep)
                     for s, g in data for dep in range(1, s.n + 1)]
    assert max(heads_per_dep) >= 2
    assert any(has_cycle(g) for _, g in data)
    vocab = build_vocab(data, min_count=7)
    forms = {t.form for s, _ in data for t in s.tokens}
    assert 0 < sum(1 for f in forms if f not in vocab.form2id) < len(forms)

    table = tmp_path / "vectors.txt"
    table.write_text(inputs.embedding_text(3))
    vectors, dim = load_pretrained(str(table))
    assert dim == inputs.EMBEDDING_DIM and len(vectors) == 270


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(spans.ROOT, 0.0, 10.0, None),
        _span("model.score_sentence", 1.0, 5.0, 0),
        _span("model.encode", 2.0, 3.0, 1),
        _span("potentials.assemble", 6.0, 8.0, 0),
        _span(spans.ROOT, 10.0, 12.0, None, op=1),
        _span("potentials.assemble", 10.5, 11.0, 4, op=1),
    ]
    own = spans.self_times(tree)
    assert own == {spans.ROOT: 4.0 + 1.5, "model.score_sentence": 3.0,
                   "model.encode": 1.0, "potentials.assemble": 2.5}
    split = spans.layer_split(tree, {"potentials.pairs": 10}, ops=2)
    assert split["potentials.assemble.calls"] == (1.0, "count")
    assert split["potentials.assemble.self_ms"] == (1250.0, "ms")
    assert split["potentials.assemble.share"] == (2.5 / 12.0, "frac")
    assert split["trace.other_share"] == (5.5 / 12.0, "frac")
    assert split["potentials.pairs"] == (5.0, "count")
    assert split["lbp.lbp_run.calls"] == (0.0, "count")


def test_missing_layer_functions_are_skipped_and_report_zero_calls(monkeypatch):
    fake = types.ModuleType("fake_layers")
    fake.present = lambda x: x + 1
    original = fake.present
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    layers = {"fake.present": ("fake_layers:present",),
              "fake.gone": ("fake_layers:gone", "no_such_module:f",
                            "fake_layers:present.missing_attribute")}

    recorder = spans.SpanRecorder()
    patches = spans.Patches()
    recorder.install(patches, layers)
    recorder.begin_call(0)
    assert fake.present(1) == 2
    recorder.end_call()
    patches.restore()

    assert fake.present is original
    split = spans.layer_split(recorder.spans, recorder.counts, ops=1, layers=layers)
    assert split["fake.present.calls"] == (1.0, "count")
    assert split["fake.gone.calls"] == (0.0, "count")
    assert split["fake.gone.self_ms"] == (0.0, "ms")


def test_calls_outside_an_open_call_are_not_recorded():
    recorder = spans.SpanRecorder()
    traced = recorder.wrapper("graph.decode")(lambda: 3)
    assert traced() == 3
    assert recorder.spans == []


def test_memory_peaks_fold_nested_layers():
    peaks = spans.MemoryPeaks()
    mib = 2 ** 20

    def inner():
        block = bytearray(4 * mib)
        return len(block)

    def outer(wrapped_inner):
        held = bytearray(mib)
        return wrapped_inner() + len(held)

    wrapped_inner = peaks.wrapper("model.encode")(inner)
    wrapped_outer = peaks.wrapper("model.score_sentence")(outer)
    tracemalloc.start()
    try:
        wrapped_outer(wrapped_inner)
    finally:
        tracemalloc.stop()
    got = peaks.metrics()
    assert 4.0 <= got["model.encode.peak_mib"][0] < 4.5
    assert 5.0 <= got["model.score_sentence.peak_mib"][0] < 5.5
    assert got["lbp.lbp_run.peak_mib"] == (0.0, "MiB")


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run._tail(list(range(19))) is None
    assert run._tail(list(range(20))) == (50, 9)
    assert run._tail(list(range(100))) == (90, 89)
    pct, _ = run._tail(list(range(63)))
    assert pct == 84 and sum(1 for v in range(63) if v > run._tail(list(range(63)))[1]) >= 10


def test_check_case_summarises_only_the_first_steps_gradients():
    import numpy as np
    import worker

    grads = {"b": np.array([3.0, 4.0]), "a": np.array([[0.0]]), "frozen": None}
    optimizer = types.SimpleNamespace(
        params={k: types.SimpleNamespace(grad=g) for k, g in grads.items()})
    applied = []
    out = {}
    step = worker.TrainWorkload._first_gradients(applied.append, out)
    step(optimizer)
    rng = np.random.default_rng(worker.CHECK_SEED)
    direction = {"a": rng.standard_normal((1, 1)), "b": rng.standard_normal(2)}
    assert out["grad_norm"] == 5.0
    assert out["grad_dot"] == float(direction["b"] @ grads["b"])
    optimizer.params["b"].grad = -grads["b"]   # a later step changes nothing
    step(optimizer)
    assert out["grad_norm"] == 5.0 and applied == [optimizer, optimizer]


def test_window_metrics_take_each_op_positions_median_over_cycles():
    import worker

    def call(ops, tail=0.0, tokens=10):
        return {"ops": ops, "tail": tail, "duration": sum(ops) + tail,
                "tokens": tokens, "attempted": len(ops), "failed": 0}

    # two calls a cycle; the first cycle is slow, as when caches fill
    calls = [call([5.0]), call([9.0]), call([1.0]), call([2.0]), call([1.2]), call([2.4])]
    got = worker._metrics(calls, 2)
    assert got["cycles"] == 3 and len(got["ops"]) == 6
    assert abs(got["tokens_per_s"] - 20 / (1.2 + 2.4)) < 1e-12
    assert abs(got["op_ms_p50"] - 1000 * 1.8) < 1e-9
    assert abs(got["mean_tokens_per_s"] - 60 / 20.6) < 1e-12
    # one call a cycle with two steps and the time after the last step
    calls = [call([3.0, 1.0], tail=0.5), call([2.0, 1.0], tail=0.1), call([2.5, 4.0], tail=0.2)]
    got = worker._metrics(calls, 1)
    assert abs(got["tokens_per_s"] - 10 / (2.5 + 1.0 + 0.2)) < 1e-12
    assert abs(got["op_ms_p50"] - 1000 * 1.75) < 1e-9
