"""One benchmark process: set up one workload, then time it.

Run by ``run.py`` (never by hand) as

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --out RESULT.json

``setup`` stops after set-up and reports its time. ``measure`` runs the
untraced timed window: whole cycles over the inputs for ``--seconds``,
and at least three. ``trace`` runs an untraced window, a traced window
of the same length and a tracemalloc pass, and writes the spans next to
``--out``. The result goes to ``--out`` as JSON; the parser's own console
output is swallowed.
"""

import time

START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import sdparse  # noqa: E402
from sdparse import cli, metrics, pipeline, sdp_io, training  # noqa: E402
from sdparse.checkpoint import save_checkpoint  # noqa: E402
from sdparse.config import RunConfig  # noqa: E402
from sdparse.errors import DataError  # noqa: E402
from sdparse.model import ModelConfig, ParserModel  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

CHECK_SEED = 7   # the fixed check case recorded in reference.json
REFERENCE = os.path.join(HERE, "reference.json")
# tolerance per reference value: ("abs" | "rel", bound)
TOLERANCE = {
    "labeled_f1": ("abs", 1e-9),
    "unlabeled_f1": ("abs", 1e-9),
    "predicted_edges": ("abs", 0),
    "first_loss": ("rel", 1e-8),
    "last_loss": ("rel", 1e-6),
    # the first step's gradients: their L2 norm, and their dot product with
    # a seeded Gaussian direction (sign and size of every component count)
    "grad_norm": ("rel", 1e-6),
    "grad_dot": ("rel", 1e-6),
}
CHECK_STEPS = 2
MIN_CYCLES = 3   # per-position medians need three samples to drop one slow cycle
OP_F1_TOLERANCE = 1e-9
LOSS_REPEAT_TOLERANCE = 1e-9


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class Window:
    """Which span recorder (if any) sees the calls of one timed window."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.op = 0

    def begin(self):
        if self.recorder is not None:
            self.recorder.begin_call(self.op)

    def step(self):
        self.op += 1
        if self.recorder is not None and self.recorder.op is not None:
            self.recorder.op = self.op

    def end(self):
        if self.recorder is not None:
            self.recorder.end_call()


class ParseLongMF:
    """`sdparse parse` requests, one single-sentence file each, against a
    seeded untrained desk model. Every length 30-60 appears once per
    cycle of requests, so about 30 part-list sizes sit in the cache.
    There is no warm-up: the window's first cycle fills whatever the
    parser caches through the same public path, and the per-request
    medians over the window's cycles leave that cold cycle out."""

    name = "parse-long-mf"
    lengths = tuple(range(30, 61))
    cycle = len(lengths)   # requests per cycle: one per file
    engine = "mf"
    iterations = 3

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.f1s = []   # per op: (file index, labeled F1, or None if it failed)

    def meta(self):
        return {"engine": self.engine, "iterations": self.iterations,
                "lengths": [min(self.lengths), max(self.lengths)],
                "model": dataclasses.asdict(ModelConfig())}

    def _build(self, files, seed, tag):
        """Write one .sdp file per list of sentences, read them back through
        the parser's reader, and save a seeded model for their vocabulary."""
        paths, data = [], []
        for k, sentences in enumerate(files):
            path = os.path.join(self.work, f"{tag}-{k:02d}.sdp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.format_sdp(sentences))
            paths.append(path)
            data.append(sdp_io.parse_sdp(path))
        run_cfg = RunConfig(inference=self.engine, iterations=self.iterations)
        vocab = sdp_io.build_vocab([pair for pairs in data for pair in pairs],
                                   run_cfg.min_count)
        model = ParserModel(run_cfg.model_config(), vocab, np.random.default_rng([seed, 4]))
        checkpoint = os.path.join(self.work, f"{tag}.npz")
        save_checkpoint(checkpoint, model, run_cfg, vocab)
        return paths, data, model, run_cfg, checkpoint

    def setup(self):
        order = inputs.length_order(self.lengths, self.seed)
        files = [[sent] for sent in inputs.corpus(order, self.seed)]
        (self.paths, data, self.model, self.run_cfg,
         self.checkpoint) = self._build(files, self.seed, "req")
        self.data = [pairs[0] for pairs in data]
        self.output = os.path.join(self.work, "out.sdp")

    def _argv(self, path, checkpoint):
        return ["parse", "--checkpoint", checkpoint, "--input", path,
                "--output", self.output, "--engine", self.engine,
                "--iterations", str(self.iterations)]

    def call(self, window):
        k = window.op % len(self.paths)
        sentence, gold = self.data[k]
        window.begin()
        start = time.perf_counter()
        try:
            code = _quiet(cli.main, self._argv(self.paths[k], self.checkpoint))
        except Exception as exc:  # a crash inside the parser is a failed op
            print(f"parse request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
        elapsed = time.perf_counter() - start
        window.end()
        window.step()
        f1 = None
        if code == 0:
            try:
                parsed = sdp_io.parse_sdp(self.output)
            except DataError as exc:
                print(f"unreadable parse output: {exc}", file=sys.stderr)
                parsed = []
            if len(parsed) == 1 and parsed[0][0].tokens == sentence.tokens:
                f1 = metrics.evaluate([parsed[0][1]], [gold]).labeled[2]
        self.f1s.append((k, f1))
        return {"duration": elapsed, "tokens": sentence.n, "ops": [elapsed], "tail": 0.0,
                "attempted": 1, "failed": int(f1 is None)}

    def check_ops(self):
        """Failed ops among those that passed the per-op checks: an op's
        labeled F1 must equal that of the library path on the same sentence
        (`pipeline.parse_sentence` on the in-memory model, so no checkpoint
        and no file I/O)."""
        reference = {}
        failed = 0
        for k, f1 in self.f1s:
            if f1 is None:
                continue
            if k not in reference:
                sentence, gold = self.data[k]
                pred, _, _ = pipeline.parse_sentence(
                    self.model, sentence, self.engine, self.iterations,
                    self.run_cfg.threshold, self.run_cfg.logit_clamp)
                reference[k] = metrics.evaluate([pred], [gold]).labeled[2]
            failed += abs(f1 - reference[k]) > OP_F1_TOLERANCE
        return failed

    def memory_call(self):
        k = next(i for i, (sentence, _) in enumerate(self.data) if sentence.n == 45)
        _quiet(cli.main, self._argv(self.paths[k], self.checkpoint))

    def check_case(self):
        files = [inputs.corpus([30, 40], CHECK_SEED)]
        paths, data, _, _, checkpoint = self._build(files, CHECK_SEED, "check")
        code = _quiet(cli.main, self._argv(paths[0], checkpoint))
        if code != 0:
            return {"exit_code": code}
        parsed = sdp_io.parse_sdp(self.output)
        report = metrics.evaluate([g for _, g in parsed], [g for _, g in data[0]])
        return {"labeled_f1": report.labeled[2], "unlabeled_f1": report.unlabeled[2],
                "predicted_edges": sum(len(g.edges) for _, g in parsed)}


class TrainWorkload:
    """`training.train` over a seeded corpus with no dev set; one call is
    one epoch from the same initial weights, so every call does the same
    work and must report the same loss."""

    name = None
    lengths = ()
    check_lengths = ()
    train_overrides = {}
    cycle = 1   # one call is a whole epoch
    window = None

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.final_losses = []

    def meta(self):
        cfg = self.train_config()
        return {"engine": cfg.inference, "iterations": cfg.iterations,
                "lengths": [min(self.lengths), max(self.lengths)],
                "batch_token_budget": cfg.batch_token_budget,
                "model": dataclasses.asdict(self.model_config())}

    def train_config(self, **overrides):
        # a fixed training seed keeps batch order the same for every
        # workload seed; the workload seed only draws the corpus
        return training.TrainConfig(seed=1, **{**self.train_overrides, **overrides})

    def _build(self, lengths, seed, tag, model_config):
        path = os.path.join(self.work, f"{tag}.sdp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.format_sdp(inputs.corpus(lengths, seed)))
        data = sdp_io.parse_sdp(path)
        vocab = sdp_io.build_vocab(data, RunConfig().min_count)
        vectors = None
        if model_config.use_pretrained:
            table = os.path.join(self.work, f"{tag}.vec")
            with open(table, "w", encoding="utf-8") as fh:
                fh.write(inputs.embedding_text(seed))
            vectors = sdp_io.load_pretrained(table)
        model = ParserModel(model_config, vocab, np.random.default_rng([seed, 4]),
                            pretrained=vectors)
        return data, model

    def setup(self):
        self.data, self.model = self._build(self.lengths, self.seed, "train",
                                            self.model_config())
        self.initial = self.model.state_arrays()
        steps = len(training.make_batches(self.data, self.train_config().batch_token_budget,
                                          np.random.default_rng(0)))
        self.cfg = self.train_config(max_steps=steps)
        self.tokens = sum(s.n for s, _ in self.data)

    def _run(self, cfg):
        """train() from the initial weights, with a timestamp at each
        optimizer-step return in ``self.stamps``; returns (result,
        duration, start time)."""
        self.model.load_state_arrays(self.initial)
        self.stamps = []
        patches = spans.Patches()
        patches.wrap(("sdparse.training:Optimizer.apply",), self._stamping)
        try:
            start = time.perf_counter()
            result = training.train(self.model, self.data, None, cfg)
            return result, time.perf_counter() - start, start
        finally:
            patches.restore()

    def _stamping(self, apply):
        def stamped(optimizer):
            apply(optimizer)
            self.stamps.append(time.perf_counter())
            if self.window is not None:
                self.window.step()
        return stamped

    def call(self, window):
        self.window = window
        window.begin()
        failed = False
        start = time.perf_counter()
        try:
            result, elapsed, start = self._run(self.cfg)
            losses = [row["train_loss"] for row in result.history]
            failed = not losses or not all(math.isfinite(v) for v in losses)
            if not failed:
                self.final_losses.append(losses[-1])
                ref = self.final_losses[0]
                failed = abs(losses[-1] - ref) > LOSS_REPEAT_TOLERANCE * abs(ref)
        except Exception as exc:  # NumericError and crashes alike fail the call
            print(f"train call failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            failed = True
        finally:
            window.end()
            self.window = None
        stamps = [start] + self.stamps
        ops = [b - a for a, b in zip(stamps, stamps[1:])]
        # the end of the epoch after its last step: no op, but part of the call
        tail = start + elapsed - stamps[-1]
        return {"duration": elapsed, "tokens": self.tokens, "ops": ops, "tail": tail,
                "failed": self.cfg.max_steps if failed else 0,
                "attempted": max(len(ops), self.cfg.max_steps)}

    def check_ops(self):
        return 0   # each call is checked as it returns

    def memory_call(self):
        self._run(dataclasses.replace(self.cfg, max_steps=1))

    def check_case(self):
        model_config = dataclasses.replace(
            self.model_config(), **{f.name: 0.0 for f in dataclasses.fields(ModelConfig)
                                    if f.name.startswith("dropout")})
        data, model = self._build(self.check_lengths, CHECK_SEED, "check", model_config)
        grads = {}
        patches = spans.Patches()
        patches.wrap(("sdparse.training:Optimizer.apply",),
                     lambda apply: self._first_gradients(apply, grads))
        try:
            # the check sentences fit one batch, so each step is an epoch
            result = training.train(model, data, None,
                                    self.train_config(max_steps=CHECK_STEPS))
        finally:
            patches.restore()
        return {"first_loss": result.history[0]["train_loss"],
                "last_loss": result.history[-1]["train_loss"], **grads}

    @staticmethod
    def _first_gradients(apply, out):
        """Wrap Optimizer.apply to summarise the gradients of the first step
        into ``out`` before applying them."""
        def summarised(optimizer):
            if not out:
                rng = np.random.default_rng(CHECK_SEED)
                dot = norm2 = 0.0
                for name in sorted(optimizer.params):
                    grad = optimizer.params[name].grad
                    if grad is not None:
                        dot += float(np.vdot(grad, rng.standard_normal(grad.shape)))
                        norm2 += float(np.vdot(grad, grad))
                out.update(grad_dot=dot, grad_norm=math.sqrt(norm2))
            apply(optimizer)
        return summarised


class TrainLongLBP(TrainWorkload):
    """Desk dims, loopy BP, lengths 20-45 (each once), a few sentences per
    step: LBP messages and their backward pass dominate."""

    name = "train-long-lbp"
    lengths = tuple(range(20, 46))
    check_lengths = (20, 24, 28)
    train_overrides = {"inference": "lbp", "iterations": 3, "batch_token_budget": 100}

    def model_config(self):
        return ModelConfig()


class TrainShortFull(TrainWorkload):
    """Paper-scale dims and dropouts with a pretrained table, mean-field,
    short sentences: the BiLSTM and the optimizer over ~26M weights
    dominate, part scoring is small."""

    name = "train-short-full"
    lengths = (5, 8, 11, 15)
    check_lengths = (5, 8)
    train_overrides = {"inference": "mf", "iterations": 3, "batch_token_budget": 16}

    def model_config(self):
        return ModelConfig.full()


WORKLOADS = {w.name: w for w in (ParseLongMF, TrainLongLBP, TrainShortFull)}


def run_window(workload, seconds, recorder=None):
    """Whole cycles of calls until ``seconds`` of wall time have passed,
    and at least ``MIN_CYCLES`` of them.

    A cycle visits every input once, so each window does the same work
    whatever the seed, and each input is timed once per cycle.
    """
    window = Window(recorder)
    calls = []
    start = time.perf_counter()
    while (len(calls) % workload.cycle or len(calls) < MIN_CYCLES * workload.cycle
           or time.perf_counter() - start < seconds):
        calls.append(workload.call(window))
    return calls


def _metrics(calls, cycle):
    """Throughput and op latency of a window, robust to a slow cycle.

    The ops of every cycle come in the same order (one per request, or one
    per optimizer step of the epoch), so each position is timed once per
    cycle. A position's time is its median over the cycles, and so is the
    time a cycle spends outside its ops; their sum is the cycle time that
    ``tokens_per_s`` divides a cycle's tokens by, and ``op_ms_p50`` is the
    median over positions. A burst of load on the host, or the parser
    filling its caches in the first cycle, moves one cycle and not the
    medians. The mean over all calls is kept beside them.
    """
    cycles = [calls[i:i + cycle] for i in range(0, len(calls), cycle)]
    rows = [[op for c in cyc for op in c["ops"]] for cyc in cycles]
    width = min(len(row) for row in rows)
    op_medians = [statistics.median(row[j] for row in rows) for j in range(width)]
    tail = statistics.median(sum(c["tail"] for c in cyc) for cyc in cycles)
    ops = [op for row in rows for op in row]
    return {"tokens_per_s": sum(c["tokens"] for c in cycles[0]) / (sum(op_medians) + tail),
            "op_ms_p50": 1000.0 * statistics.median(op_medians) if op_medians else None,
            "mean_tokens_per_s": (sum(c["tokens"] for c in calls)
                                  / sum(c["duration"] for c in calls)),
            "ops": ops,
            "cycles": len(cycles),
            "attempted": sum(c["attempted"] for c in calls),
            "failed": sum(c["failed"] for c in calls)}


def check_reference(workload):
    """Run the fixed check case and compare it with reference.json."""
    got = workload.check_case()
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh).get(workload.name, {})
    mismatches = []
    for key, expected in want.items():
        kind, bound = TOLERANCE[key]
        value = got.get(key)
        scale = abs(expected) if kind == "rel" else 1.0
        if value is None or abs(value - expected) > bound * scale:
            mismatches.append(f"{key}: got {value!r}, reference {expected!r}")
    return {"values": got, "ok": bool(want) and not mismatches, "mismatches": mismatches}


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run_meta(workload, seed, seconds):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        **workload.meta(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(sdparse.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sdparse imported from {sdparse.__file__}, not from {SRC}")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.setup()
        result = {"setup_s": time.perf_counter() - START}
        if args.mode != "setup":
            result.update(measure(workload, args, out_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def measure(workload, args, out_dir):
    untraced = _metrics(run_window(workload, args.seconds), workload.cycle)
    result = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.mode == "trace":
        recorder = spans.SpanRecorder()
        patches = spans.Patches()
        recorder.install(patches)
        try:
            traced = _metrics(run_window(workload, args.seconds, recorder), workload.cycle)
        finally:
            patches.restore()
        layers = spans.layer_split(recorder.spans, recorder.counts, len(traced["ops"]))
        layers["trace.overhead_frac"] = (
            1.0 - traced["tokens_per_s"] / untraced["tokens_per_s"], "frac")
        peaks = spans.MemoryPeaks()
        patches = spans.Patches()
        peaks.install(patches)
        tracemalloc.start()
        try:
            workload.memory_call()
        finally:
            tracemalloc.stop()
            patches.restore()
        layers.update(peaks.metrics())
        recorder.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        result["layers"] = layers
        result["traced"] = {k: traced[k] for k in ("tokens_per_s", "attempted", "failed")}
        untraced["attempted"] += traced["attempted"]
        untraced["failed"] += traced["failed"]
    untraced["failed"] += workload.check_ops()
    result.update(untraced)
    result["reference"] = check_reference(workload)
    result["meta"] = run_meta(workload, args.seed, args.seconds)
    return result


if __name__ == "__main__":
    main()
