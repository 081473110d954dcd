"""Span tracing around the parser's public layer functions.

The benchmark patches each layer function where its caller looks the name
up (``sdparse.pipeline`` imports ``assemble`` directly, so the patch goes
on ``sdparse.pipeline.assemble`` as well as on the defining module). A
layer whose function no longer exists is skipped and reports zero calls.

Spans are kept in memory as (name, start, end, parent index, op id) and
written out once the run ends. A layer's self time is its span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict

# layer name -> "module:attribute.path" sites to patch
LAYERS = {
    "sdp_io.parse_sdp": ("sdparse.cli:parse_sdp", "sdparse.sdp_io:parse_sdp"),
    "sdp_io.write_sdp": ("sdparse.cli:write_sdp", "sdparse.sdp_io:write_sdp"),
    "checkpoint.load_checkpoint": ("sdparse.cli:load_checkpoint",
                                   "sdparse.checkpoint:load_checkpoint"),
    "graph.enumerate_parts": ("sdparse.pipeline:enumerate_parts",
                              "sdparse.graph:enumerate_parts"),
    "graph.decode": ("sdparse.pipeline:decode", "sdparse.graph:decode"),
    "model.embed": ("sdparse.model:ParserModel.embed",),
    "model.encode": ("sdparse.model:ParserModel.encode",),
    "model.project_roles": ("sdparse.model:ParserModel.project_roles",),
    "model.score_sentence": ("sdparse.model:ParserModel.score_sentence",),
    "potentials.assemble": ("sdparse.pipeline:assemble", "sdparse.potentials:assemble"),
    "mf.mf_run": ("sdparse.mf:mf_run",),
    "lbp.lbp_run": ("sdparse.lbp:lbp_run",),
    "training.edge_loss": ("sdparse.training:edge_loss",),
    "training.label_loss": ("sdparse.training:label_loss",),
    "training.make_batches": ("sdparse.training:make_batches",),
    "training.Optimizer.apply": ("sdparse.training:Optimizer.apply",),
    "autodiff.backward": ("sdparse.autodiff:backward",),
    "model.state_arrays": ("sdparse.model:ParserModel.state_arrays",),
}

# counts taken from a layer's return value: layer -> (counter, function)
COUNTERS = {
    "graph.enumerate_parts": ("graph.parts", lambda parts: parts.total()),
    "potentials.assemble": ("potentials.pairs", lambda pot: pot.pair_count),
}

# layers whose traced-allocation peak the tracemalloc pass reports
MEMORY_LAYERS = ("model.encode", "model.score_sentence", "potentials.assemble",
                 "mf.mf_run", "lbp.lbp_run", "autodiff.backward")

ROOT = "call"


def _resolve(site):
    """(owner, attribute name) for a patch site, or None if it is gone."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Patches:
    """Replace functions at their patch sites; ``restore`` undoes it."""

    def __init__(self):
        self._undo = []

    def wrap(self, sites, make_wrapper):
        """Patch every site that still exists."""
        for site in sites:
            found = _resolve(site)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """Records a span per wrapped call made while an op is open."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_call(self, op):
        self.op = op
        self._open(ROOT)

    def end_call(self):
        self._close()
        self.op = None

    def wrapper(self, name):
        counter = COUNTERS.get(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close()
                if counter is not None:
                    self.counts[counter[0]] += counter[1](result)
                return result
            return traced
        return make

    def install(self, patches, layers=LAYERS):
        for name, sites in layers.items():
            patches.wrap(sites, self.wrapper(name))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Total self time per span name: duration minus direct children's."""
    child_time = defaultdict(float)
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, *_) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


def layer_split(spans, counts, ops, layers=LAYERS):
    """Per-layer metrics from one traced window.

    ``ops`` is the number of ops (parse requests or optimizer steps) the
    window ran; calls, self time and counts are reported per op, shares
    over the wall time of the traced calls.
    """
    wall = sum(end - start for name, start, end, *_ in spans if name == ROOT)
    own = self_times(spans)
    calls = Counter(name for name, *_ in spans)
    out = {}
    for name in layers:
        out[f"{name}.calls"] = (calls[name] / ops, "count")
        out[f"{name}.self_ms"] = (1000.0 * own.get(name, 0.0) / ops, "ms")
        out[f"{name}.share"] = (own.get(name, 0.0) / wall if wall else 0.0, "frac")
    for counter, _ in COUNTERS.values():
        out[counter] = (counts.get(counter, 0) / ops, "count")
    out["trace.other_share"] = (own.get(ROOT, 0.0) / wall if wall else 0.0, "frac")
    return out


class MemoryPeaks:
    """Traced-allocation peak of each wrapped layer, in bytes above the
    traced total at the call's entry, maximised over calls. Nested layers
    share one tracemalloc peak counter, so each layer boundary folds the
    peak so far into every open layer before resetting it."""

    def __init__(self):
        self.peaks = Counter()
        self._open = []        # [bytes at entry, highest peak seen] per open call

    def _fold(self):
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    def wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def measured(*args, **kwargs):
                if not tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                entry = self._fold()
                self._open.append([entry, entry])
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._fold()
                    base, peak = self._open.pop()
                    self.peaks[name] = max(self.peaks[name], peak - base)
            return measured
        return make

    def install(self, patches):
        for name in MEMORY_LAYERS:
            patches.wrap(LAYERS[name], self.wrapper(name))

    def metrics(self):
        return {f"{name}.peak_mib": (self.peaks[name] / 2 ** 20, "MiB")
                for name in MEMORY_LAYERS}
