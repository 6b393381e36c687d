"""In-memory spans and counters for the traced benchmark run.

Spans are recorded only from the benchmark's own files: while ``patched``
is active, each public function named in ``TARGETS`` is replaced, under every
name any ``auctionlearn`` module binds it to, by a wrapper that times the
call.  Cross-module calls (``experiments.erm``, ``bounds.split_sample_space``,
``erm.profile_revenues``, ...) are therefore spanned, and the originals are
restored on exit.  ``_private`` names are never wrapped, so per-subset ERM is
part of ``splitsample.split_sample_space``'s self time.

Tracing is on only inside ``patched``.  A span's self time is its duration
minus the durations of the spans it directly encloses.  Counter hooks run after their span has closed and their
time is excluded from the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import auctionlearn as al

SPLIT_TAGS = ("single-reserve", "anonymous-second-price", "player-reserves", "t-level",
              "best-of")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_values(tr, dur, result, args, kwargs):
    tr.counters["model.values_drawn"] += int(result.values.size)


def _count_profiles(tr, dur, result, args, kwargs):
    tr.counters["mechanisms.profile_evals"] += int(len(result))


def _count_mc(tr, dur, result, args, kwargs):
    tr.counters["mechanisms.mc_draws"] += int(_arg(args, kwargs, 2, "draws"))


def _count_erm(tr, dur, result, args, kwargs):
    spec, S = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "S")
    tr.counters["erm.candidate_cells"] += al.candidate_count(spec, S) * S.m


def _count_split(tr, dur, result, args, kwargs):
    tag = _arg(args, kwargs, 0, "spec").tag
    tr.counters["splitsample.subsets"] += result.subsets_examined
    tr.counters["splitsample.distinct"] += len(result)
    tr.counters[f"splitsample.subsets.{tag}"] += result.subsets_examined
    tr.seconds[f"splitsample.seconds.{tag}"] += dur


def _count_signs(tr, dur, result, args, kwargs):
    S = _arg(args, kwargs, 0, "S")
    tr.counters["bounds.sign_cells"] += result.draws * S.m * result.set_size


def _count_optimum(tr, dur, result, args, kwargs):
    if result.method != "grid-mc":
        return
    spec, dist = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "dist")
    step = _arg(args, kwargs, 3, "grid_step", 1e-3)
    draws = _arg(args, kwargs, 4, "draws", 10**6)
    alpha, beta = dist.value_range
    if spec.tag == "bundle-price":
        alpha, beta = dist.k * alpha, dist.k * beta
    points = int(round((beta - alpha) / step)) + 1
    # joint grids for multi-bidder t-level and best-of; separable classes
    # scan one grid whose columns partition the draws
    if spec.tag == "t-level":
        points **= dist.n
    elif spec.tag == "best-of":
        points **= 2
    tr.counters["experiments.optimum_cells"] += points * draws


# span name -> [(module, public attribute)], counter hook
TARGETS = (
    ("model.sample_values", [("auctionlearn.model", "sample_values")], _count_values),
    ("mechanisms.profile_revenues", [("auctionlearn.mechanisms", "profile_revenues")],
     _count_profiles),
    ("mechanisms.monte_carlo_true_revenue",
     [("auctionlearn.mechanisms", "monte_carlo_true_revenue")], _count_mc),
    ("mechanisms.analytic_true_revenue",
     [("auctionlearn.mechanisms", "analytic_true_revenue")], None),
    ("erm.erm", [("auctionlearn.erm", "erm")], _count_erm),
    ("splitsample.split_sample_space", [("auctionlearn.splitsample", "split_sample_space")],
     _count_split),
    ("splitsample.theoretical_growth_bound",
     [("auctionlearn.splitsample", "theoretical_growth_bound")], None),
    ("bounds.rademacher_estimate", [("auctionlearn.bounds", "rademacher_estimate")],
     _count_signs),
    ("bounds.massart_bound", [("auctionlearn.bounds", "massart_bound")], None),
    ("bounds.main_bound", [("auctionlearn.bounds", "main_bound")], None),
    ("bounds.generalization_chain_check",
     [("auctionlearn.bounds", "generalization_chain_check")], None),
    ("experiments.in_class_optimum", [("auctionlearn.experiments", "in_class_optimum")],
     _count_optimum),
    ("experiments.generalization_experiment",
     [("auctionlearn.experiments", "generalization_experiment")], None),
    ("experiments.writers", [("auctionlearn.experiments", "write_rows_csv"),
                             ("auctionlearn.experiments", "write_rows_jsonl"),
                             ("auctionlearn.experiments", "write_gap_svg")], None),
    ("cli.main", [("auctionlearn.cli", "main")], None),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)
COUNTER_NAMES = ("splitsample.subsets", "splitsample.distinct", "erm.candidate_cells",
                 "model.values_drawn", "mechanisms.profile_evals", "mechanisms.mc_draws",
                 "bounds.sign_cells", "experiments.optimum_cells",
                 *(f"splitsample.subsets.{tag}" for tag in SPLIT_TAGS))


class Tracer:
    """Per-span call counts and self times plus named counters, in memory."""

    def __init__(self):
        self._stack: list[list[float]] = []   # per open span: child seconds
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)

    def wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dur
            if hook is not None:
                t1 = time.perf_counter()
                hook(tracer, dur, result, args, kwargs)
                if tracer._stack:
                    tracer._stack[-1][0] += time.perf_counter() - t1
            return result

        return spanned

    def snapshot_counts(self) -> dict:
        """Every deterministic count of the current pass."""
        counts = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        counts.update((name, self.counters[name]) for name in COUNTER_NAMES)
        return counts

    def snapshot_times(self) -> dict:
        times = {f"{name}.self_s": self.self_s[name] for name in SPAN_NAMES}
        for tag in SPLIT_TAGS:
            subsets = self.counters[f"splitsample.subsets.{tag}"]
            seconds = self.seconds[f"splitsample.seconds.{tag}"]
            times[f"splitsample.us_per_subset.{tag}"] = 1e6 * seconds / subsets if subsets else 0.0
        return times


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every TARGETS function under all its auctionlearn names; restore on exit."""
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "auctionlearn" or key.startswith("auctionlearn.")]
    saved = []
    try:
        for name, attrs, hook in TARGETS:
            for module_name, attr in attrs:
                original = getattr(sys.modules[module_name], attr)
                spanned = tracer.wrap(name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, value))
                            setattr(mod, key, spanned)
        yield tracer
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)
