"""Span recorder for the traced run.

Every function in ``TARGETS`` is wrapped, in each ``orbichar`` module
namespace that binds it (``from .x import f`` copies the name) or, for a
method, on its class.  A wrapper records one span per call -- name, start,
end, parent span, job, thread -- on a per-thread stack, so the terms that
``--workers 2`` computes in pool threads nest under the job's open span.
Spans stay in memory until ``write``.

A span's self time is its duration minus the union of its children's
intervals.  Pool threads run under the interpreter lock, so with
``--workers 2`` the self times of parallel spans include lock waits.

Counter hooks read arguments and results at the same boundaries, so the
ratios below are measured where the work happens.
"""

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hom_counts(args, kwargs, result, counters):
    presentation = _arg(args, kwargs, 0, "presentation")
    group = _arg(args, kwargs, 1, "group")
    counters["homs.candidates"] += group.order ** presentation.generators
    counters["homs.found"] += sum(c.orbit_size for c in result)


def _table_entries(args, kwargs, result, counters):
    counters["wreath.table_entries"] += len(result.elements) ** 2


def _types_enumerated(args, kwargs, result, counters):
    counters["wreath.types_enumerated"] += len(result)


def _regularize_counts(args, kwargs, result, counters):
    counters["equivariant.regularize.rounds"] += result.subdivision_rounds
    counters["equivariant.regularize.simplex_group_pairs"] += (
        len(result.cx.simplices) * result.group.order
    )


def _sector_counts(args, kwargs, result, counters):
    counters["sectors.kept"] += len(result.sectors)
    counters["sectors.dropped"] += result.dropped_classes


def _to_group_key(args, kwargs):
    wreath = args[0]
    return (wreath.base.table, wreath.size)


def _chi_key(args, kwargs):
    group = _arg(args, kwargs, 0, "group")
    return (group.table, _arg(args, kwargs, 1, "size"), _arg(args, kwargs, 2, "m"))


# (module, attribute, metric name, leading parameters the hooks read,
#  counter hook, repeat-key function)
TARGETS = (
    ("cli", "main", "cli.main", (), None, None),
    ("cli", "cmd_euler", "cli.cmd_euler", (), None, None),
    ("cli", "cmd_wreath", "cli.cmd_wreath", (), None, None),
    ("cli", "cmd_verify", "cli.cmd_verify", (), None, None),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes", (), None, None),
    ("groups", "subgroup", "groups.subgroup", (), None, None),
    ("groups", "centralizer", "groups.centralizer", (), None, None),
    ("homs", "hom_classes", "homs.hom_classes", ("presentation", "group"), _hom_counts, None),
    ("wreath", "WreathProduct.to_group", "wreath.to_group", ("self",), _table_entries, _to_group_key),
    ("wreath", "all_types", "wreath.all_types", (), _types_enumerated, None),
    ("wreath", "centralizer_extension", "wreath.centralizer_extension", (), None, None),
    ("equivariant", "power_with_wreath_action", "equivariant.power_with_wreath_action", (), None, None),
    ("equivariant", "regularize", "equivariant.regularize", (), _regularize_counts, None),
    ("equivariant", "euler_satake", "equivariant.euler_satake", (), None, None),
    ("equivariant", "fixed_subcomplex", "equivariant.fixed_subcomplex", (), None, None),
    ("equivariant", "orbit_complex", "equivariant.orbit_complex", (), None, None),
    ("equivariant", "product_complex", "equivariant.product_complex", (), None, None),
    ("complexes", "betti_numbers", "complexes.betti_numbers", (), None, None),
    ("sectors", "gamma_sectors", "sectors.gamma_sectors", (), _sector_counts, None),
    ("series", "point_wreath_chi_m", "series.point_wreath_chi_m", ("group", "size", "m"), None, _chi_key),
    ("series", "rhs_main_formula", "series.rhs_main_formula", (), None, None),
    ("series", "subgroup_count", "series.subgroup_count", (), None, None),
    ("series", "TruncatedSeries.__mul__", "series.TruncatedSeries.__mul__", (), None, None),
    ("series", "sublattice_count_bruteforce", "series.sublattice_count_bruteforce", (), None, None),
    ("hodge", "hodge_product_lhs", "hodge.hodge_product_lhs", (), None, None),
    ("hodge", "hodge_product_rhs", "hodge.hodge_product_rhs", (), None, None),
    ("hodge", "sp_generating", "hodge.sp_generating", (), None, None),
    ("hodge", "HodgeSeries.__mul__", "hodge.HodgeSeries.__mul__", (), None, None),
)

MODULES = ("cli", "groups", "homs", "wreath", "equivariant", "complexes", "sectors", "series", "hodge")

COUNTERS = (
    "cli.report_bytes",
    "homs.candidates",
    "homs.found",
    "wreath.table_entries",
    "wreath.types_enumerated",
    "equivariant.regularize.rounds",
    "equivariant.regularize.simplex_group_pairs",
    "complexes.simplices_built",
    "sectors.kept",
    "sectors.dropped",
)


class BindingError(RuntimeError):
    """A wrapped function is missing or its parameters moved."""


class _State:
    """What one thread recorded: its open spans, per-name stats, counters,
    and finished spans packed as (id, name, parent, job, thread) integers
    and (start, end) times."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, raised
        self.counters = defaultdict(int)
        self.ints = array("q")
        self.times = array("d")


class _Local(threading.local):
    def __init__(self, recorder):
        with recorder.lock:
            self.state = _State(len(recorder.states))
            recorder.states.append(self.state)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Recorder:
    def __init__(self):
        self.lock = threading.Lock()
        self.states = []
        self.local = _Local(self)
        self.names = [name for _m, _a, name, *_rest in TARGETS]
        self.ids = itertools.count(1)
        self.job = -1
        self.root_stack = []
        self.seen = defaultdict(set)
        self.repeats = defaultdict(int)

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        """Mark the calling thread as the one running job ``job``."""
        self.job = job
        self.root_stack = self.local.state.stack

    def add(self, counter: str, value: int) -> None:
        self.local.state.counters[counter] += value

    # -- wrapping -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in the imported ``package`` (``orbichar``)."""
        modules = [m for m in vars(package).values() if inspect.ismodule(m)]
        modules.append(package)
        for module_name, attr, name, params, hook, key in TARGETS:
            module = getattr(package, module_name, None)
            if module is None:
                raise BindingError(f"orbichar.{module_name} is not loaded")
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise BindingError(f"{module_name}.{attr}: no {part}")
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                raise BindingError(f"{module_name}.{attr} is missing")
            have = tuple(inspect.signature(fn).parameters)[: len(params)]
            if have != params:
                raise BindingError(
                    f"{module_name}.{attr} parameters {have}, expected {params}"
                )
            wrapper = self._wrap(name, fn, hook, key)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, wrapper)
        self._count_simplices(package.complexes.SimplicialComplex)

    def _count_simplices(self, cls) -> None:
        init = cls.__init__
        recorder = self

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            recorder.local.state.counters["complexes.simplices_built"] += len(obj.simplices)

        cls.__init__ = counting_init

    def _wrap(self, name, fn, hook, key):
        recorder = self
        local = self.local
        perf = time.perf_counter
        ids = self.ids
        name_index = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = local.state
            stack = state.stack
            if stack:
                parent = stack[-1]
            elif recorder.root_stack:
                # a pool thread: hang the span under the job's open span
                parent = recorder.root_stack[-1]
            else:
                parent = None
            if key is not None:
                recorder._see(name, key(args, kwargs))
            span = [next(ids), perf(), []]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                state.stats[name][2] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                start = span[1]
                children = span[2]
                stat = state.stats[name]
                stat[0] += 1
                stat[1] += end - start - (_covered(children) if children else 0.0)
                if parent is not None:
                    parent[2].append((start, end))
                state.ints.extend(
                    (span[0], name_index, parent[0] if parent else 0, recorder.job, state.thread)
                )
                state.times.extend((start, end))
            if hook is not None:
                hook(args, kwargs, result, state.counters)
            return result

        return wrapper

    def _see(self, name, key) -> None:
        with self.lock:
            seen = self.seen[name]
            if key in seen:
                self.repeats[name] += 1
            else:
                seen.add(key)

    # -- results ------------------------------------------------------------

    def totals(self):
        stats = defaultdict(lambda: [0, 0.0, 0])
        counters = defaultdict(int)
        spans = 0
        for state in self.states:
            for name, (calls, self_s, raised) in state.stats.items():
                acc = stats[name]
                acc[0] += calls
                acc[1] += self_s
                acc[2] += raised
            for counter, value in state.counters.items():
                counters[counter] += value
            spans += len(state.times) // 2
        return stats, counters, spans

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        stats, counters, spans = self.totals()
        out = {}
        for _module, _attr, name, *_rest in TARGETS:
            calls, self_s, _raised = stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for counter in COUNTERS:
            out[counter] = (counters[counter], "bytes" if counter == "cli.report_bytes" else "count")
        out["homs.yield"] = (_ratio(counters["homs.found"], counters["homs.candidates"]), "ratio")
        kept, dropped = counters["sectors.kept"], counters["sectors.dropped"]
        out["sectors.kept_ratio"] = (_ratio(kept, kept + dropped), "ratio")
        for name in ("wreath.to_group", "series.point_wreath_chi_m"):
            out[f"{name}.repeat_key_ratio"] = (_ratio(self.repeats[name], stats[name][0]), "ratio")
        total_self = sum(s[1] for s in stats.values())
        for module in MODULES:
            module_self = sum(s[1] for n, s in stats.items() if n.split(".")[0] == module)
            out[f"share.{module}"] = (_ratio(module_self, total_self), "ratio")
        out["trace.self_s"] = (total_self, "s")
        out["trace.raised"] = (sum(s[2] for s in stats.values()), "count")
        out["trace.spans"] = (spans, "count")
        return out

    def raised(self) -> dict:
        stats, _counters, _spans = self.totals()
        return {name: s[2] for name, s in stats.items() if s[2]}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: a header naming the fields, then
        one array per span -- id, name, start, end, parent id (0 for none),
        job, thread -- thread by thread in the order the spans closed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "job", "thread"]) + "\n")
            for state in self.states:
                ints, times = state.ints, state.times
                for i in range(len(times) // 2):
                    span_id, name, parent, job, thread = ints[5 * i : 5 * i + 5]
                    row = (span_id, self.names[name], times[2 * i], times[2 * i + 1], parent, job, thread)
                    fh.write(json.dumps(row) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
