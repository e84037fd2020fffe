"""Per-layer tracing of posetideals from outside the package.

``install`` wraps each public function named in TRACED and rebinds every
``posetideals.*`` module global that refers to it, so callers that imported
the function by name (verification, algebra and completions all do) reach
the wrapper.  Each call, and each resumption of a generator, records one
span: name, start, end and the span that was open when it began.  Spans stay
in memory, in flat arrays, until ``metrics`` folds them into per-function
counts and self times (a span's duration minus the time its child spans
cover).

``Poset.leq``, ``Poset.lt`` and ``bits`` run millions of times per job and
are deliberately not wrapped; their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# layer -> public functions timed in that layer
TRACED = {
    "poset": ("from_up_rows", "induced", "down_closure", "is_directed", "linear_extension"),
    "completions": ("downsets", "ideals", "chain_ideals", "x_down", "iterate_id",
                    "principal_embedding"),
    "morphisms": ("canonical_form", "iter_maps", "exists_map", "are_isomorphic"),
    "algebra": ("classify", "substructure", "subsemilattices", "semilattice_homs"),
    "verification": ("generate_corpus", "run_suite", "check_theorem_2_1", "check_theorem_3_1",
                     "check_corollary_2_3_hypothesis", "check_corollary_3_2", "check_acc",
                     "check_lemma_5_1", "check_kurepa_atoms"),
    "serialize": ("json_dumps",),
    "cli": ("main",),
}
GENERATORS = frozenset({"iter_maps", "subsemilattices", "semilattice_homs"})
FAMILIES = frozenset({"downsets", "ideals", "chain_ideals", "x_down"})
# iter_maps is reported per map class, taken from its ``kind`` argument
ITER_MAPS_KINDS = ("isotone", "strictly_isotone", "isomorphism")


def _span_names() -> list[tuple[str, str]]:
    """(span name, function name) for every traced function."""
    out = []
    for layer, fnames in TRACED.items():
        for f in fnames:
            if f == "iter_maps":
                out.extend((f"{layer}.{f}.{k}", f) for k in ITER_MAPS_KINDS)
            else:
                out.append((f"{layer}.{f}", f))
    return out


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, f in _span_names():
        out.append((f"{span}.calls", "count"))
        if f in GENERATORS:
            out.append((f"{span}.yields", "count"))
        if f in FAMILIES:
            out.append((f"{span}.sets", "count"))
        out.append((f"{span}.self_s", "s"))
    out.extend((f"{layer}.failed", "count") for layer in TRACED)
    out += [
        ("morphisms.canonical_form.new_class_ratio", "ratio"),
        ("morphisms.budget_exceeded", "count"),
        ("cli.import_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self.calls: Counter[str] = Counter()
        self.yields: Counter[str] = Counter()
        self.sets: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.budget_exceeded = 0
        self.canonical_keys: set[tuple[int, ...]] = set()
        self._failures: tuple[type[BaseException], ...] = ()
        self._budget_exc: type[BaseException] | None = None

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._open[-1] if self._open else -1)
        self._end.append(0.0)
        self._open.append(i)
        self._start.append(perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._open.pop()

    def _fail(self, layer: str, exc: BaseException) -> None:
        # an exception is charged once, to the innermost traced layer it left
        if getattr(exc, "_traced_layer", None) is None:
            exc._traced_layer = layer
            self.failed[layer] += 1
            if isinstance(exc, self._budget_exc):
                self.budget_exceeded += 1

    def _wrap_call(self, fn, layer: str, name: str, on_result=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            i = self._enter(nid)
            try:
                out = fn(*args, **kwargs)
            except self._failures as exc:
                self._fail(layer, exc)
                raise
            finally:
                self._exit(i)
            if on_result is not None:
                on_result(name, out)
            return out

        return traced

    def _wrap_gen(self, fn, layer: str, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            nid = self._id(name)
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    i = self._enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except self._failures as exc:
                        self._fail(layer, exc)
                        raise
                    finally:
                        self._exit(i)
                    self.yields[name] += 1
                    yield item
            finally:
                # the consumer stopped early (exists_map returns on the
                # first witness): stop the wrapped search as well
                gen.close()

        return traced

    def _count_sets(self, name: str, family) -> None:
        self.sets[name] += len(family.sets)

    def _keep_class(self, name: str, result) -> None:
        self.canonical_keys.add(result[0].up)

    def install(self) -> None:
        """Wrap the traced functions of every posetideals module imported so
        far.  Modules imported later are not patched."""
        from posetideals.morphisms import BudgetExceeded
        from posetideals.poset import CapacityExceeded

        self._failures = (BudgetExceeded, CapacityExceeded)
        self._budget_exc = BudgetExceeded
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "posetideals" or k.startswith("posetideals."))]
        for layer, fnames in TRACED.items():
            mod = sys.modules.get(f"posetideals.{layer}")
            if mod is None:
                continue
            for f in fnames:
                orig = getattr(mod, f)
                base = f"{layer}.{f}"
                if f == "iter_maps":
                    wrapper = self._wrap_gen(orig, layer, _iter_maps_name)
                elif f in GENERATORS:
                    wrapper = self._wrap_gen(orig, layer, lambda a, k, n=base: n)
                elif f in FAMILIES:
                    wrapper = self._wrap_call(orig, layer, base, self._count_sets)
                elif f == "canonical_form":
                    wrapper = self._wrap_call(orig, layer, base, self._keep_class)
                else:
                    wrapper = self._wrap_call(orig, layer, base)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Counts and self times per traced function, every name present.

        Spans of one thread nest, so the direct children of a span are
        disjoint and the time they cover is the sum of their durations.
        """
        n = len(self._start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += self._end[i] - self._start[i]
        self_s: Counter[str] = Counter()
        for i in range(n):
            self_s[self._names[self._name[i]]] += self._end[i] - self._start[i] - covered[i]
        out: dict[str, float] = {}
        for span, f in _span_names():
            out[f"{span}.calls"] = self.calls[span]
            if f in GENERATORS:
                out[f"{span}.yields"] = self.yields[span]
            if f in FAMILIES:
                out[f"{span}.sets"] = self.sets[span]
            out[f"{span}.self_s"] = self_s[span]
        for layer in TRACED:
            out[f"{layer}.failed"] = self.failed[layer]
        calls = self.calls["morphisms.canonical_form"]
        out["morphisms.canonical_form.new_class_ratio"] = (
            len(self.canonical_keys) / calls if calls else 0.0)
        out["morphisms.budget_exceeded"] = self.budget_exceeded
        return out


def _iter_maps_name(args, kwargs) -> str:
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "isotone")
    return f"morphisms.iter_maps.{kind}"
