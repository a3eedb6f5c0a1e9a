"""Outside-in span tracer.

The tracer replaces attributes of already imported modules (functions, or
methods of classes) with wrappers that record a span around each call and
optional counters observed on the call's arguments and result.  The
program under test is never edited: ``uninstall`` puts back every original
object, so the module dictionaries end up identical to what they were.

A span is (id, parent id, layer name, request id, start, end).  Spans of
one request share the id of the request's root span, the outermost span
open at the time.  Counters are kept per root layer name, so work done
while building a simulation stays apart from work done in its steps.
Count-only hooks, which can fire tens of thousands of times per step, bump
a bare integer cell; a root span's close adds what each cell gained while
it was open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    request: int
    start: float
    end: float = 0.0


Observer = Callable[[Callable[[str, float], None], dict, Any], None]


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap.

    ``target`` is ``"package.module:name"`` or ``"package.module:Class.name"``.
    With ``layer`` set the wrapper records a span under that name.
    ``observe(count, arguments, result)`` receives the call's bound
    arguments, defaults applied, and adds counters through ``count``.  A
    hook with neither only counts its calls, under ``calls``.
    """

    target: str
    layer: str | None = None
    calls: str | None = None
    observe: Observer | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Overlapping children are merged first, so covered time is never counted
    twice, and children are clipped to their parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out[span.id] = (span.end - span.start) - covered
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def summarise(spans: list[Span], scale: float = 1.0) -> dict[str, dict[str, LayerTotals]]:
    """Per root layer, per layer: call count, self seconds, total seconds,
    the seconds multiplied by ``scale``."""
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    out: dict[str, dict[str, LayerTotals]] = {}
    for span in spans:
        root = by_id[span.request].layer
        totals = out.setdefault(root, {}).setdefault(span.layer, LayerTotals())
        totals.calls += 1
        totals.self_s += scale * selfs[span.id]
        totals.total_s += scale * (span.end - span.start)
    return out


def _resolve(target: str):
    """(owner, attribute name, raw object) or None when the hook is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    if not inspect.isfunction(raw):
        return None
    return owner, name, raw


class Tracer:
    def __init__(self, hooks: list[Hook], clock: Callable[[], float] = time.perf_counter):
        self.hooks = list(hooks)
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._cells: dict[str, list[int]] = {}
        self._marks: dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def _open(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._marks = {name: cell[0] for name, cell in self._cells.items()}
        span_id = len(self.spans)
        span = Span(
            span_id,
            parent.id if parent else None,
            layer,
            parent.request if parent else span_id,
            self.clock(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if not self._stack:
            for name, cell in self._cells.items():
                gained = cell[0] - self._marks.get(name, 0)
                if gained:
                    self.count(name, gained, root=span.layer)

    def count(self, name: str, amount: float = 1, root: str | None = None) -> None:
        """Add to a counter of the request in progress ("" outside any)."""
        if root is None:
            root = self._stack[0].layer if self._stack else ""
        bucket = self.counters.setdefault(root, {})
        bucket[name] = bucket.get(name, 0) + amount

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, hook: Hook):
        tracer = self
        layer, observe = hook.layer, hook.observe
        if layer is None and observe is None:
            cell = self._cells.setdefault(hook.calls, [0])

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counting

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer) if layer else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    tracer._close(span)
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.count, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hook that still exists; list the others as absent."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        try:
            for hook in self.hooks:
                found = _resolve(hook.target)
                if found is None:
                    self.absent.append(hook.target)
                    continue
                owner, name, raw = found
                setattr(owner, name, self._wrap(raw, hook))
                self._patches.append((owner, name, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
