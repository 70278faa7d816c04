"""In-memory span tracer for the traced run: wrap from outside, attribute by self time.

The tracer never touches ``src/``: :meth:`Tracer.install` replaces the public
entry points listed in :mod:`benchmarks.perf.surface` with timing wrappers
*at the attribute where callers look them up*, and :meth:`Tracer.uninstall`
puts the originals back.  The harness adds its own spans around the calls it
makes into each layer with :meth:`Tracer.span`.

Every wrapped call and harness span is a *frame* on one stack (all traced
code is synchronous -- asyncio callbacks run to completion -- so frames nest
properly).  A frame's **self time** is its duration minus the durations of
its direct children, so summing self times over a layer's frames gives the
time spent in that layer's own code with every other traced layer removed.
Per iteration, frames fold into ``(calls, total_s, self_s, bytes)`` per
``(layer, name)``; entry points marked ``span=True`` (called a handful of
times per iteration) additionally leave one span record each -- ``id``,
``parent``, ``layer``, ``name``, ``iteration``, ``start``, ``end`` -- while
hot ones (kernel ops, core events, wire frames) only aggregate.  A ``leaf``
entry point keeps the wrapped calls made beneath it as its own time (a plan
build owns the kernel row operations of its elimination).  Nothing is written
until the workload ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional


class Tracer:
    """Frames, per-iteration aggregates and span records for one workload."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: iteration id -> {(layer, name): [calls, total_s, self_s, bytes]}
        self.aggregates: dict[int, dict[tuple[str, str], list]] = {}
        self._current: dict[tuple[str, str], list] = {}
        self._iteration: Optional[int] = None
        #: open frames, innermost last: [child seconds, span id or None]
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any, bool]] = []
        #: inside a ``leaf`` entry point: nested wrapped calls are its own time
        self._muted = False

    # Recording ----------------------------------------------------------------

    def _enter(self, span: bool) -> list:
        frame = [0.0, len(self.spans) if span else None]
        if span:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append({"id": frame[1], "parent": parent})
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, key: tuple[str, str], start: float, end: float, nbytes: int) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        record = self._current.get(key)
        if record is None:
            record = self._current[key] = [0, 0.0, 0.0, 0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[0]
        record[3] += nbytes
        if frame[1] is not None:
            self.spans[frame[1]].update(
                layer=key[0], name=key[1], iteration=self._iteration, start=start, end=end
            )

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A harness-side span around a call into ``layer``."""
        frame = self._enter(span=True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, (layer, name), start, perf_counter(), 0)

    @contextmanager
    def iteration(self, index: int) -> Iterator[None]:
        """The root span of one traced iteration; aggregates fold under ``index``."""
        self._iteration = index
        self._current = self.aggregates.setdefault(index, {})
        try:
            with self.span("harness", "iteration"):
                yield
        finally:
            self._iteration = None

    # Wrapping -----------------------------------------------------------------

    def _wrapper(self, func: Callable, key: tuple[str, str], span: bool, leaf: bool,
                 nbytes: Optional[Callable[[tuple], int]]) -> Callable:
        def traced(*args, **kwargs):
            if self._muted:
                return func(*args, **kwargs)
            frame = self._enter(span)
            self._muted = leaf
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self._muted = False
                self._exit(frame, key, start, perf_counter(),
                           nbytes(args) if nbytes is not None else 0)

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def install(self, surface) -> None:
        """Wrap every entry point of ``surface`` where it is looked up."""
        for entry in surface:
            owner = entry.owner() if callable(entry.owner) else _resolve(entry.owner)
            original = getattr(owner, entry.attr)
            # An inherited method is deleted again on restore, not copied down.
            self._patched.append((owner, entry.attr, original, entry.attr in vars(owner)))
            setattr(owner, entry.attr,
                    self._wrapper(original, (entry.layer, entry.name), entry.span, entry.leaf,
                                  entry.nbytes))

    def uninstall(self) -> None:
        """Restore every original attribute (idempotent)."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # Reading ------------------------------------------------------------------

    def layer_means(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total_s, self_s and bytes, averaged per traced iteration."""
        layers: dict[str, dict[str, float]] = {}
        count = max(1, len(self.aggregates))
        for records in self.aggregates.values():
            for (layer, _name), (calls, total, self_s, nbytes) in records.items():
                out = layers.setdefault(layer, dict(calls=0.0, total_s=0.0, self_s=0.0, bytes=0.0))
                out["calls"] += calls / count
                out["total_s"] += total / count
                out["self_s"] += self_s / count
                out["bytes"] += nbytes / count
        return layers

    def dump(self, path: Path, **header: Any) -> None:
        """Write spans and per-iteration aggregates as one JSON document."""
        document = dict(header)
        document["spans"] = self.spans
        document["aggregates"] = {
            str(index): {
                f"{layer}/{name}": dict(calls=calls, total_s=total, self_s=self_s, bytes=nbytes)
                for (layer, name), (calls, total, self_s, nbytes) in sorted(records.items())
            }
            for index, records in sorted(self.aggregates.items())
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def _resolve(path: str) -> Any:
    """``"package.module:Attr.Sub"`` -> the object (module when no ``:`` part)."""
    module_name, _, attrs = path.partition(":")
    target: Any = importlib.import_module(module_name)
    for attr in filter(None, attrs.split(".")):
        target = getattr(target, attr)
    return target
