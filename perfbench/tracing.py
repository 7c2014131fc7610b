"""In-memory spans around calls into the library, recorded from outside it.

:class:`Tracer` keeps every span as ``[name, start, end, parent, instance,
error]`` and writes them once, at the end.  :func:`patched` swaps a public
library function for a timing wrapper in every ``mixedqt`` module namespace
that binds it, so calls the library makes internally (``orient_deg3`` calling
``decide_qt``, ``witness_to_assignment`` calling ``build_reduction``) nest
under their caller's span.  Nothing under ``src/`` changes; the originals are
restored on exit.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.instance: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.instance, None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str | None,
             on_result: Callable[[object], None] | None = None) -> Callable:
        """``fn`` inside a span called ``name`` (no span when None); the
        result is handed to ``on_result`` when given."""
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def self_times(self, first: int, stop: int) -> tuple[dict[str, float], Counter[str]]:
        """Self time and call count per span name over ``spans[first:stop]``.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inst, _err in self.spans[first:stop]:
            if parent >= first:
                child[parent] += end - start
        total: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for i in range(first, stop):
            name, start, end = self.spans[i][:3]
            total[name] = total.get(name, 0.0) + (end - start) - child[i]
            calls[name] += 1
        return total, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, inst, err) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst,
                                     "error": err}) + "\n")


@contextmanager
def patched(tracer: Tracer,
            targets: list[tuple[Callable, str | None, Callable | None]]) -> Iterator[None]:
    """Replace each target function by a traced wrapper in all mixedqt modules."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "mixedqt" or n.startswith("mixedqt."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for fn, name, on_result in targets:
            wrapper = tracer.wrap(fn, name, on_result)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)
