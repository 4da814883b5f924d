"""In-memory span tracer that wraps ``stcg``'s public functions from outside.

Spans are recorded at the import sites the library itself calls through
(``stcg.model.contraction_coefficient`` is what ``assemble`` calls, for
example), so no file of the library changes.  Each span keeps its parent's
id and the request it belongs to; self times are derived from the spans
after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

_clock = time.perf_counter

# span record fields
ID, PARENT, NAME, START, END, REQUEST, FAILED, INFO = range(8)


class Tracer:
    """Records nested spans while enabled; a disabled tracer records
    nothing and its wrappers pass straight through."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.request = None
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._muted = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        record = [
            len(self.spans),
            self._stack[-1][ID] if self._stack else None,
            name,
            _clock(),
            None,
            self.request,
            False,
            None,
        ]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record):
        record[END] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, record_inner: bool = True):
        """Benchmark-side span; with ``record_inner=False`` the library calls
        made inside it are not recorded, so a correctness check does not
        count as work of the layers it uses."""
        if not self.enabled or self._muted:
            yield
            return
        record = self._open(name)
        if not record_inner:
            self._muted += 1
        try:
            yield
        except BaseException:
            record[FAILED] = True
            raise
        finally:
            if not record_inner:
                self._muted -= 1
            self._close(record)

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``after(args, kwargs, result)`` may return a dict
        stored with the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._muted:
                return original(*args, **kwargs)
            record = tracer._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                tracer._close(record)
            if after is not None:
                record[INFO] = after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines: id, parent, name, start and end in
        seconds from the first span, request index, failed flag, info."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s[ID],
                            "parent": s[PARENT],
                            "name": s[NAME],
                            "start": s[START] - origin,
                            "end": s[END] - origin,
                            "request": s[REQUEST],
                            "failed": s[FAILED],
                            "info": s[INFO],
                        }
                    )
                    + "\n"
                )


class SpanStats:
    """Busy and self times per span name, derived from the span list.

    ``busy`` sums the spans of a name that have no ancestor of the same name,
    so recursion is not counted twice; ``self`` is a span's duration minus
    the durations of its direct children.
    """

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        self.children: dict[int, list] = {}
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
                self.children.setdefault(s[PARENT], []).append(s)
        self.calls: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for s in spans:
            name = s[NAME]
            dur = s[END] - s[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.failed[name] = self.failed.get(name, 0) + int(s[FAILED])
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + dur - child_time[s[ID]]
            )
            if not self._has_ancestor(s, name):
                self.busy[name] = self.busy.get(name, 0.0) + dur

    def _has_ancestor(self, span, name):
        parent = span[PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def with_children(self, name) -> int:
        """Spans of ``name`` that have at least one child span."""
        return sum(
            1 for s in self.spans if s[NAME] == name and s[ID] in self.children
        )

    def layer_self(self, layer) -> float:
        prefix = layer + "."
        return sum(
            t for name, t in self.self_time.items() if name.startswith(prefix)
        )

    def info(self, name):
        return [s[INFO] for s in self.spans if s[NAME] == name and s[INFO]]
