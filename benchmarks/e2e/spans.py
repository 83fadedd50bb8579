"""The benchmark's own span recorder.

``--trace`` wraps each layer's callables (class attributes and module
functions are swapped for timing wrappers and restored afterwards; nothing
under ``src/`` is edited) and records one span per call: name, layer, start,
end, the span that caused it and an op id shared by every span of one
repetition (``*_io``) or one request (``serve_*``).  A layer's self time is
its spans' duration minus the part their child spans cover; the sums are kept
online, so a run may record millions of calls while only the first few ops
are kept as individual spans for the Chrome-trace artefact.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

#: Layer name of the root span the harness opens around each timed op.  Its
#: self time is whatever ran outside every wrapped call.
ROOT_LAYER = "bench"

#: Op id of spans that belong to no request (the root of a serving run, the
#: load generator, the repair task).
BACKGROUND = -1


class _TaskProxy:
    """Stands in for a coroutine handed to ``SimLoop.create_task``.

    ``SimTask`` drives a coroutine through ``send`` / ``throw`` / ``close``;
    the proxy forwards those and, on every resumption, tells the recorder
    which request the synchronous calls that follow belong to.
    """

    def __init__(self, recorder: "SpanRecorder", coro, op: int, keep: bool):
        self.recorder = recorder
        self.coro = coro
        self.op = op
        self.keep = keep
        self.__name__ = getattr(coro, "__name__", "task")

    def _enter(self) -> None:
        rec = self.recorder
        rec.op_id = self.op
        rec._keep = self.keep
        rec._task = self

    def send(self, value):
        self._enter()
        return self.coro.send(value)

    def throw(self, exc):
        self._enter()
        return self.coro.throw(exc)

    def close(self) -> None:
        self.coro.close()


#: The Chrome-trace artefact keeps the spans of the first op of each (kind,
#: label) and, within a kept serving run, of the requests numbered below 200;
#: every other call is only summed.
KEEP_OPS = 1
KEEP_REQUESTS = 200


class SpanRecorder:
    """Stack-based span recorder with online per-layer self-time sums."""

    def __init__(self):
        #: Kept spans: (id, parent id, op id, layer, name, start, end).
        self.spans: list[tuple[int, int, int, str, str, float, float]] = []
        #: (layer, op kind) -> self seconds, over every call made inside an op.
        self.self_s: dict[tuple[str, str], float] = {}
        #: op kind -> wall seconds / number of root spans.
        self.op_wall: dict[str, float] = {}
        self.op_count: dict[str, int] = {}
        #: Wrap targets the code did not have (see :meth:`install`).
        self.missing: list[str] = []
        self.op_id = BACKGROUND
        self.op_kind = ""
        self._keep = False
        self._root_keep = False
        self._task: _TaskProxy | None = None
        self._stack: list[list] = []
        self._next_span = 0
        self._next_op = 0
        self._seen: dict[tuple[str, str], int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    @property
    def calls(self) -> int:
        """Spans recorded so far (kept or only summed)."""
        return self._next_span

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer: str, name: str, fn):
        rec = self
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not stack:  # outside any timed op (set-up, verification): not measured
                return fn(*args, **kwargs)
            sid = rec._next_span
            rec._next_span = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                key = (layer, rec.op_kind)
                self_s[key] = self_s.get(key, 0.0) + dur - frame[1]
                parent[1] += dur
                if rec._keep:
                    spans.append((sid, parent[0], rec.op_id, layer, name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        """Swap ``(owner, attribute, layer)`` targets for timing wrappers.

        A target the code no longer has (renamed or removed by a later
        refactor) is skipped and listed in :attr:`missing`; so is anything
        that is not a plain synchronous function.
        """
        for owner, attr, layer in targets:
            if owner is None:  # the class or module itself is gone; attr carries its dotted name
                self.missing.append(attr)
                continue
            owner_name = getattr(owner, "__name__", str(owner))
            label = f"{owner_name.rsplit('.', 1)[-1]}.{attr}"
            fn = vars(owner).get(attr)
            if fn is None or not inspect.isfunction(fn) or inspect.iscoroutinefunction(fn):
                self.missing.append(label)
                continue
            setattr(owner, attr, self._wrap(layer, label, fn))
            self._patched.append((owner, attr, fn))

    def install_task_tagging(self, loop_cls) -> None:
        """Make every task started on a ``SimLoop`` carry its creator's op id."""
        original = vars(loop_cls)["create_task"]
        rec = self

        def create_task(loop, coro, name=""):
            return original(loop, _TaskProxy(rec, coro, rec.op_id, rec._keep), name=name)

        loop_cls.create_task = create_task
        self._patched.append((loop_cls, "create_task", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # ----------------------------------------------------------------- ops

    @contextmanager
    def op(self, kind: str, label: str, per_request: bool = False):
        """Root span around one timed operation; yields a dict that receives ``seconds``.

        With ``per_request`` the root is a whole serving run: it belongs to
        no request, and client coroutines name theirs via :meth:`begin_request`.
        """
        seen = self._seen.get((kind, label), 0)
        self._seen[(kind, label)] = seen + 1
        self._root_keep = seen < KEEP_OPS
        self.op_kind = kind
        if per_request:
            self.op_id = BACKGROUND
            self._keep = False
        else:
            self.op_id = self._next_op
            self._next_op += 1
            self._keep = self._root_keep
        root_op = self.op_id
        sid = self._next_span
        self._next_span = sid + 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        out: dict = {}
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            out["seconds"] = dur
            key = (ROOT_LAYER, kind)
            self.self_s[key] = self.self_s.get(key, 0.0) + dur - frame[1]
            self.op_wall[kind] = self.op_wall.get(kind, 0.0) + dur
            self.op_count[kind] = self.op_count.get(kind, 0) + 1
            if self._root_keep:
                self.spans.append((sid, -1, root_op, ROOT_LAYER, f"{kind}:{label}", t0, t1))
            self._keep = False
            self._task = None

    def begin_request(self, request: int) -> None:
        """A client coroutine starts request number ``request`` (or a background job, ``< 0``)."""
        keep = self._root_keep and 0 <= request < KEEP_REQUESTS
        self.op_id = request
        self._keep = keep
        if self._task is not None:
            self._task.op = request
            self._task.keep = keep

    # ------------------------------------------------------------- results

    def layer_self_s(self, layer: str, kind: str) -> float:
        return self.self_s.get((layer, kind), 0.0)

    def conservation_error(self, kind: str) -> float:
        """|sum of self times - wall| / wall over every op of one kind."""
        wall = self.op_wall.get(kind, 0.0)
        if wall <= 0.0:
            return 0.0
        total = sum(v for (_, k), v in self.self_s.items() if k == kind)
        return abs(total - wall) / wall

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome-trace complete events (Perfetto / chrome://tracing)."""
        events = []
        for sid, parent, op, layer, name, t0, t1 in sorted(self.spans, key=lambda s: s[5]):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - self._origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": parent, "op": op, "layer": layer, "start_s": t0, "end_s": t1},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
