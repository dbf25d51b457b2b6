"""Spans recorded around comag's public functions, from outside the package.

Only the traced run uses this module.  ``Tracer.patched`` replaces each
function named in a probe list with a wrapper on the module where its
caller looks it up (``comag.simulation.batch_combined`` is the name the
harness loops call, ``comag.cli.write_csv`` the one the commands call),
and puts the originals back on exit, so untraced rounds run unwrapped code.

A span holds a name, its start and end (``time.perf_counter``), the index
of its parent span and the counts its probe read from the call.  Spans
stay in memory until ``dump`` writes them out.  A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


@dataclass(frozen=True)
class Probe:
    """One function to wrap: where it is looked up and what to count.

    ``count`` maps (args, kwargs, result) to a dict of counts added to the
    span, e.g. the rows a ``batch_combined`` call fused.
    """

    module: str
    attr: str
    span: str
    count: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, probe: Probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(probe.span, time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.end - span.start
            if probe.count is not None:
                span.counts = probe.count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, probes: list[Probe]):
        """Wrap every probed function for the duration of the block."""
        saved = []
        try:
            for probe in probes:
                module = importlib.import_module(probe.module)
                original = getattr(module, probe.attr)
                saved.append((module, probe.attr, original))
                setattr(module, probe.attr, self._wrap(original, probe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time and summed counts."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans[first:]:
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += span.self_s
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "self_s": span.self_s,
                            **span.counts,
                        }
                    )
                    + "\n"
                )


_IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown(stderr_text: str) -> dict[str, float]:
    """Seconds for the outermost import and for scipy, from ``-X importtime``.

    ``comag_s`` is the cumulative time of the outermost module imported
    (the ``import`` statement the command ran).  ``scipy_s`` sums the
    cumulative time of every scipy module whose importer is not itself a
    scipy module, i.e. what comag pays for pulling scipy in.
    """
    entries = []
    for line in stderr_text.splitlines():
        m = _IMPORTTIME_LINE.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            entries.append((depth, int(m.group(2)) * 1e-6, m.group(4)))
    # importtime prints children before their parent, one indent deeper.
    pending: list[tuple[int, tuple]] = []
    for depth, cumulative, name in entries:
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        pending.append((depth, (cumulative, name, children)))
    roots = [node for _, node in pending]

    def scipy_outer(node):
        cumulative, name, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative
        return sum(scipy_outer(c) for c in children)

    if not roots:
        raise ValueError("no importtime lines in the output")
    return {
        "comag_s": roots[-1][0],
        "scipy_s": sum(scipy_outer(r) for r in roots),
    }
