"""Layer spans for the traced benchmark run.

The library under ``src/`` carries no instrumentation, so the traced run
wraps calls into each layer's public functions from the benchmark's side,
the way ``benchmarks/bench_sim_step.PhaseProbe`` does.  Spans nest: a
span's *self* time is its duration minus the time of the spans it
encloses.  The self times of all spans plus the time spent outside any
span therefore add up to the run's wall time, so nothing is counted
twice and whatever no span covers shows up as ``trace.other_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, List, Optional, Tuple

_MISSING = object()

#: Per-call hook: ``(args, kwargs, result)``; used for work counters.
Hook = Callable[[tuple, dict, Any], None]


class LayerTracer:
    """Accumulates self time and call counts per layer name."""

    def __init__(self) -> None:
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.total_s: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        #: Work counters that hooks add to (``Hook`` callbacks).
        self.counters: DefaultDict[str, float] = defaultdict(float)
        # One accumulator per open span: the time its children took.
        self._stack: List[float] = []
        self._restores: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        target: Any,
        attr: str,
        layer: str,
        hook: Optional[Hook] = None,
    ) -> None:
        """Time every call of ``target.attr`` as a span of ``layer``.

        ``target`` may be a module, a class (every instance, including
        ones created later, is traced) or a single instance.
        """
        original = getattr(target, attr)
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                self_s[layer] += elapsed - children
                total_s[layer] += elapsed
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        own = vars(target).get(attr, _MISSING)
        self._restores.append((target, attr, own))
        setattr(target, attr, traced)

    def detach(self) -> None:
        """Undo every wrap, newest first."""
        for target, attr, own in reversed(self._restores):
            if own is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, own)
        self._restores = []

    @property
    def attributed_s(self) -> float:
        """Sum of all layers' self times."""
        return sum(self.self_s.values())
