"""Span tracer for the traced benchmark run.

It wraps detvol's public functions from outside the package, at the names
their callers resolve at call time (``verify.spanning_tree_count``, not
``multigraph.spanning_tree_count``, because ``verify`` imported that name).
Nothing inside the package is changed, and ``uninstall`` puts every original
back.

A sweep opens about 40 spans per spec, so spans are folded into per-name
totals as they close instead of being kept: calls and inclusive seconds count
only the outermost span of a name (``families.det`` wraps both ``det`` and the
``pretzel_det`` it calls), self seconds are the span minus its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from detvol import diagram, families, hypvol, multigraph, verify


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.bipyramid_sizes: set[int] = set()
        self.covered_s = 0.0  # time inside outermost spans
        self._stack: list[list] = []  # [name, start, child seconds, oracle seen]
        self._open: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Zero the totals; the wrappers keep the same containers."""
        for d in (self.calls, self.incl_s, self.self_s, self.counters, self.bipyramid_sizes):
            d.clear()
        self.covered_s = 0.0

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        fn = getattr(owner, attr)
        stack, open_, calls, incl_s, self_s = (
            self._stack, self._open, self.calls, self.incl_s, self.self_s
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            frame = [name, 0.0, 0.0, False]
            stack.append(frame)
            open_[name] += 1
            frame[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                open_[name] -= 1
                self_s[name] += dur - frame[2]
                if not open_[name]:
                    calls[name] += 1
                    incl_s[name] += dur
                if stack:
                    stack[-1][2] += dur
                else:
                    self.covered_s += dur

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        w = self.wrap
        w(families, "det", "families.det")
        w(families, "pretzel_det", "families.det")
        w(families, "to_diagram", "families.to_diagram")
        for f in ("braid_closure_pd", "plat_closure_pd", "medial_pd"):
            w(diagram, f, "diagram.pd_build")
        w(diagram, "analyze", "diagram.analyze")
        w(diagram.PDCode, "face_orbits", "diagram.face_orbits")
        w(diagram.PDCode, "partner", "diagram.partner")
        w(verify, "spanning_tree_count", "multigraph.spanning_tree_count", _oracle_hook)
        w(multigraph, "bareiss_det", "kernels.bareiss_det", _ops_hook)
        w(hypvol, "bipyramid_volume", "hypvol.bipyramid_volume", _size_hook)
        for f in ("adams_bound_exact", "adams_bound_log", "lackenby_bound", "montesinos_bound"):
            w(verify, f, "hypvol.bounds")
        for f in ("twobridge_vol_upper", "v_function"):  # the family-specific bounds
            w(families, f, "hypvol.bounds")
        w(verify, "check", "verify.check")
        w(verify, "sweep", "verify.sweep")
        w(verify, "enumerate_pretzels", "verify.enumerate_pretzels")
        w(verify, "reports_to_csv", "verify.serialize")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def _oracle_hook(tracer: Tracer, args) -> None:
    # a check that runs the matrix-tree oracle is one oracle check, however
    # many graphs it counts; the enumeration reports its own count
    parent = tracer._stack[-1] if tracer._stack else None
    if parent is not None and parent[0] == "verify.check" and not parent[3]:
        parent[3] = True
        tracer.counters["oracle_checks"] += 1


def _ops_hook(tracer: Tracer, args) -> None:
    tracer.counters["bareiss_n_cubed"] += len(args[0]) ** 3


def _size_hook(tracer: Tracer, args) -> None:
    tracer.bipyramid_sizes.add(args[0])
