"""Outside tracer: spans recorded around the package's public functions.

Nothing inside the package changes. `Tracer.install` replaces each traced
function in every namespace that binds it (a name imported with
``from .functional import a_hessian`` is a second binding of the same
object), so calls from inside the package are seen too. Each call becomes
one span: name, parent span, start, end, the type of the exception it
raised, and a small value taken from its arguments or result (a matrix
order, an iteration count). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    error: str | None = None
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_order(args, kwargs, out):
    return int(args[0].shape[0])


def _target_table():
    """(owner, attribute, span name, info extractor) for every traced call."""
    import scipy.linalg

    from gapbumps import cli, functional, multibump, operator, presets, reduction, solver, torus

    return [
        (operator, "diagonalize", "operator.diagonalize",
         lambda a, k, out: out.eigenfields.nbytes),
        (operator, "midgap_shift", "operator.midgap_shift", None),
        (operator.SpectralDecomposition, "a_from_values", "operator.transform", None),
        (operator.SpectralDecomposition, "values_from_a", "operator.transform", None),
        (functional, "a_value_and_gradient", "functional.a_value_and_gradient", None),
        (functional, "a_gradient", "functional.a_gradient", None),
        (functional, "a_hessian", "functional.a_hessian", None),
        (functional, "a_hessvec", "functional.a_hessvec", None),
        (scipy.linalg, "eigh", "linalg.eigh", _matrix_order),
        (scipy.linalg, "eigvalsh", "linalg.eigvalsh", _matrix_order),
        (scipy.linalg, "solve", "linalg.solve", _matrix_order),
        (solver, "find_critical_point", "solver.find_critical_point",
         lambda a, k, out: out.iterations),
        (solver, "deflated_search", "solver.deflated_search",
         lambda a, k, out: (k.get("tries", a[1] if len(a) > 1 else 0), len(out))),
        (solver, "orbit_distance", "solver.orbit_distance", None),
        (reduction, "detect_kernel", "reduction.detect_kernel", None),
        (reduction, "solve_w", "reduction.solve_w", lambda a, k, out: out.newton_iters),
        (multibump, "build_problem", "multibump.build_problem", None),
        (multibump, "solve_multibump", "multibump.solve_multibump",
         lambda a, k, out: (out.phase2_iters, out.polish_iters)),
        (torus, "translate", "torus.translate", None),
        (cli, "main", "cli.main", None),
        (presets, "default_potential", "presets.default_potential", None),
        (presets, "degenerate_problem", "presets.degenerate_problem", None),
    ]


class Tracer:
    """Span recorder; install() wraps, uninstall() restores every binding."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    def install(self, extra: tuple = ()) -> None:
        """Wrap every traced function in the package's modules and in `extra`."""
        namespaces = [*extra, *(
            m for n, m in sys.modules.items()
            if m is not None and (n == "gapbumps" or n.startswith("gapbumps."))
        )]
        for owner, attr, name, info in _target_table():
            original = getattr(owner, attr)
            traced = self._wrap(original, name, info)
            for ns in [owner, *namespaces]:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)
                        self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def roots(self) -> list[int]:
        """For each span, the index of the root span it descends from."""
        root: list[int] = []
        for i, s in enumerate(self.spans):
            root.append(i if s.parent < 0 else root[s.parent])
        return root
