"""In-memory span recorder that wraps spectraproj's public functions from outside.

A span is one call of a wrapped function: its name, start, end, parent span
and the id of the benchmark operation it ran under.  Spans are appended to
flat arrays while an operation runs and turned into per-layer metrics (and a
``.npz`` dump) when the run ends.

``from x import y`` copies a binding into the importing module, so a function
is replaced in every ``spectraproj`` module that holds it, not only where it
is defined (``cli.newton_solve``, ``facialred.eig_sym``, ...).  NumPy and SciPy
decompositions are wrapped on their own modules and form the ``linalg`` layer.
Wrappers are installed only for the duration of a traced operation, so
untraced operations run the unmodified code.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterator

import numpy as np

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _newton_hook(tr: "Tracer", args: tuple, kwargs: dict, trace: Any) -> None:
    inst = args[0] if args else kwargs["inst"]
    iterates = len(trace.iterates)
    m, n = inst.m, inst.n
    tr.count("ssnewton.iterations", iterates)
    tr.count(f"ssnewton.status.{trace.status.value}", 1)
    # dense Newton-matrix assembly: G = U'A_iU for all i, then the weighted Gram
    tr.count("ssnewton.gflop_computed", iterates * (4 * m * n**3 + 2 * m * m * n * n) / 1e9)
    tr.count("ssnewton.bytes_computed", iterates * 8 * m * n * n)


def _aux_hook(tr: "Tracer", args: tuple, kwargs: dict, cert: Any) -> None:
    tr.count("facialred.solve_aux_gauss_newton.found", int(cert is not None))


def _preprocess_hook(tr: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("model.preprocess_surjective.rows_removed", len(result[2]))


def _matrices_hook(tr: "Tracer", args: tuple, kwargs: dict, mats: Any) -> None:
    tr.count("model.LinearMap.matrices.bytes_computed", mats.nbytes)


# (span name, module, attribute path, result hook)
LIBRARY_TARGETS: list[tuple[str, str, str, Hook | None]] = [
    ("symcore.eig_sym", "spectraproj.symcore", "eig_sym", None),
    ("symcore.smat", "spectraproj.symcore", "smat", None),
    ("symcore.project_psd", "spectraproj.symcore", "project_psd", None),
    ("model.LinearMap.matrices", "spectraproj.model", "LinearMap.matrices", _matrices_hook),
    ("model.LinearMap.matrix", "spectraproj.model", "LinearMap.matrix", None),
    ("model.LinearMap.adjoint", "spectraproj.model", "LinearMap.adjoint", None),
    ("model.LinearMap.apply", "spectraproj.model", "LinearMap.apply", None),
    ("model.preprocess_surjective", "spectraproj.model", "preprocess_surjective", _preprocess_hook),
    ("model.load_instance", "spectraproj.model", "load_instance", None),
    ("model.dumps_json", "spectraproj.model", "dumps_json", None),
    ("model.kkt_residuals", "spectraproj.model", "kkt_residuals", None),
    ("ssnewton.newton_solve", "spectraproj.ssnewton", "newton_solve", _newton_hook),
    ("ssnewton.jacobian_spectrum", "spectraproj.ssnewton", "jacobian_spectrum", None),
    ("ssnewton.trace_to_csv", "spectraproj.ssnewton", "trace_to_csv", None),
    ("facialred.solve_aux_gauss_newton", "spectraproj.facialred", "solve_aux_gauss_newton", _aux_hook),
    ("facialred.certificate_from_stall", "spectraproj.facialred", "certificate_from_stall", None),
    ("facialred.fr_step", "spectraproj.facialred", "fr_step", None),
    ("facialred.fr_loop", "spectraproj.facialred", "fr_loop", None),
    ("degeneracy.is_nondegenerate", "spectraproj.degeneracy", "is_nondegenerate", None),
    ("cli.main", "spectraproj.cli", "main", None),
]

LINALG_TARGETS: list[tuple[str, str, str]] = [
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.svdvals", "scipy.linalg", "svdvals"),
    ("linalg.qr", "numpy.linalg", "qr"),
    ("linalg.qr", "scipy.linalg", "qr"),
    ("linalg.lstsq", "numpy.linalg", "lstsq"),
    ("linalg.cho_factor", "scipy.linalg", "cho_factor"),
    ("linalg.cho_solve", "scipy.linalg", "cho_solve"),
]


def _resolve(module: str, path: str) -> tuple[Any, str, Any] | None:
    """(owner object, attribute name, current value), or None if the name is gone."""
    owner: Any = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records spans and counters for traced operations of one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self.failed = array("b")
        self._stack: list[int] = []
        self._op = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._plan()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, value: float) -> None:
        self.counters[self._op][key] += value

    def _wrap(self, span: str, fn: Callable, hook: Hook | None) -> Callable:
        nid = self._name_id(span)
        perf = time.perf_counter
        start, end, parent, name, op, failed = (
            self.start, self.end, self.parent, self.name, self.op, self.failed)
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer._op)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _plan(self) -> None:
        """Work out every (owner, attribute) binding to replace, once."""
        targets = LIBRARY_TARGETS + [(s, mod, path, None) for s, mod, path in LINALG_TARGETS]
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "spectraproj" or k.startswith("spectraproj."))]
        for span, mod, path, hook in targets:
            found = _resolve(mod, path)
            if found is None:
                if span not in self.missing:
                    self.missing.append(span)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(span, fn, hook)
            self._patches.append((owner, attr, fn, wrapper))
            # copies made by ``from x import y`` in other package modules
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is fn and (module, key) != (owner, attr):
                        self._patches.append((module, key, fn, wrapper))

    @contextlib.contextmanager
    def recording(self, op_id: int) -> Iterator[None]:
        """Install the wrappers, record spans under ``op_id``, then restore."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = op_id
        try:
            yield
        finally:
            self._op = -1
            for owner, attr, fn, _ in reversed(self._patches):
                setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32).astype(np.int64),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Spans come from one thread and nest strictly, so the children of a span
    are disjoint intervals inside it and the time they cover is the sum of
    their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered
