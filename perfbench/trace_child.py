"""Run one ``ppx`` command in this interpreter with spans around its layers.

    python3 perfbench/trace_child.py <fd> <command-id> <ppx argv...>

Imports ``ppx`` from ``src/`` next to this directory, wraps the public entry
points of the ring, series, expansion, matrix, sequence, report and cli
layers from outside (``src/ppx`` is not edited), calls
``ppx.cli.main(argv)`` and exits with its return code.  Standard output is
exactly what ``python -m ppx <argv>`` prints.

At exit one JSON object is written to file descriptor ``fd``:

- ``layers``: per span name, ``calls``, ``incl_s`` (outermost instances
  only, so recursion is not counted twice), ``self_s`` (duration minus the
  time covered by child spans), ``ops`` (a size computed from the operands
  at the boundary) and ``units`` (results equal to 1, for ``poly_gcd``);
- ``caches``: ``functools.cache`` hits and misses per sequence module;
- ``spans``: name, start, end, parent index and command id of the coarse
  spans (``cli.main`` and the layers above the ring kernels).  Kernel calls
  number in the millions, so they are kept as the aggregates above only.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ppx.cli  # noqa: E402  (imports every ppx module)
from ppx import pascal, products, qsequences, report, rings, sequences, series  # noqa: E402

COARSE = {"cli.main", "report.render", "products.expand", "products.contract",
          "series.log", "pascal.factor"}


class Tracer:
    def __init__(self, command_id: int):
        self.command_id = command_id
        self.t0 = time.perf_counter()
        self.stack = []      # one [child_time] cell per open span
        self.coarse = []     # indices into self.spans of open coarse spans
        self.active = {}     # name -> open instances, for incl_s
        self.layers = {}     # name -> [calls, incl_s, self_s, ops, units]
        self.spans = []

    def wrap(self, name, fn, ops=None, is_unit=None):
        stack, coarse, active, clock = self.stack, self.coarse, self.active, time.perf_counter
        stats = self.layers.setdefault(name, [0, 0.0, 0.0, 0, 0])
        keep = name in COARSE
        active[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            active[name] += 1
            if keep:
                coarse.append(len(self.spans))
                self.spans.append([name, 0.0, 0.0, coarse[-2] if len(coarse) > 1 else None,
                                   self.command_id])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[2] += elapsed - cell[0]
                if not active[name]:
                    stats[1] += elapsed
                if keep:
                    span = self.spans[coarse.pop()]
                    span[1], span[2] = start - self.t0, start - self.t0 + elapsed
            if ops is not None:
                stats[3] += ops(*args)
            if is_unit is not None and is_unit(result):
                stats[4] += 1
            return result

        return wrapper


def _modules():
    return [m for n, m in sys.modules.items() if n == "ppx" or n.startswith("ppx.")]


def _patch_function(tracer, module, attr, name, **hooks):
    """Wrap ``module.attr`` and rebind every ppx name bound to the original,
    including names other modules imported with ``from ... import``."""
    original = getattr(module, attr)
    wrapper = tracer.wrap(name, original, **hooks)
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer, cls, attr, name, **hooks):
    """Wrap ``cls.attr`` and every alias of it in the class body (such as
    ``__rmul__ = __mul__``)."""
    original = vars(cls)[attr]
    wrapper = tracer.wrap(name, original, **hooks)
    for key, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, key, wrapper)


def _poly_len(x):
    return len(x.coeffs) if isinstance(x, rings.IntPoly) else 1


def install(tracer: Tracer) -> None:
    def coef_ops(a, b):
        return _poly_len(a) * _poly_len(b)

    def entry_ops(a, b):
        return a.n ** 3

    def rendered_checks(*args):
        first = args[0]
        return len(first.checks) if isinstance(first, report.Report) else sum(
            len(r.checks) for r in first)

    is_one = rings.P_ONE.__eq__
    _patch_function(tracer, rings, "poly_gcd", "rings.poly_gcd", is_unit=is_one)
    for attr in ("__init__", "__add__", "__mul__"):
        _patch_method(tracer, rings.RatFunc, attr, "rings.ratfunc")
    _patch_method(tracer, rings.IntPoly, "__mul__", "rings.intpoly_mul", ops=coef_ops)
    _patch_method(tracer, rings.IntPoly, "divexact", "rings.intpoly_divexact")
    _patch_method(tracer, rings.QuotientRing, "reduce", "rings.quotient_reduce")
    _patch_function(tracer, qsequences, "qbinom", "qsequences.qbinom")
    _patch_method(tracer, series.TruncatedSeries, "__mul__", "series.mul")
    _patch_method(tracer, series.TruncatedSeries, "log", "series.log")
    _patch_function(tracer, products, "expand", "products.expand")
    _patch_function(tracer, products, "contract", "products.contract")
    _patch_method(tracer, pascal.SquareMatrix, "__mul__", "pascal.matmul", ops=entry_ops)
    for attr in ("factor_pascal", "factor_pascal_m", "factor_q_pascal"):
        _patch_function(tracer, pascal, attr, "pascal.factor")
    _patch_method(tracer, report.Report, "render_text", "report.render", ops=rendered_checks)
    _patch_function(tracer, report, "render_reports_json", "report.render",
                    ops=rendered_checks)


def cache_counts(module) -> dict:
    hits = misses = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses = hits + ci.hits, misses + ci.misses
    return {"hits": hits, "misses": misses}


def main(argv) -> int:
    fd, command_id, ppx_argv = int(argv[0]), int(argv[1]), argv[2:]
    tracer = Tracer(command_id)
    install(tracer)
    cli_main = tracer.wrap("cli.main", ppx.cli.main)
    try:
        code = cli_main(ppx_argv)
    finally:
        sys.stdout.flush()
        out = {
            "layers": tracer.layers,
            "caches": {m.__name__: cache_counts(m) for m in (sequences, qsequences)},
            "spans": tracer.spans,
        }
        with os.fdopen(fd, "w") as sink:
            json.dump(out, sink)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
