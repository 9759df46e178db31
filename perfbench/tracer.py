"""Span and counter tracing of bam's layers, installed from outside the library.

Each ``bam`` module is a layer: driver, problem, bregman, prox, blockvec,
diagnostics and cli. ``instrument`` replaces the public functions of each
layer with wrappers, but only for the duration of a ``with`` block, by
setting module attributes that the library looks up at call time. Problem
oracles are dataclass fields, so ``Tracer.wrap_problem`` rebuilds a problem
whose oracles are wrapped, and generator factories return generators whose
value and gradient are wrapped the same way.

Every wrapper opens a span (name, start, end, parent span id) and counts the
call. Spans stay in memory, one buffer per thread, until the benchmark
writes them out. Inside ``prox.inner_exact_min`` the inner iterations would
make millions of spans, so below that span only counts and summed self times
are kept.

Self time is computed as spans close: a span's duration minus the durations
of its children. Spans that a worker thread opens with an empty stack (the
``bam compare`` pool) are attached to the span the main thread was in. Those
threads share the interpreter lock, so the wall time covered by their union
is split among them in proportion to their durations. With that rule the
self times of all spans under a timed root add up to the root's duration.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import functools
import itertools
import os
import threading
import time
from array import array

perf_counter = time.perf_counter

# Spans below these are counted and timed but not stored.
SUPPRESS_BELOW = frozenset({"prox.inner_exact_min"})


class _ThreadState:
    __slots__ = ("stack", "counts", "selfs", "incl", "suppress", "spans")

    def __init__(self):
        self.stack = []
        self.counts = {}
        self.selfs = None
        self.incl = {}
        self.suppress = 0
        # span id, parent id, name index, start, end
        self.spans = (array("q"), array("q"), array("H"), array("d"), array("d"))


class Tracer:
    """Records spans and counts for one traced pass of a workload."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._name_ix: dict[str, int] = {}
        self.names: list[str] = []
        # the main thread's self times and counts, split by the kind of root
        self.timed_selfs: dict[str, float] = {}
        self.other_selfs: dict[str, float] = {}
        self.timed_counts: dict = {}
        self.other_counts: dict = {}
        self.timed_roots: list[tuple[float, float]] = []  # (start, duration)
        self.pools: list[tuple[float, float]] = []  # (union wall s, summed span s)
        self.pool_run_cpu: list[float] = []
        self.results: list = []
        self._detached: dict[int, list] = {}
        self._main = self._state()
        self._main.counts = self.other_counts

    # ------------------------------------------------------------------ core

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    def _name(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            with self._lock:
                ix = self._name_ix.setdefault(name, len(self.names))
                if ix == len(self.names):
                    self.names.append(name)
        return ix

    def enter(self, name: str) -> list:
        st = self._state()
        st.counts[name] = st.counts.get(name, 0) + 1
        sid = next(self._ids)
        stack = st.stack
        pooled = False
        prev_selfs = None
        if stack:
            parent = stack[-1][0]
        elif st is self._main:
            if st.selfs is None:
                raise RuntimeError(f"span {name!r} opened outside a root span")
            parent = 0
        else:
            main_stack = self._main.stack
            if not main_stack:
                raise RuntimeError(f"span {name!r} opened on a worker outside a root span")
            # a pool worker: attach to the span the main thread waits in, and
            # collect this subtree's self times apart until that span closes
            parent = main_stack[-1][0]
            pooled = True
            prev_selfs = st.selfs
            st.selfs = {}
        frame = [sid, parent, name, 0.0, st, pooled, prev_selfs, 0.0]
        stack.append(frame)
        if name in SUPPRESS_BELOW:
            st.suppress += 1
        frame[7] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        t1 = perf_counter()
        sid, parent, name, child, st, pooled, prev_selfs, t0 = frame
        stack = st.stack
        stack.pop()
        if self._detached and sid in self._detached:
            child += self._merge_pool(sid, st.selfs)
        dur = t1 - t0
        selfs = st.selfs
        selfs[name] = selfs.get(name, 0.0) + dur - child
        st.incl[name] = st.incl.get(name, 0.0) + dur
        if name in SUPPRESS_BELOW:
            st.suppress -= 1
        if not st.suppress:
            ids, parents, names, t0s, t1s = st.spans
            ids.append(sid)
            parents.append(parent)
            names.append(self._name(name))
            t0s.append(t0)
            t1s.append(t1)
        if stack:
            stack[-1][3] += dur
        elif pooled:
            with self._lock:
                self._detached.setdefault(parent, []).append((t0, t1, selfs))
            st.selfs = prev_selfs
        return dur

    def _merge_pool(self, sid: int, into: dict) -> float:
        """Fold the worker subtrees attached to span ``sid`` into ``into``."""
        with self._lock:
            parts = self._detached.pop(sid)
        parts.sort(key=lambda p: p[0])
        union = 0.0
        end = -float("inf")
        for t0, t1, _ in parts:
            if t0 > end:
                union += t1 - t0
                end = t1
            elif t1 > end:
                union += t1 - end
                end = t1
        summed = sum(t1 - t0 for t0, t1, _ in parts)
        scale = union / summed if summed > 0 else 0.0
        for _, _, selfs in parts:
            for k, v in selfs.items():
                into[k] = into.get(k, 0.0) + v * scale
        self.pools.append((union, summed))
        return union

    @contextlib.contextmanager
    def root(self, name: str, timed: bool):
        """A root span on the main thread; timed roots make up traced run_s."""
        st = self._state()
        if st is not self._main or st.stack:
            raise RuntimeError("root spans open on the main thread with an empty stack")
        st.selfs = self.timed_selfs if timed else self.other_selfs
        st.counts = self.timed_counts if timed else self.other_counts
        frame = self.enter(name)
        try:
            yield
        finally:
            dur = self.exit(frame)
            if timed:
                self.timed_roots.append((frame[7], dur))
            st.selfs = None

    def add(self, key: str, n) -> None:
        st = self._state()
        st.counts[key] = st.counts.get(key, 0) + n

    def count(self, key: str) -> int:
        """Current count of ``key`` on the calling thread (for local deltas)."""
        return self._state().counts.get(key, 0)

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    # ------------------------------------------------------------ summaries

    def counts(self, timed_only: bool = False) -> dict:
        """Counts of all roots, or of the timed roots only (pool workers run
        only inside timed roots)."""
        parts = [self.timed_counts] + ([] if timed_only else [self.other_counts])
        parts += [st.counts for st in self._states if st is not self._main]
        out: dict = {}
        for part in parts:
            for k, v in part.items():
                out[k] = out.get(k, 0) + v
        return out

    def inclusive(self) -> dict:
        out: dict = {}
        for st in self._states:
            for k, v in st.incl.items():
                out[k] = out.get(k, 0.0) + v
        return out

    def open_spans(self) -> int:
        return sum(len(st.stack) for st in self._states) + len(self._detached)

    def span_count(self) -> int:
        return sum(len(st.spans[0]) for st in self._states)

    def span_arrays(self):
        """All stored spans as numpy arrays sorted by span id."""
        import numpy as np

        cols = [np.concatenate([np.asarray(st.spans[c]) for st in self._states])
                for c in range(5)]
        order = np.argsort(cols[0], kind="stable")
        return {k: c[order] for k, c in zip(("id", "parent", "name", "start", "end"), cols)}

    # ------------------------------------------------------- instrumentation

    def wrap_generator(self, gen):
        return dataclasses.replace(
            gen,
            value=self.wrap("bregman.gen_value", gen.value),
            gradient=self.wrap("bregman.gen_grad", gen.gradient),
        )

    def wrap_problem(self, p):
        """A copy of ``p`` whose coupling and block-term oracles are traced."""
        from bam.problem import BlockTerm, CouplingOracle

        h_flops, g_flops, e_flops = matvec_flop_model(p)
        c = p.coupling
        add = self.add
        partial_grad = self.wrap("problem.partial_grad", c.partial_grad)

        def grad(x, i):
            add("problem.matvec_flops", g_flops[i])
            return partial_grad(x, i)

        def opt(name, fn):
            return None if fn is None else self.wrap(name, fn)

        terms = tuple(
            BlockTerm(
                value=self.wrap("problem.term_value", t.value),
                prox=opt("problem.prox", t.prox),
                exact_coupled_min=None if t.exact_coupled_min is None else _with_flops(
                    add, e_flops, self.wrap("problem.exact_min", t.exact_coupled_min)),
                subdiff_certificate=opt("problem.subdiff_certificate", t.subdiff_certificate),
            )
            for t in p.terms
        )
        coupling = CouplingOracle(
            value=_with_flops(add, h_flops, self.wrap("problem.h_value", c.value)),
            partial_grad=grad,
            partial_lipschitz=self.wrap("problem.partial_lipschitz", c.partial_lipschitz),
        )
        return dataclasses.replace(p, coupling=coupling, terms=terms)


def _with_flops(add, flops, fn):
    def counted(*args):
        add("problem.matvec_flops", flops)
        return fn(*args)

    return counted


def matvec_flop_model(p):
    """Dense-kernel flops per oracle call, computed from the instance sizes.

    Returns (H value, partial gradient per block, exact block minimizer).
    sparse_group counts 2*m*n per product with A or A^T; multiblock_quadratic
    counts the n x n elementwise pass of H and the length-n dot products.
    """
    if p.name == "sparse_group":
        m, n = p.metadata["A"].shape
        mv = 2 * m * n
        return mv, (2 * mv, mv), mv
    if p.name == "multiblock_quadratic":
        n = p.n_blocks
        return 4 * n * n, (3 * n,) * n, 2 * n
    return 0, (0,) * p.n_blocks, 0


class _TracedFile:
    """Context manager around a file the cli opens; the span covers the ``with`` body."""

    def __init__(self, tracer, frame, fh, path, writing):
        self._tracer, self._frame, self._fh = tracer, frame, fh
        self._path, self._writing = path, writing

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._tracer.exit(self._frame)
            if self._writing:
                self._tracer.add("cli.bytes_written", os.path.getsize(self._path))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every layer of bam for the duration of the block."""
    import bam.blockvec as blockvec
    import bam.cli as cli
    import bam.diagnostics as diagnostics
    import bam.driver as driver
    import bam.problem as problem

    saved = []
    missing = object()

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__.get(attr, missing)))
        setattr(owner, attr, new)

    wrap, add = tracer.wrap, tracer.add
    enter, exit_ = tracer.enter, tracer.exit

    # driver --------------------------------------------------------------
    orig_run = driver.run

    @functools.wraps(orig_run)
    def run(*args, **kwargs):
        frame = enter("driver.run")
        pooled = frame[5]  # a root span on a pool worker thread
        c0 = time.thread_time()
        try:
            res = orig_run(*args, **kwargs)
        finally:
            cpu = time.thread_time() - c0
            exit_(frame)
        if pooled:
            with tracer._lock:
                tracer.pool_run_cpu.append(cpu)
        tracer.results.append(res)
        return res

    for mod in (driver, cli):
        patch(mod, "run", run)
        patch(mod, "validate_strategies", wrap("driver.validate_strategies", driver.validate_strategies))
    patch(driver, "step_block", wrap("driver.step_block", driver.step_block))
    patch(driver, "phi_value", wrap("problem.phi_value", driver.phi_value))

    # bregman -------------------------------------------------------------
    patch(driver, "bregman_distance", wrap("bregman.distance", driver.bregman_distance))
    for mod in (driver, cli):
        for factory in ("make_zero_generator", "make_augmented_generator",
                        "make_linearization_generator"):
            patch(mod, factory, _traced_factory(tracer, getattr(mod, factory)))
    patch(cli, "check_generator_convexity",
          wrap("bregman.check_convexity", cli.check_generator_convexity))

    # prox ----------------------------------------------------------------
    orig_inner = driver.inner_exact_min

    @functools.wraps(orig_inner)
    def inner_exact_min(smooth_value, smooth_grad, *args, **kwargs):
        def counted_grad(u):
            add("prox.inner_iters", 1)
            return smooth_grad(u)

        frame = enter("prox.inner_exact_min")
        try:
            u, flag = orig_inner(smooth_value, counted_grad, *args, **kwargs)
        finally:
            exit_(frame)
        if flag == "converged":
            add("prox.inner_converged", 1)
        return u, flag

    patch(driver, "inner_exact_min", inner_exact_min)
    for mod in (problem, cli):
        patch(mod, "soft_threshold", wrap("prox.soft_threshold", mod.soft_threshold))
    patch(problem, "group_shrink", wrap("prox.group_shrink", problem.group_shrink))
    patch(cli, "group_soft_threshold", wrap("prox.group_soft_threshold", cli.group_soft_threshold))

    # problem builders ----------------------------------------------------
    for mod in (problem, cli):
        for builder in ("build_sparse_group_instance", "build_multiblock_quadratic",
                        "build_separable_quadratic", "build_separable_quadratic_badgrad"):
            patch(mod, builder, wrap("problem.build", getattr(mod, builder)))

    # blockvec ------------------------------------------------------------
    BV = blockvec.BlockVector
    orig_init, orig_with, orig_flat = BV.__init__, BV.with_block, BV.to_flat

    def bv_init(self, blocks):
        frame = enter("blockvec.init")
        try:
            orig_init(self, blocks)
        finally:
            exit_(frame)
        add("blockvec.copy_bytes", 8 * self.total_dim)

    def with_block(self, i, arr):
        add("blockvec.copy_bytes", 8 * self.block(i).size)
        frame = enter("blockvec.with_block")
        try:
            return orig_with(self, i, arr)
        finally:
            exit_(frame)

    def to_flat(self):
        add("blockvec.copy_bytes", 8 * self.total_dim)
        frame = enter("blockvec.to_flat")
        try:
            return orig_flat(self)
        finally:
            exit_(frame)

    patch(BV, "__init__", bv_init)
    patch(BV, "with_block", with_block)
    patch(BV, "to_flat", to_flat)

    # diagnostics ---------------------------------------------------------
    orig_residual = diagnostics.subgradient_residual

    @functools.wraps(orig_residual)
    def subgradient_residual(*args, **kwargs):
        g0 = tracer.count("problem.partial_grad")
        frame = enter("diagnostics.subgradient_residual")
        try:
            return orig_residual(*args, **kwargs)
        finally:
            exit_(frame)
            add("diagnostics.residual_grad_calls", tracer.count("problem.partial_grad") - g0)

    patch(diagnostics, "subgradient_residual", subgradient_residual)
    patch(diagnostics, "critical_point_certificate",
          wrap("diagnostics.certificate", diagnostics.critical_point_certificate))
    for fn in CHECK_FUNCTIONS:
        patch(diagnostics, fn, wrap(f"diagnostics.{fn}", getattr(diagnostics, fn)))

    # cli -----------------------------------------------------------------
    orig_build = cli.build_problem

    @functools.wraps(orig_build)
    def build_problem(*args, **kwargs):
        frame = enter("cli.build_problem")
        try:
            p = orig_build(*args, **kwargs)
        finally:
            exit_(frame)
        frame = enter("bench.instrument")
        try:
            return tracer.wrap_problem(p)
        finally:
            exit_(frame)

    patch(cli, "build_problem", build_problem)
    for fn in ("main", "load_config", "run_checks", "write_trace_csv", "_trace_csv_text",
               "_write_report"):
        patch(cli, fn, wrap("cli." + fn.lstrip("_"), getattr(cli, fn)))

    def traced_open(path, mode="r", *args, **kwargs):
        writing = any(c in mode for c in "wax+")
        frame = enter("cli.file_write" if writing else "cli.file_read")
        try:
            fh = builtins.open(path, mode, *args, **kwargs)
        except BaseException:
            exit_(frame)
            raise
        return _TracedFile(tracer, frame, fh, path, writing)

    patch(cli, "open", traced_open)

    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            if old is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


CHECK_FUNCTIONS = (
    "check_monotone_descent",
    "check_sufficient_decrease",
    "check_residual_bound",
    "check_residual_vanishes",
    "gradcheck",
    "finite_length_monitor",
)


def _traced_factory(tracer, factory):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        frame = tracer.enter("bregman.make_generator")
        try:
            return tracer.wrap_generator(factory(*args, **kwargs))
        finally:
            tracer.exit(frame)

    return make
