"""Timing of calls into the ceralab package, installed from outside it.

One mechanism serves two levels:

* ``probe`` wraps the few calls the end-to-end metrics need: the end of
  every training step (one timestamp per step), every run and report, and
  the spectral functions. It adds about a microsecond per training step,
  and keeps one float per step: the step times of a finished run are folded
  into an array, not kept as spans, so memory does not grow with the run.
* ``trace`` also wraps every public function of the nine modules, a few
  class methods and every tensor op, times each recorded tape node's
  backward closure, and counts the gradient products of ``linear`` and
  ``matmul`` backward.

A wrapper replaces a function wherever it is looked up: every module-level
name and module-level dict value in the ``ceralab`` package that refers to
it. Wrappers only time and count; what the program computes is unchanged.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("tensor", "adapters", "model", "trainer", "spectral", "tasks",
           "experiments", "plotting", "cli")
# (defining module, function) pairs the end-to-end metrics need
PROBES = (("experiments", "run_from_config"),
          ("trainer", "train_adapter"), ("trainer", "adamw_step"),
          ("spectral", "activation_spectrum"), ("spectral", "svd_values"),
          ("spectral", "effective_rank"), ("spectral", "auc90"))
METHODS = (("adapters", "Adapter", "delta_rows"),
           ("experiments", "RunStore", "save_record"),
           ("experiments", "RunStore", "load_record"),
           ("experiments", "RunStore", "all_records"))
# a span with one of these names starts a new run id for the spans under it
RUN_ROOTS = ("experiments.run_from_config",)
SWEEPS = ("experiments.cmd_sweep", "experiments.cmd_ablate")
GEMM_OPS = ("linear", "matmul")


def public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class Instrument:
    """Aggregated call statistics, spans and captured values of one session.

    `stats[name]` is [calls, busy seconds, self seconds]; self time is the
    busy time minus the time of the wrapped calls made inside it. Spans are
    (id, name, start, end, parent id, run id), kept per phase in memory.
    Tensor ops are aggregated only, except `tensor.backward`; at the probe
    level `adamw_step` is too. Step times go to `steps` when their run ends.
    """

    def __init__(self, level: str):
        if level not in ("probe", "trace"):
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: dict[str, list] = defaultdict(list)
        self.phase = "setup"
        self.svds: list = []        # (analysed matrix, singular values), until checked
        self.backbones: list = []   # backbones handed to train_adapter, until checked
        self.trained: list = []     # (train seconds, trained tokens) of every run
        self.steps = array("d")     # seconds per training step, all runs
        self.phases: list = []      # (forward, backward, optimizer) s, traced steps
        self._ends: list = []       # adamw_step returns of the open run
        self._bwds: list = []       # (start, end) of its backward calls
        self._stack: list = []      # open frames: [span id, child seconds, name]
        self._next_id = 1
        self._run = 0
        self._gemm = None           # (op, FLOPs per product) inside a GEMM backward
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def install(self, mods: dict) -> None:
        """Wrap the functions of `mods` (module name -> ceralab module)."""
        if self.level == "probe":
            targets = list(PROBES)
        else:
            targets = [(m, f) for m in MODULES for f in public_functions(mods[m])]
        wrappers = {}
        for modname, fname in targets:
            fn = getattr(mods[modname], fname)
            wrappers[id(fn)] = self._make(modname, fname, fn)
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "ceralab" or name.startswith("ceralab.")]
        for ns in namespaces:
            for key, val in list(ns.items()):
                if key.startswith("__"):
                    continue
                if id(val) in wrappers:
                    self._set(ns, key, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if id(v2) in wrappers:
                            self._set(val, k2, wrappers[id(v2)])
        if self.level == "trace":
            for modname, cls_name, meth in METHODS:
                cls = getattr(mods[modname], cls_name)
                wrapped = self._wrap(f"{modname}.{cls_name}.{meth}", vars(cls)[meth],
                                     after=self._after(modname, f"{cls_name}.{meth}"))
                self._patches.append((cls, meth, vars(cls)[meth], True))
                setattr(cls, meth, wrapped)
            tensor_ns = vars(mods["tensor"])
            self._set(tensor_ns, "_accum", self._accum(tensor_ns["_accum"]))

    def uninstall(self) -> None:
        for owner, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    def _set(self, mapping: dict, key, wrapper) -> None:
        self._patches.append((mapping, key, mapping[key], False))
        mapping[key] = wrapper

    def _make(self, modname: str, fname: str, fn):
        name = f"{modname}.{fname}"
        tensor_op = fname if modname == "tensor" and self.level == "trace" else None
        span = (modname != "tensor" or fname == "backward") and not (
            self.level == "probe" and fname == "adamw_step")
        return self._wrap(name, fn, span=span, tensor_op=tensor_op,
                          after=self._after(modname, fname),
                          on_exit=self._on_exit(modname, fname))

    def _after(self, modname: str, fname: str):
        """The capture hook of one function, if it has one."""
        if (modname, fname) == ("spectral", "svd_values"):
            return lambda args, kwargs, out: self.svds.append(
                (args[0], out[1] if isinstance(out, tuple) else out))
        if (modname, fname) == ("trainer", "train_adapter"):
            return lambda args, kwargs, out: self.backbones.append(args[0])
        if (modname, fname) == ("experiments", "run_from_config"):
            return lambda args, kwargs, out: self.trained.append(
                (out[0]["wallclock_seconds"],
                 out[0]["tokens_per_second"] * out[0]["wallclock_seconds"]))
        if (modname, fname) == ("tensor", "linear"):
            return self._linear_flops
        if (modname, fname) == ("experiments", "RunStore.load_record"):
            return self._cache_hit
        return None

    def _on_exit(self, modname: str, fname: str):
        """The step-timing hook of one function, given (start, end)."""
        if (modname, fname) == ("trainer", "adamw_step"):
            return lambda t0, t1: self._ends.append(t1)
        if (modname, fname) == ("tensor", "backward"):
            return lambda t0, t1: self._bwds.append((t0, t1))
        if (modname, fname) == ("trainer", "train_adapter"):
            return lambda t0, t1: self._fold_steps()
        return None

    def _fold_steps(self) -> None:
        """Turn the step ends of the run that just ended into step times,
        and split them into phases where backward was traced.

        A step ends when `adamw_step` returns, so a run of n steps gives n-1
        step times; the first step also holds the optimizer set-up.
        """
        ends, bwds = self._ends, self._bwds
        self.steps.extend(b - a for a, b in zip(ends, ends[1:]))
        if bwds and len(bwds) == len(ends):
            self.phases.extend((bwds[i][0] - ends[i - 1], bwds[i][1] - bwds[i][0],
                                ends[i] - bwds[i][1]) for i in range(1, len(ends)))
        ends.clear()
        bwds.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool = True, tensor_op: str | None = None,
              after=None, on_exit=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        root = name in RUN_ROOTS

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            outer_run = self._run
            if root:
                self._run = sid
            frame = [sid, 0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if span:
                    self.spans[self.phase].append(
                        (sid, name, t0, t1, parent, self._run))
                if on_exit is not None:
                    on_exit(t0, t1)
                self._run = outer_run
            if after is not None:
                after(args, kwargs, out)
            if tensor_op is not None and getattr(out, "_backward", None) is not None:
                self._wrap_backward(out, tensor_op)
            return out

        return wrapper

    def _wrap_backward(self, node, op: str) -> None:
        """Time one tape node's backward closure under `tensor.<op>.bwd`."""
        inner = node._backward
        if getattr(inner, "bench_op", None):
            return  # already wrapped by the op that built the node
        stats = self.stats[f"tensor.{op}.bwd"]
        stack = self._stack
        clock = time.perf_counter
        gemm = None
        if op in GEMM_OPS:
            a, b = node._parents
            n, k = a.shape
            gemm = (op, 2 * n * k * (b.shape[0] if op == "linear" else b.shape[1]))

        def bwd(g):
            frame = [0, 0.0, op]
            stack.append(frame)
            self._gemm = gemm
            t0 = clock()
            try:
                inner(g)
            finally:
                t1 = clock()
                self._gemm = None
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                self.counts["tensor.backward.nodes"] += 1

        bwd.bench_op = op
        node._backward = bwd

    def _accum(self, inner):
        """Count the gradient products a GEMM backward hands to `_accum`."""
        def accum(t, g):
            if self._gemm is not None:
                op, flops = self._gemm
                self.counts["tensor.grad_products.attempted"] += 1
                self.counts["tensor.grad_products.useful"] += t.requires_grad
                if op == "linear":
                    self.counts["tensor.linear.flops"] += flops
            return inner(t, g)
        return accum

    def _linear_flops(self, args, kwargs, out) -> None:
        x = args[0]
        k = getattr(x, "data", x).shape[-1]
        self.counts["tensor.linear.flops"] += 2 * out.data.size * k

    def _cache_hit(self, args, kwargs, out) -> None:
        if out is not None and any(f[2] in SWEEPS for f in self._stack):
            self.counts["experiments.cache_hits"] += 1

    # -- derived figures ----------------------------------------------------

    def durations(self, names, phase: str) -> list[float]:
        return [t1 - t0 for _, name, t0, t1, _, _ in self.spans[phase]
                if name in names]

    def spectral_seconds(self, phase: str) -> float:
        """Time in outermost spectral calls (SVD, ER, AUC-90) of one phase."""
        spans = self.spans[phase]
        names = {s[0]: s[1] for s in spans}
        return sum(t1 - t0 for _, name, t0, t1, parent, _ in spans
                   if name.startswith("spectral.")
                   and not names.get(parent, "").startswith("spectral."))
