"""Span recorder for the traced run, wrapping envlab's public functions from
outside the library.

A span is (name, start, end, parent span, job id, raised).  Spans are kept
in flat arrays in memory and written once, at the end of the run.  Self
time is a span's duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import envlab.charlattice
import envlab.cli
import envlab.fieldcore
import envlab.gf
import envlab.mackey
import envlab.nori
import envlab.pipeline
import envlab.smallrep
import envlab.tame

_gf, _fc = envlab.gf, envlab.fieldcore

# (span name, owner, attribute): owner is a class for methods, else the
# defining module.  Module-level functions are rebound in every envlab
# module that imported them by name.
TRACED = [
    ("gf.matmul", _gf.GF, "matmul"),
    ("gf.mul", _gf.GF, "mul"),
    ("gf.rref", _gf.GF, "rref"),
    ("fieldcore.closure", _fc.FinMatGroup, "closure"),
    ("fieldcore.Mat.new", _fc.Mat, "__init__"),
    ("fieldcore.meataxe_split", _fc, "meataxe_split"),
    ("fieldcore.intertwiners", _fc, "intertwiners"),
    ("nori.nori_points", envlab.nori, "nori_points"),
    ("nori.order_ell_elements", envlab.nori, "order_ell_elements"),
    ("nori.is_unipotent", envlab.nori, "is_unipotent"),
    ("nori.lie_rank_estimate", envlab.nori, "lie_rank_estimate"),
    ("pipeline.envelope_report", envlab.pipeline, "envelope_report"),
    ("pipeline.derived_subgroup", envlab.pipeline, "derived_subgroup"),
    ("mackey.all_subgroups", envlab.mackey, "all_subgroups"),
    ("mackey.subgroup_datum", envlab.mackey, "subgroup_datum"),
    ("mackey.induce", envlab.mackey, "induce"),
    ("mackey.irreducible_modules", envlab.mackey, "irreducible_modules"),
    ("mackey.mackey_irreducible", envlab.mackey, "mackey_irreducible"),
    ("mackey.clifford_decompose", envlab.mackey, "clifford_decompose"),
    ("mackey.module_value", envlab.mackey, "module_value"),
    ("smallrep.table_a", envlab.smallrep, "table_a"),
    ("smallrep.weight_multiplicities", envlab.smallrep.SimpleFactor,
     "weight_multiplicities"),
    ("charlattice.fc_normalize", envlab.charlattice, "fc_normalize"),
    ("charlattice.fc_equivalent", envlab.charlattice, "fc_equivalent"),
    ("charlattice.has_affine_triple", envlab.charlattice, "has_affine_triple"),
    ("tame.tame_weights_of_rep", envlab.tame, "tame_weights_of_rep"),
    ("cli.run", envlab.cli, "run"),
]
NAMES = [name for name, _, _ in TRACED]
JOB = "job"  # the root span of one job


class Recorder:
    def __init__(self):
        self.names = NAMES + [JOB]
        self.name = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]
        self.job_id = -1
        # closure calls that had to enumerate, and the elements they found
        self.cold_calls = 0
        self.cold_elements = 0

    def open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, raised):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        if raised:
            self.raised[i] = 1

    def run_job(self, job_id, fn):
        """Run fn() under a root span; spans opened inside share job_id."""
        self.job_id = job_id
        try:
            return self.wrap(len(NAMES), fn)()
        finally:
            self.job_id = -1

    def wrap(self, name_id, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i, True)
                raise
            self.close(i, False)
            return out
        return traced

    def wrap_closure(self, name_id, fn):
        """As wrap, also counting the calls that enumerate (no cached
        element list yet) and the elements they find."""
        inner = self.wrap(name_id, fn)

        @functools.wraps(fn)
        def closure(group, *args, **kwargs):
            if group._elements is not None:
                return inner(group, *args, **kwargs)
            out = inner(group, *args, **kwargs)
            self.cold_calls += 1
            self.cold_elements += len(out)
            return out
        return closure


class Installed:
    """Context manager: replace every traced function by its wrapper and
    put the originals back on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.undo = []

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        rec = self.recorder
        modules = [m for n, m in sys.modules.items()
                   if n == "envlab" or n.startswith("envlab.")]
        for name_id, (name, owner, attr) in enumerate(TRACED):
            original = getattr(owner, attr)
            if name == "fieldcore.closure":
                wrapped = rec.wrap_closure(name_id, original)
            else:
                wrapped = rec.wrap(name_id, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        return rec

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False


def summarize(rec):
    """Per traced name: calls, errors and self seconds; plus the total
    seconds of job root spans and the closure counters."""
    import numpy as np

    name = np.frombuffer(rec.name, dtype=np.uint16).astype(np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    dur = np.frombuffer(rec.end, dtype=np.float64) - np.frombuffer(rec.start, dtype=np.float64)
    raised = np.frombuffer(rec.raised, dtype=np.int8).astype(np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    k = len(rec.names)
    self_s = np.bincount(name, weights=dur - child, minlength=k)
    calls = np.bincount(name, minlength=k)
    errors = np.bincount(name, weights=raised, minlength=k)
    out = {n: {"calls": int(calls[i]), "errors": int(errors[i]),
               "self_s": float(self_s[i])} for i, n in enumerate(NAMES)}
    job_total = float(dur[name == len(NAMES)].sum())
    return out, job_total


def save(rec, path):
    """Write the spans once, as numpy arrays, with the name table."""
    import numpy as np

    np.savez(path, names=np.array(rec.names),
             name=np.frombuffer(rec.name, dtype=np.uint16),
             parent=np.frombuffer(rec.parent, dtype=np.int32),
             job=np.frombuffer(rec.job, dtype=np.int32),
             start=np.frombuffer(rec.start, dtype=np.float64),
             end=np.frombuffer(rec.end, dtype=np.float64),
             raised=np.frombuffer(rec.raised, dtype=np.int8))
