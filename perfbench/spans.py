"""In-memory spans around fixlat's layer boundaries, installed from outside.

Every boundary is a wrapper the benchmark puts around a function or
method of the package; the package itself is not changed. Functions are
replaced in every fixlat module that binds them (``from x import f``
creates a second binding), methods are replaced on their class. A span
records its name, start, end, parent span and job; self time is the
span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli.job"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        # per-job scratch: groups created, distinct closures on cache misses
        self.groups: list = []
        self.miss_results: set = set()

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    # -- per-job bookkeeping ---------------------------------------------------

    def begin_job(self, job_id: int) -> int:
        self.job_id = job_id
        self.groups = []
        self.miss_results = set()
        return self.open(self.name_id(ROOT))

    def end_job(self, idx: int) -> None:
        self.close(idx)
        c = self.counters
        for g in self.groups:
            c["group.stab_cache_entries"] += len(g._stab_gens_cache)
            c["closure.cache_entries"] += len(g._closure_cache)
        c["closure.distinct_misses"] += len(self.miss_results)
        self.groups = []
        self.miss_results = set()

    # -- results ------------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        return start, end, name, parent, job

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name."""
        start, end, name, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                       "self_s": float(self_t[sel].sum())}
        return out

    def save(self, path: str) -> None:
        start, end, name, parent, job = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name,
                            parent=parent, job=job,
                            names=np.array(self.names, dtype=object).astype(str))


# -- installing the wrappers ------------------------------------------------------


def _spanned(tr: Tracer, name: str, fn, after=None):
    nid = tr.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _fixlat_modules():
    return [m for k, m in sys.modules.items()
            if (k == "fixlat" or k.startswith("fixlat.")) and m is not None]


class Installation:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, orig, new) -> None:
        """Rebind every module-level name that refers to ``orig``."""
        found = False
        for mod in _fixlat_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {orig!r} found")

    def replace_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def install(tr: Tracer) -> Installation:
    """Wrap every named layer boundary; returns the handle that undoes it."""
    from fixlat import _chain, _kernels, cli, closure, geometry, group, lattice
    from fixlat import relational, serialize, steiner

    inst = Installation()
    c = tr.counters

    def fn(name, module, attr, after=None):
        orig = getattr(module, attr)
        inst.replace_everywhere(orig, _spanned(tr, name, orig, after))

    def method(name, cls, attr, after=None):
        inst.replace_attr(cls, attr, _spanned(tr, name, cls.__dict__[attr], after))

    # _chain
    method("chain.build", _chain.StabilizerChain, "__init__")
    method("chain.contains", _chain.StabilizerChain, "contains")
    fn("chain.sims_filter", _chain, "sims_filter")

    # group
    orig_group_init = group.PermutationGroup.__dict__["__init__"]

    @functools.wraps(orig_group_init)
    def group_init(self, *args, **kwargs):
        orig_group_init(self, *args, **kwargs)
        tr.groups.append(self)

    inst.replace_attr(group.PermutationGroup, "__init__", group_init)
    method("group.pointwise_stabilizer", group.PermutationGroup,
           "pointwise_stabilizer")

    # closure
    orig_closure = closure.closure_mask
    nid_closure = tr.name_id("closure.closure_mask")

    @functools.wraps(orig_closure)
    def closure_mask(G, mask):
        hit = mask in G._closure_cache
        idx = tr.open(nid_closure)
        try:
            result = orig_closure(G, mask)
        finally:
            tr.close(idx)
        if hit:
            c["closure.cache_hits"] += 1
        else:
            tr.miss_results.add((id(G), result))
            c["closure.cache_misses"] += 1
        return result

    inst.replace_everywhere(orig_closure, closure_mask)
    fn("closure.enumerate", closure, "enumerate_fixset_lattice")
    method("closure.covers", closure.FixsetLattice, "covers")

    # geometry
    fn("geometry.span_closure", geometry, "span_closure")
    fn("geometry.subspace_lattice", geometry, "subspace_lattice")

    # lattice
    def count_tables(result, args, kwargs):
        c["lattice.tables_n2"] += args[0].size ** 2

    method("lattice.tables", lattice.FiniteLattice, "__init__", count_tables)
    fn("lattice.order_violations", lattice, "order_violations")
    from_covers = lattice.FiniteLattice.__dict__["from_covers"].__func__
    inst.replace_attr(lattice.FiniteLattice, "from_covers", classmethod(
        _spanned(tr, "lattice.from_covers", from_covers)))
    fn("lattice.raw_from_obj", serialize, "raw_lattice_from_obj")

    def count_listed(result, args, kwargs):
        c["lattice.automorphisms_listed"] += len(result)

    def count_gens(result, args, kwargs):
        c["lattice.aut_generators"] += len(result.generators)

    fn("lattice.aut_backtrack", lattice, "_atomistic_automorphisms", count_listed)
    fn("lattice.aut_backtrack", lattice, "_general_automorphisms", count_listed)
    fn("lattice.automorphisms", lattice, "lattice_automorphisms", count_gens)
    fn("lattice.separation", lattice, "stabilizer_separation")
    fn("lattice.reconstruct", lattice, "reconstruct")

    # relational
    def count_rows(result, args, kwargs):
        c["relational.completion_rows"] += sum(p.shape[0] for p, _ in result)

    fn("relational.structure", relational, "canonical_structure")
    method("relational.tables", relational.RelationalStructure, "_build_tables",
           count_rows)
    fn("relational.dcl", relational, "relational_dcl")
    fn("relational.report", relational, "dcl_vs_fixset_report")

    # _kernels
    def count_codes(result, args, kwargs):
        c["kernels.tuple_codes"] += args[0].shape[1] ** args[1]

    def count_gather(result, args, kwargs):
        rows, width = args[0].shape
        c["kernels.gather_rows"] += rows
        c["kernels.gather_bytes"] += rows * width * 8

    fn("kernels.tuple_orbit_labels", _kernels, "tuple_orbit_labels", count_codes)
    fn("kernels.gather", _kernels, "gather_candidates", count_gather)

    # steiner
    fn("steiner.isomorphism", steiner, "steiner_isomorphism")

    # serialize and cli
    def count_bytes(result, args, kwargs):
        out = args[0].out
        if out and os.path.exists(out):
            c["serialize.output_bytes"] += os.path.getsize(out)

    fn("serialize.parse", cli, "_load_json")
    fn("serialize.parse", serialize, "group_from_obj")
    fn("serialize.parse", serialize, "steiner_from_obj")
    fn("serialize.emit", cli, "_emit", count_bytes)
    fn("serialize.dot", serialize, "covers_to_dot")
    return inst


# Each boundary and the workload on which it must fire at least once.
EXPECTED_BOUNDARIES = {
    "chain.build": "fixlattice",
    "chain.contains": "reconstruct",
    "chain.sims_filter": "reconstruct",
    "group.pointwise_stabilizer": "reconstruct",
    "closure.closure_mask": "fixlattice",
    "closure.enumerate": "fixlattice",
    "closure.covers": "fixlattice",
    "geometry.span_closure": "reconstruct",
    "geometry.subspace_lattice": "reconstruct",
    "lattice.tables": "reconstruct",
    "lattice.order_violations": "reconstruct",
    "lattice.raw_from_obj": "reconstruct",
    "lattice.aut_backtrack": "reconstruct",
    "lattice.automorphisms": "reconstruct",
    "lattice.separation": "reconstruct",
    "lattice.reconstruct": "reconstruct",
    "relational.structure": "dclcheck",
    "relational.tables": "dclcheck",
    "relational.dcl": "dclcheck",
    "relational.report": "dclcheck",
    "kernels.tuple_orbit_labels": "dclcheck",
    "kernels.gather": "dclcheck",
    "steiner.isomorphism": "reconstruct",
    "serialize.parse": "fixlattice",
    "serialize.emit": "fixlattice",
    "serialize.dot": "fixlattice",
}
