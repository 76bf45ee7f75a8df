"""Span tracer for the traced benchmark run.

The tracer wraps public functions at the binding their call sites look
up (a module attribute, or a method on the polynomial class), so the
program under test is never edited.  Every wrapped call records one
span (name, start, end, parent span, op id, count) in flat in-memory
arrays; `write` dumps them when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import sys
from array import array
from time import perf_counter


def _terms(result) -> int:
    return sum(p.num_terms() for p in result.entries.values())


def _term_products(args, result) -> int:
    a, b = args[0], args[1]
    return a.num_terms() * (b.num_terms() if hasattr(b, "num_terms") else 1)


def _reduce_name(args, kwargs) -> str:
    elim = len(args) > 1 and args[1] is not None or kwargs.get("extravar") is not None
    return "conformal.reduce_mod_total.elim" if elim else "conformal.reduce_mod_total.d1"


# (module, attribute, span name, count(args, result) or None).  A module
# listed twice binds the same function under two names (a `from` import),
# and both bindings get the same span name.  A span name may instead be
# a function of the call's arguments.
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("rmatfile", "load", "rmatfile.load", None),
    ("ybe", "is_invariant", "ybe.is_invariant", None),
    ("ybe", "is_weak_solution", "ybe.is_weak_solution", None),
    ("ybe", "is_strict_solution", "ybe.is_strict_solution", None),
    ("ybe", "ccybe_bracket", "ybe.ccybe_bracket", lambda args, r: _terms(r)),
    ("ybe", "derive_projection", "ybe.derive_projection", None),
    ("ybe", "derive_weak_projection", "ybe.derive_weak_projection", None),
    ("ybe", "eval_equation", "ybe.eval_equation", None),
    ("ybe", "act_on_tensor", "conformal.act_on_tensor", None),
    ("ybe", "reduce_mod_total", _reduce_name, None),
    ("ybe", "tau", "conformal.tau", None),
    ("search", "run_search", "search.run_search",
     lambda args, r: r.consistent_candidates),
    ("search", "candidate_profile", "search.candidate_profile", None),
    ("search", "eval_equation", "ybe.eval_equation", None),
    ("search", "_post_verify", "search.post_verify", None),
    ("search", "is_weak_solution", "ybe.is_weak_solution", None),
    ("search", "is_strict_solution", "ybe.is_strict_solution", None),
    ("search", "characterize", "families.characterize", None),
    ("search", "scalar_relation_residues", "families.scalar_relation_residues", None),
    ("MPoly", "__mul__", "exactpoly.mul", _term_products),
    ("MPoly", "__rmul__", "exactpoly.mul", _term_products),
    ("MPoly", "__add__", "exactpoly.add", None),
    ("MPoly", "__radd__", "exactpoly.add", None),
    ("MPoly", "subst_many", "exactpoly.subst_many", None),
)


class Tracer:
    """Records spans while installed; `restore` puts the originals back."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.op_keys: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, key: str) -> int:
        """Open the root span of one operation; returns its op id."""
        self.op_keys.append(key)
        return self._open(self._intern("op"))

    def end_op(self, sid: int) -> None:
        self._close(sid, 0)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(len(self.op_keys) - 1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, count: int) -> None:
        self.end[sid] = perf_counter()
        self.count[sid] = count
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self
        fixed = None if callable(name) else self._intern(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._intern(name(args, kwargs))
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, 0)
                raise
            tracer._close(sid, counter(args, result) if counter else 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, mods) -> None:
        """Patch every binding in PATCHES that exists in `mods`."""
        for owner_name, attr, name, counter in PATCHES:
            owner = (mods.exactpoly.MPoly if owner_name == "MPoly"
                     else getattr(mods, owner_name))
            fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if fn is None:
                print(f"trace: {owner_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def settle(self, paused=None) -> None:
        """Once the run is over: each span's busy time, and the part of it
        its child spans cover.  `paused(start, end)` gives the time in an
        interval that belongs to no span, such as the benchmark's own
        speed probes; it is left out of every duration."""
        n = len(self.start)
        self.busy = [self.end[i] - self.start[i] for i in range(n)]
        if paused is not None:
            self.busy = [self.busy[i] - paused(self.start[i], self.end[i]) for i in range(n)]
        self.covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self.covered[p] += self.busy[i]

    def totals(self, ops=None, under=None) -> dict[str, list]:
        """{span name: [calls, seconds, self seconds, count]} over the spans
        of the given op ids (all when None) whose parent span is named
        `under` (any when None); call `settle` first."""
        out: dict[str, list] = {}
        for i in range(len(self.busy)):
            if ops is not None and self.op[i] not in ops:
                continue
            p = self.parent[i]
            if under is not None and (p < 0 or self.names[self.name[p]] != under):
                continue
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += self.busy[i]
            row[2] += self.busy[i] - self.covered[i]
            row[3] += self.count[i]
        return out

    def write(self, path) -> None:
        """One CSV row per span; times are seconds on the run's clock."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start", "end", "parent", "op", "op_key", "count"))
            for i in range(len(self.start)):
                op = self.op[i]
                out.writerow((i, self.names[self.name[i]], f"{self.start[i]:.9f}",
                              f"{self.end[i]:.9f}", self.parent[i], op,
                              self.op_keys[op], self.count[i]))
