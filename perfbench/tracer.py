"""Run the ruminbgg CLI with a span around each public call of each layer.

    python perfbench/tracer.py TRACE_PATH -- CLI_ARGS...

behaves like `python -m ruminbgg.cli CLI_ARGS...` (same stdout, same exit
code) and also writes TRACE_PATH. The wrappers are installed from outside
the program: on module functions, on the names callers bound with
`from ... import` (linalg's `rank_sparse`, cli's `strip_table` and
`parametrix_identity_check`), and on class methods in place, so every
reference to a class sees them. Spans (name, start, end, parent) are kept
in memory and written when the command ends, together with exact counters.

The trace file is JSON (names, counters) followed by the span arrays.
"""

import json
import sys
import time
import weakref
from array import array

MAX_COUNTERS = ("rumin.neumann_terms",)


class Recorder:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {}
        self.seen = {}

    def add(self, counter, n):
        self.counters[counter] = self.counters.get(counter, 0) + n

    def first_sight(self, tag, owner, key):
        """True the first time (owner, key) is seen under tag; owners are held weakly."""
        keys = self.seen.setdefault(tag, weakref.WeakKeyDictionary()).setdefault(owner, set())
        if key in keys:
            return False
        keys.add(key)
        return True

    def wrap(self, span, fn, count=None):
        """fn wrapped in a span; count(recorder, args, result) runs after it."""
        nid = len(self.names)
        self.names.append(span)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        head = json.dumps({"names": self.names, "counters": self.counters, "spans": len(self.name)})
        with open(path, "wb") as fh:
            fh.write(head.encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)


def load(path):
    """(names, counters, start, end, name, parent) from a trace file."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        arrays = []
        for code in "ddii":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (head["names"], head["counters"], *arrays)


def self_times(names, start, end, name, parent):
    """{span name: (self seconds, calls)}; self = duration minus direct children."""
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {}
    for i, nid in enumerate(name):
        s, c = out.get(names[nid], (0.0, 0))
        out[names[nid]] = (s + dur[i] - child[i], c + 1)
    return out


# -- counters -------------------------------------------------------------------


def _count_rank_sparse(rec, args, rank):
    rows = args[0]
    rec.add("kernel.rank_sparse.rows", len(rows))
    rec.add("kernel.rank_sparse.nnz", sum(len(r) for r in rows))
    rec.add("kernel.rank_sparse.rank", rank)


def _count_eliminator(rec, args, _):
    matrix = args[1]
    rec.add("linalg.ColumnEliminator.cols", matrix.ncols)
    rec.add("linalg.ColumnEliminator.nnz", matrix.nnz())


def _count_mons(rec, args, mons):
    if rec.first_sight("mons", args[0], args[1]):
        rec.add("fiber.monomials", len(mons))


def _count_d0_block(rec, args, block):
    rec.add("fiber.d0_block.nnz", block.nnz())


def _count_keys(rec, args, keys):
    if rec.first_sight("keys", args[0], args[1]):
        rec.add("rumin.V_dim", len(keys))


def _count_iota(rec, args, _):
    if not rec.first_sight("iota", args[0], args[1]):
        rec.add("rumin.iota_inv_mat.rebuilds", 1)


def _count_neumann(rec, args, _):
    n = args[0].neumann_terms
    if n > rec.counters.get("rumin.neumann_terms", 0):
        rec.counters["rumin.neumann_terms"] = n


class _JsonModule:
    """Stands in for cli's `json` module so that only its `load` is traced."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(rec):
    """Wrap the public calls of every layer; returns the traced `cli.main`."""
    from ruminbgg import _kernel, cli, fiber, groupcalc, linalg, rumin, tables

    def patch(span, owners, attr, count=None):
        fn = getattr(owners[0], attr)
        traced = rec.wrap(span, fn, count)
        for owner in owners:
            setattr(owner, attr, traced)

    def patch_methods(prefix, cls, attrs, counts=None):
        for attr in attrs:
            span = prefix if attr == "__init__" else f"{prefix}.{attr}"
            patch(span, [cls], attr, (counts or {}).get(attr))

    patch("kernel.rank_sparse", [_kernel, linalg], "rank_sparse", _count_rank_sparse)
    patch("linalg.rank_of_columns", [linalg], "rank_of_columns")
    patch_methods("linalg.ColumnEliminator", linalg.ColumnEliminator,
                  ["__init__", "solve"], {"__init__": _count_eliminator})
    patch_methods("linalg.SparseMatrix", linalg.SparseMatrix, ["apply", "compose"])
    patch_methods(
        "fiber", fiber.FiberContext,
        ["mons", "d0_block", "rank_d0_block", "harmonic_basis", "imdelta_solver",
         "kerdelta_solver", "delta_map"],
        {"mons": _count_mons, "d0_block": _count_d0_block},
    )
    patch_methods("groupcalc", groupcalc.GroupContext,
                  ["d", "d_term", "lie_derivative", "lie_derivative_direct"])
    patch("groupcalc.parametrix_identity_check", [groupcalc, cli],
          "parametrix_identity_check")
    patch_methods(
        "rumin", rumin.RuminPackage,
        ["keys", "d_mat", "delta_mat", "lap_mat", "l0_mat", "q_mat", "pi_mat", "D_mat",
         "E_basis", "lift", "verify", "inverse_apply", "project", "iota_inv_mat",
         "to_json"],
        {"keys": _count_keys, "iota_inv_mat": _count_iota, "inverse_apply": _count_neumann},
    )
    from_json = rumin.RuminPackage.__dict__["from_json"].__func__
    rumin.RuminPackage.from_json = classmethod(rec.wrap("rumin.from_json", from_json))
    patch("tables.strip_table", [tables, cli], "strip_table")
    patch("cli.to_json_text", [cli], "to_json_text")
    cli.json = _JsonModule(rec.wrap("cli.load_package", json.load))
    return rec.wrap("cli.main", cli.main)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        sys.exit("usage: tracer.py TRACE_PATH -- CLI_ARGS...")
    rec = Recorder()
    traced_main = install(rec)
    try:
        code = traced_main(argv[3:])
    finally:
        rec.dump(argv[1])
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv)
