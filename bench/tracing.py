"""Traced mode: spans and counters recorded by wrappers around the
program's public functions, installed from outside the program.

Each wrapper replaces a function where the calling modules look it up
(a module global such as `normone.resolutions.kernel_basis`, or a method
on its class) and records a span: name, start, end, parent span and the
current pair id.  Counters are taken at the same boundaries.  Spans stay
in memory until `write` is called.  A layer's self time is its span time
minus the time its child spans cover.  Untraced passes never import this
module.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from itertools import chain

# span name -> per-layer metric: time metrics are self times
TIME_METRICS = {
    "perms.subgroup_classes": "perms.subgroup_classes_s",
    "perms.enumeration": "perms.enumeration_s",
    "fpgroups.todd_coxeter": "fpgroups.todd_coxeter_s",
    "lattices.matrix_of": "lattices.matrix_of_s",
    "lattices.fixed_sublattice": "lattices.fixed_sublattice_s",
    "lattices.map_check": "lattices.map_check_s",
    "lattices.induced": "lattices.induced_s",
    "resolutions.cover": "resolutions.cover_s",
    "resolutions.flasque_check": "resolutions.flasque_check_s",
    "cohomology.presentation": "cohomology.presentation_s",
    "cohomology.h1": "cohomology.h1_s",
    "cohomology.tate_minus1": "cohomology.tate_minus1_s",
    "cohomology.sha2_omega": "cohomology.sha2_omega_s",
    "cohomology.dimension_shift": "cohomology.dimension_shift_s",
    "cli.main": "cli.main_s",
}
CALL_METRICS = {
    "perms.subgroup_classes": "perms.subgroup_classes_calls",
    "lattices.matrix_of": "lattices.matrix_of_calls",
    "cohomology.tate_minus1": "cohomology.tate_minus1_calls",
}
INTMAT_FUNCTIONS = (
    "hnf", "hnf_basis", "kernel_basis", "solve_left", "inverse_unimodular",
    "lattice_contains", "snf_invariants", "snf", "quotient_invariants",
)
# the functions that run an elimination themselves; quotient_invariants and
# lattice_contains reach theirs through hnf_basis / snf_invariants
ELIMINATIONS = ("hnf", "hnf_basis", "kernel_basis", "solve_left",
                "inverse_unimodular", "snf_invariants", "snf")
for _fn in INTMAT_FUNCTIONS + ("matmul",):
    TIME_METRICS[f"intmat.{_fn}"] = f"intmat.{_fn}_s"
    CALL_METRICS[f"intmat.{_fn}"] = f"intmat.{_fn}_calls"
COUNT_METRICS = (
    "perms.classes_found", "fpgroups.cosets", "resolutions.middle_rank",
    "resolutions.flasque_rank", "resolutions.summands", "intmat.elim_ops",
    "intmat.entries_built", "cli.cache_hits", "cli.cache_misses",
    "cli.cache_entry_bytes",
)
MAX_METRICS = ("intmat.max_elim_entries", "intmat.max_abs_entry")


def _max_abs(rows):
    return max(map(abs, chain.from_iterable(rows)), default=0)


class Recorder:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, pair id)
        self.open = []         # [span index, child time] of open spans
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.pair = None
        self.hook_s = 0.0      # counter bookkeeping, kept out of self times

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, result) updates counters."""
        spans, opened = self.spans, self.open
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = opened[-1][0] if opened else -1
            frame = [idx, 0.0]
            opened.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                opened.pop()
                d = t1 - t0
                self.self_s[name] += d - frame[1]
                if opened:
                    opened[-1][1] += d
                self.calls[name] += 1
                spans[idx] = (name, t0, t1, parent, self.pair)
            if after is not None:
                h0 = perf()
                after(args, result)
                h = perf() - h0
                self.hook_s += h
                if opened:
                    opened[-1][1] += h
            return result

        return traced

    def bump(self, name, n=1):
        self.counts[name] += n

    def high(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def root_seconds(self):
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] == -1)

    def layer_self_seconds(self):
        out = defaultdict(float)
        for name, sec in self.self_s.items():
            out[name.split(".", 1)[0]] += sec
        return dict(out)

    def metrics(self):
        out = {}
        for span, metric in TIME_METRICS.items():
            out[metric] = {"value": self.self_s.get(span, 0.0), "unit": "s"}
        for span, metric in CALL_METRICS.items():
            out[metric] = {"value": self.calls.get(span, 0), "unit": "count"}
        units = {"intmat.elim_ops": "ops", "intmat.entries_built": "entries",
                 "cli.cache_entry_bytes": "bytes"}
        for name in COUNT_METRICS:
            out[name] = {"value": self.counts.get(name, 0),
                         "unit": units.get(name, "count")}
        out["intmat.max_elim_entries"] = {
            "value": self.maxima.get("intmat.max_elim_entries", 0), "unit": "entries"}
        out["intmat.max_abs_entry"] = {
            "value": self.maxima.get("intmat.max_abs_entry", 0), "unit": "abs"}
        return out

    def counters(self):
        """Every value that must repeat exactly for one seed."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update(self.counts)
        out.update(self.maxima)
        out.pop("cli.cache_entry_bytes", None)  # entries embed their own timing
        return dict(sorted(out.items()))

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def _replace_global(modules, fname, make):
    """Wrap the function named fname wherever the modules hold it."""
    seen = {}
    for m in modules:
        fn = getattr(m, fname, None)
        if fn is None:
            continue
        if id(fn) not in seen:
            seen[id(fn)] = make(fn)
        setattr(m, fname, seen[id(fn)])


def install(rec):
    """Wrap every traced boundary of the program; returns nothing."""
    import normone
    from normone import (cli, cohomology, fpgroups, intmat, lattices, perms,
                         resolutions)

    modules = (normone, intmat, perms, lattices, fpgroups, cohomology,
               resolutions, cli)

    def glob(fname, name, after=None):
        _replace_global(modules, fname, lambda fn: rec.wrap(name, fn, after))

    # perms
    computed = {}   # id -> group, held so that no id is reused

    def classes_after(args, result):
        G = args[0]
        if id(G) not in computed:
            computed[id(G)] = G
            rec.bump("perms.classes_found", len(result))

    glob("subgroup_classes", "perms.subgroup_classes", classes_after)
    glob("right_transversal", "perms.enumeration")
    glob("core", "perms.enumeration")
    # the enumerations cache on the group; only a call that enumerates
    # gets a span, a cached lookup is not enumeration work
    PermGroup = perms.PermGroup
    elements = PermGroup.elements
    elements_span = rec.wrap("perms.enumeration", elements)

    def elements_traced(self):
        if self._elements is None:
            return elements_span(self)
        return elements(self)

    words = PermGroup.elements_with_words
    words_span = rec.wrap("perms.enumeration", words)

    def words_traced(self, alphabet=None):
        key = tuple(p.images for p in alphabet) if alphabet is not None else None
        if key in self._word_cache:
            return words(self, alphabet)
        return words_span(self, alphabet)

    PermGroup.elements = elements_traced
    PermGroup.elements_with_words = words_traced
    PermGroup.point_stabilizer = rec.wrap("perms.enumeration",
                                          PermGroup.point_stabilizer)

    # fpgroups: looked up at call time by the presentation check
    glob("todd_coxeter", "fpgroups.todd_coxeter",
         lambda args, table: rec.bump("fpgroups.cosets", table.coset_count))

    # lattices
    GLattice, LatticeMap = lattices.GLattice, lattices.LatticeMap
    GLattice.matrix_of = rec.wrap("lattices.matrix_of", GLattice.matrix_of)
    LatticeMap.__init__ = rec.wrap("lattices.map_check", LatticeMap.__init__)
    glob("fixed_sublattice", "lattices.fixed_sublattice")
    glob("induced", "lattices.induced")

    # resolutions
    def resolution_after(args, res):
        rec.bump("resolutions.middle_rank", res.middle.rank)
        rec.bump("resolutions.flasque_rank", res.side.rank)
        rec.bump("resolutions.summands", len(res.summands))

    glob("_pipeline", "resolutions.pipeline")
    glob("flasque_resolution", "resolutions.flasque_resolution", resolution_after)
    glob("coflasque_cover", "resolutions.cover")
    glob("is_flasque", "resolutions.flasque_check")

    # cohomology
    glob("presentation_catalog", "cohomology.presentation")
    glob("h1", "cohomology.h1")
    glob("tate_minus1", "cohomology.tate_minus1")
    glob("sha2_omega", "cohomology.sha2_omega")
    glob("dimension_shift", "cohomology.dimension_shift")

    # intmat
    def elimination_after(args, result):
        A = args[0]
        m, n = A.nrows, A.ncols
        rec.bump("intmat.elim_ops", m * n * min(m, n))
        rec.high("intmat.max_elim_entries", m * n)
        big = _max_abs(A.data)
        for out in (result if isinstance(result, tuple) else (result,)):
            if isinstance(out, intmat.IntMatrix):
                big = max(big, _max_abs(out.data))
        rec.high("intmat.max_abs_entry", big)

    for fname in INTMAT_FUNCTIONS:
        glob(fname, f"intmat.{fname}",
             elimination_after if fname in ELIMINATIONS else None)
    IntMatrix = intmat.IntMatrix
    IntMatrix.__mul__ = rec.wrap("intmat.matmul", IntMatrix.__mul__)
    init = IntMatrix.__init__

    def init_counted(self, rows, ncols=None):
        init(self, rows, ncols)
        rec.counts["intmat.entries_built"] += self.nrows * self.ncols

    IntMatrix.__init__ = init_counted
    for fname in ("_hnf_py", "_snf_invariants_py"):   # overflow fallbacks
        if hasattr(intmat, fname):
            setattr(intmat, fname, rec.wrap(f"intmat.{fname}", getattr(intmat, fname)))

    # cli: a call with --cache-dir that never reaches the pipeline is a hit
    main = rec.wrap("cli.main", cli.main)

    def main_traced(argv=None):
        before = rec.calls["resolutions.pipeline"]
        rc = main(argv)
        if argv is not None and "--cache-dir" in argv:
            hit = rec.calls["resolutions.pipeline"] == before
            rec.bump("cli.cache_hits" if hit else "cli.cache_misses")
        return rc

    cli.main = main_traced
