"""Command-line front end.

Machine output is a single JSON object (or one per line in table mode) on
stdout; human-readable progress goes to stderr.  Exit codes: 0 success,
1 a verification command found a mismatch, 2 parse or usage error, 3 cap
exceeded, 4 internal error (a failed self-check or any other exception
outside that mapping, reported in one line).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import time
import warnings

from . import __version__
from .cohomology import check_sha_order, sha2_omega
from .errors import CapExceeded, InternalCheckError, NormOneError, SpecParseError
from .intmat import AbelianInvariants
from .perms import (
    DEFAULT_MAX_COSETS, PermGroup, Permutation, SUBGROUP_CLASS_CAP, alternating,
    are_conjugate_subgroups, cyclic, dihedral, product_of_cyclics,
    subgroup_classes, symmetric,
)
from .resolutions import Verdict, _pipeline

DEFAULT_MAX_RANK = 4096
_SPEC_RE = re.compile(r"^([ASDC])(\d+)$")
_KINDS = {"A": alternating, "S": symmetric, "D": dihedral, "C": cyclic}


def parse_group_spec(text) -> PermGroup:
    """The catalog group a spec names.  Grammar: kind digits |
    'C' digits ('x' 'C' digits)*, kind in A,S,D,C."""
    text = text.strip()
    if "x" in text:
        parts = text.split("x")
        nums = []
        for k, part in enumerate(parts):
            m = _SPEC_RE.match(part.strip())
            if not m or m.group(1) != "C":
                pos = sum(len(p) + 1 for p in parts[:k])
                raise SpecParseError(
                    f"bad factor {part!r} at position {pos}: products may only "
                    "mix cyclic groups (e.g. C2xC2)")
            nums.append(int(m.group(2)))
        if any(p < 1 for p in nums):
            raise SpecParseError("cyclic orders must be positive")
        return product_of_cyclics(nums)
    m = _SPEC_RE.match(text)
    if not m:
        raise SpecParseError(
            f"cannot parse group spec {text!r} (expected e.g. A6, S4, D4, C5, C2xC2)")
    n = int(m.group(2))
    if n < 1:
        raise SpecParseError("group parameter must be positive")
    return _KINDS[m.group(1)](n)


def parse_cycles(text, degree=None) -> Permutation:
    """Parse cycle notation: '()' or '(1 2 3)(4 5)'; separators are
    whitespace or commas; degree defaults to the largest point."""
    text = text.strip()
    if text == "()":
        return Permutation.identity(degree if degree is not None else 1)
    if not text.startswith("("):
        raise SpecParseError(f"expected '(' at position 0 in {text!r}")
    cycles = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise SpecParseError(f"expected '(' at position {i} in {text!r}")
        close = text.find(")", i)
        if close < 0:
            raise SpecParseError(f"unclosed cycle starting at position {i}")
        body = text[i + 1:close]
        points = [p for p in re.split(r"[\s,]+", body.strip()) if p]
        if len(points) < 1:
            raise SpecParseError(f"empty cycle at position {i}")
        try:
            cycles.append([int(p) for p in points])
        except ValueError as exc:
            raise SpecParseError(f"bad point in cycle at position {i}: {exc}")
        i = close + 1
    # from_cycles refuses a point below 1, a repeated point and one above
    # the degree
    try:
        return Permutation.from_cycles(cycles, degree=degree)
    except ValueError as exc:
        raise SpecParseError(str(exc))


def _split_generators(text):
    """Split a --subgroup value on commas at parenthesis depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def resolve_subgroup(G, args):
    given = [x for x in (args.subgroup, args.point_stabilizer, args.klass) if x is not None]
    if len(given) != 1:
        raise SpecParseError(
            "exactly one of --subgroup / --point-stabilizer / --class is required")
    if args.point_stabilizer is not None:
        return G.point_stabilizer(args.point_stabilizer)
    if args.klass is not None:
        classes = subgroup_classes(G, cap=args.max_order)
        if not 1 <= args.klass <= len(classes):
            raise SpecParseError(f"--class must be in 1..{len(classes)}")
        return classes[args.klass - 1]
    gens = [parse_cycles(part, degree=G.degree) for part in _split_generators(args.subgroup)]
    if not gens:
        raise SpecParseError("--subgroup lists no generators")
    return G.subgroup(gens)


RECORD_KEYS = frozenset({"group", "subgroup", "j_rank", "flasque_rank", "h1",
                         "verdict", "ms", "version"})
_DECIMAL = re.compile(r"[1-9][0-9]*")


def _record(group, subgroup, result, elapsed_ms, v: Verdict):
    return {
        "group": group,
        "subgroup": subgroup,
        "j_rank": result.j_rank,
        "flasque_rank": result.flasque_rank,
        "h1": [str(t) for t in result.invariants.torsion],
        "verdict": v.to_dict(),
        "ms": elapsed_ms,
        "version": __version__,
    }


def _cache_dir(args):
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("NORMONE_CACHE")


def _cache_key(query):
    payload = json.dumps(query, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _record_problem(record, query):
    """Why a cached record cannot be served, or None if it can: it must
    have the record key set, the query's group spec, subgroup and version,
    ranks and ms that are ints >= 0, an h1 of decimal strings > 1 in
    divisibility order, and the verdict that h1 implies."""
    if not isinstance(record, dict) or set(record) != RECORD_KEYS:
        return "wrong record keys"
    for name, want in query.items():
        if record[name] != want:
            return f"{name} is not {want!r}"
    for name in ("j_rank", "flasque_rank", "ms"):
        x = record[name]
        if type(x) is not int or x < 0:
            return f"{name} is not an int >= 0"
    h1 = record["h1"]
    if not (isinstance(h1, list)
            and all(isinstance(t, str) and _DECIMAL.fullmatch(t) for t in h1)):
        return "h1 is not a list of decimal strings"
    try:
        inv = AbelianInvariants(0, tuple(int(t) for t in h1))
    except ValueError as exc:
        return str(exc)
    if record["verdict"] != Verdict.of(inv).to_dict():
        return "verdict does not match h1"
    return None


def _cache_read(directory, key, query):
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        problem = str(exc)
    else:
        record = blob.get("record") if isinstance(blob, dict) else None
        problem = _record_problem(record, query)
        if problem is None:
            return record
    print(f"warning: unreadable cache entry {path} ({problem}); recomputing",
          file=sys.stderr)
    return None


def _cache_write(directory, key, record):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    blob = {"record": record}
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _compute_record(G, H, args):
    directory = _cache_dir(args)
    subgroup = H.describe()
    # the fields the key hashes; a served record must carry the same values
    query = {"group": G.label, "subgroup": subgroup, "version": __version__}
    key = _cache_key(query)
    if directory:
        cached = _cache_read(directory, key, query)
        if cached is not None:
            print(f"cache hit for {G.label} / {subgroup}", file=sys.stderr)
            return cached
    t0 = time.monotonic()
    # each warning of the run is one line, printed before the run's
    # result or error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _pipeline(G, H, max_rank=args.max_rank, class_cap=args.max_order)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    ms = int((time.monotonic() - t0) * 1000)
    record = _record(G.label, subgroup, result, ms, Verdict.of(result.invariants))
    if directory:
        try:
            _cache_write(directory, key, record)
        except OSError as exc:
            # like an unreadable entry, an unwritable cache only costs reuse
            print(f"warning: cannot write cache entry in {directory} ({exc}); "
                  "result not cached", file=sys.stderr)
    return record


def cmd_compute(args):
    G = parse_group_spec(args.spec)
    H = resolve_subgroup(G, args)
    record = _compute_record(G, H, args)
    print(json.dumps(record, sort_keys=True))
    inv = record["h1"]
    human = "trivial" if not inv else " x ".join(f"Z/{t}" for t in inv)
    print(f"{record['group']} / {record['subgroup']}: H1 = {human} "
          f"({record['ms']} ms)", file=sys.stderr)
    return 0


_PAPER_TABLE = (
    ("A4", "--point-stabilizer", 4, ["2"]),
    ("A5", "--point-stabilizer", 5, []),
    ("A6", "--subgroup", "(1 2 3 4 5),(1 2 3)", []),
    ("A6", "--subgroup", "(1 2 3 4 5),(1 4)(5 6)", []),
    ("A7", "--point-stabilizer", 7, []),
)


def cmd_verify_paper(args):
    failures = 0
    a6 = []   # the subgroups of the two A6 rows, for the conjugacy line
    for spec, flag, value, expected in _PAPER_TABLE:
        G = parse_group_spec(spec)
        if G.degree > args.max_n:
            continue
        ns = argparse.Namespace(
            subgroup=value if flag == "--subgroup" else None,
            point_stabilizer=value if flag == "--point-stabilizer" else None,
            klass=None, cache_dir=getattr(args, "cache_dir", None),
            max_order=args.max_order, max_rank=args.max_rank,
        )
        H = resolve_subgroup(G, ns)
        if G.label == "A6":
            a6.append(H)
        t0 = time.monotonic()
        try:
            record = _compute_record(G, H, ns)
        except CapExceeded as exc:
            # best-effort entries are reported, never failed, when a cap stops them
            print(f"SKIPPED {G.label} ({exc})", file=sys.stderr)
            continue
        elapsed = time.monotonic() - t0
        ok = record["h1"] == expected
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(json.dumps(record, sort_keys=True))
        print(f"{status} {G.label} / {record['subgroup']}: h1={record['h1']} "
              f"expected={expected} ({elapsed:.1f}s)", file=sys.stderr)
    if a6:
        H1, H2 = a6
        line = "A6: the two A5 classes are non-conjugate"
        try:
            distinct = not are_conjugate_subgroups(H1.parent, H1, H2, cap=args.max_order)
        except CapExceeded as exc:
            print(f"SKIPPED {line} ({exc})", file=sys.stderr)
        else:
            status = "PASS" if distinct else "FAIL"
            if not distinct:
                failures += 1
            print(f"{status} {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_classes(args):
    G = parse_group_spec(args.spec)
    classes = subgroup_classes(G, cap=args.max_order)
    out = [{"index": i + 1, "order": c.order(), "generators": c.describe()}
           for i, c in enumerate(classes)]
    print(json.dumps({"group": G.label, "classes": out}, sort_keys=True))
    print(f"{len(out)} subgroup classes of {G.label}", file=sys.stderr)
    return 0


def cmd_verify_schur(args):
    # the one command that enumerates cosets loads fpgroups, so the others
    # start without it
    from .fpgroups import preimage_an, verify_commutator_claim

    n = args.n
    if n < 4:
        raise NormOneError(f"verify-schur needs n >= 4 (got {n})")
    # n > 6 is a cap: preimage_an raises before any factorial is taken
    data = preimage_an(n, max_cosets=args.max_cosets)
    cover_order = data.regular.coset_count
    expected_u = 2 * math.factorial(n)
    claim = verify_commutator_claim(data)
    record = {
        "n": n,
        "cover_order": cover_order,
        "cover_order_expected": expected_u,
        "even_preimage_order": data.v_order,
        "even_preimage_index": data.index_table.coset_count,
        "commutator_claim": claim,
    }
    print(json.dumps(record, sort_keys=True))
    ok = (cover_order == expected_u and data.v_order == math.factorial(n)
          and data.index_table.coset_count == 2 and claim)
    print(("PASS" if ok else "FAIL") + f" schur checks for n={n}", file=sys.stderr)
    return 0 if ok else 1


def cmd_sha_oracle(args):
    G = parse_group_spec(args.spec)
    # before --class runs the whole class search of a group the oracle refuses
    check_sha_order(G)
    H = resolve_subgroup(G, args)
    t0 = time.monotonic()
    inv = sha2_omega(G, H, class_cap=args.max_order)
    ms = int((time.monotonic() - t0) * 1000)
    record = {
        "group": G.label,
        "subgroup": H.describe(),
        "sha2_omega": [str(t) for t in inv.torsion],
        "ms": ms,
        "version": __version__,
    }
    print(json.dumps(record, sort_keys=True))
    return 0


def _add_subgroup_flags(p):
    p.add_argument("--subgroup", help="generators in cycle notation, comma separated")
    p.add_argument("--point-stabilizer", type=int, dest="point_stabilizer",
                   help="use the stabilizer of this point")
    p.add_argument("--class", type=int, dest="klass",
                   help="1-based index into the subgroup class list")


def _positive_int(text):
    """The type of every cap: 0 or less is a usage error, not a default."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_cap_flags(p, *caps):
    """Register the named caps, the ones the command reads."""
    if "order" in caps:
        p.add_argument("--max-order", type=_positive_int, default=SUBGROUP_CLASS_CAP,
                       help=f"subgroup-enumeration order cap (default {SUBGROUP_CLASS_CAP})")
    if "cosets" in caps:
        p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS,
                       help=f"Todd-Coxeter coset cap (default {DEFAULT_MAX_COSETS})")
    if "rank" in caps:
        p.add_argument("--max-rank", type=_positive_int, default=DEFAULT_MAX_RANK,
                       help=f"middle-term rank cap (default {DEFAULT_MAX_RANK})")


@functools.cache
def build_parser():
    """The one parser of the process, built on first use: parsing leaves
    it unchanged (each call gets a fresh Namespace) and help text is
    formatted, terminal width included, when it is printed."""
    parser = argparse.ArgumentParser(
        prog="normone",
        description="Hasse-norm-principle / weak-approximation obstructions "
                    "for norm-one tori, from exact group cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="run the pipeline for one (G, H)")
    p.add_argument("spec", help="group spec: A6, S4, D4, C5, C2xC2, ...")
    _add_subgroup_flags(p)
    _add_cap_flags(p, "order", "rank")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (or env NORMONE_CACHE)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify-paper", help="reproduce the published A_n table")
    p.add_argument("--max-n", type=int, default=7, choices=range(4, 8),
                   help="largest n to run (default 7)")
    _add_cap_flags(p, "order", "rank")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("classes", help="list subgroup conjugacy classes")
    p.add_argument("spec")
    _add_cap_flags(p, "order")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("verify-schur", help="coset-enumeration checks on the "
                                            "extended symmetric-group presentation")
    p.add_argument("n", type=int)
    _add_cap_flags(p, "cosets")
    p.set_defaults(func=cmd_verify_schur)

    p = sub.add_parser("sha-oracle", help="independent sha^2_omega computation "
                                          "(small groups)")
    p.add_argument("spec")
    _add_subgroup_flags(p)
    _add_cap_flags(p, "order")
    p.set_defaults(func=cmd_sha_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except NormOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other exception, ValueError included, is a bug: one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
