"""The library holds only what its commands run: a fixed set of CLI calls,
in a fresh interpreter under `sys.setprofile`, must enter every function
of `normone`, module-level or a method of one of its classes, but the
allow-list.  A helper that only the tests call belongs in
`tests/oracles.py`.  The same calls must not import numpy, which only the
tests use."""

import json
import subprocess
import sys

# name -> why no command enters it
ALLOWED = {
    "lattices.chevalley_module": "the paper's J_{G/H}; the pipeline covers its dual",
    "resolutions.norm_one_invariant": "public API named in the README",
    "resolutions.verdict": "public API named in the README",
    "perms.PermGroup.trivial_subgroup": "public API that bench/workloads.py "
                                        "calls; the free cover reads Z[G] off "
                                        "the multiplication table instead",
    # dunders: protocol methods that Python calls on the program's behalf,
    # on paths no command takes
    "intmat.AbelianInvariants.__str__": "the group as Z/2 x Z/4 for the "
                                        "Python API; records print the torsion list",
    "intmat.IntMatrix.__hash__": "keeps a value type with __eq__ hashable; "
                                 "no command puts a matrix in a set",
    "intmat.IntMatrix.__repr__": "debugging and test failure output",
    "lattices.GLattice.__repr__": "debugging and test failure output",
    "lattices.LatticeMap.__repr__": "debugging and test failure output",
    "perms.PermGroup.__repr__": "debugging and test failure output",
    "perms.Permutation.__repr__": "debugging and test failure output",
    "intmat.IntMatrix.__setattr__": "refuses mutation; no command mutates",
    "lattices.GLattice.__setattr__": "refuses mutation; no command mutates",
    "lattices.LatticeMap.__setattr__": "refuses mutation; no command mutates",
    "perms.PermGroup.__setattr__": "refuses mutation; no command mutates",
    "perms.Permutation.__setattr__": "refuses mutation; no command mutates",
}

TRACE = """
import contextlib, importlib, inspect, io, json, pkgutil, sys
import normone
from normone import cli

cache, calls = sys.argv[1], json.loads(sys.argv[2])
entered, codes = set(), []
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main([cache if a == "CACHE" else a for a in argv]))
sys.setprofile(None)


def functions(namespace):
    # (name, function) for each function in namespace: plain, static,
    # class or property accessor, unwrapped from any decorator
    for name, obj in vars(namespace).items():
        if isinstance(obj, property):
            parts = [(name, f) for f in (obj.fget, obj.fset, obj.fdel) if f]
        else:
            parts = [(name, getattr(obj, "__func__", obj))]
        for part_name, fn in parts:
            fn = inspect.unwrap(fn) if callable(fn) else fn
            if inspect.isfunction(fn):
                yield part_name, fn


missed = []
for info in pkgutil.iter_modules(normone.__path__):
    mod = importlib.import_module("normone." + info.name)
    # what the module's own source defines: its functions and the methods
    # of its classes, not those a decorator such as dataclass generates
    names = list(functions(mod))
    for cname, cls in vars(mod).items():
        if inspect.isclass(cls) and cls.__module__ == mod.__name__:
            names += [(cname + "." + name, fn) for name, fn in functions(cls)]
    for name, fn in names:
        if (fn.__code__.co_filename == mod.__file__
                and fn.__code__ not in entered):
            missed.append(info.name + "." + name)
print(json.dumps({"codes": codes, "missed": sorted(missed),
                  "numpy": "numpy" in sys.modules}))
"""

# every command, a cache miss then a hit, two free-cover generators in
# sha-oracle (r = 2), each cap flag, verify-paper's A6 lines capped and
# run, a usage error (2) and a cap error (3)
CALLS = [
    (["compute", "A4", "--point-stabilizer", "4", "--cache-dir", "CACHE"], 0),
    (["compute", "A4", "--point-stabilizer", "4", "--cache-dir", "CACHE"], 0),
    (["compute", "D4", "--class", "3"], 0),
    (["classes", "S3"], 0),
    (["classes", "C4", "--max-order", "4"], 0),
    (["verify-paper", "--max-n", "6", "--max-order", "60", "--max-rank", "500"], 0),
    (["verify-paper", "--max-n", "6"], 0),
    (["verify-schur", "4", "--max-cosets", "1000"], 0),
    (["sha-oracle", "C2xC2", "--subgroup", "()"], 0),
    (["sha-oracle", "S3", "--point-stabilizer", "3", "--max-order", "6"], 0),
    (["compute", "A4"], 2),
    (["compute", "A5", "--point-stabilizer", "5", "--max-rank", "2"], 3),
]


def test_every_library_function_is_reached_by_a_command(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", TRACE, str(tmp_path / "cache"),
         json.dumps([argv for argv, _ in CALLS])],
        capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout)
    assert result["codes"] == [code for _, code in CALLS]
    assert not result["numpy"], "a command imported numpy"
    unreached = sorted(set(result["missed"]) - set(ALLOWED))
    assert not unreached, f"no command enters {unreached}"
    # an allowed name that a command does reach needs no exemption
    assert set(ALLOWED) <= set(result["missed"])
