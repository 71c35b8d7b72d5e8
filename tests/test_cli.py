import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import traceback
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import normone
import normone.cli as cli
from normone.cli import main, parse_cycles, parse_group_spec, _split_generators
from normone.errors import CapExceeded, SpecParseError
from normone.perms import Permutation, alternating, subgroup_classes

P = Permutation.from_cycles

RECORD_KEYS = {"group", "subgroup", "j_rank", "flasque_rank", "h1",
               "verdict", "ms", "version"}


class TestGroupSpecParsing:
    def test_basic_kinds(self):
        assert parse_group_spec("A6") is alternating(6)
        assert parse_group_spec("C2xC2").kind == ("C*", (2, 2))
        assert parse_group_spec("C2xC2").order() == 4
        assert parse_group_spec("D4").order() == 8

    def test_label_is_the_canonical_spec(self):
        # records and cache keys name the group by its label, so a spec
        # must parse to the group whose label is the spec's canonical text,
        # whatever padding or leading zeros it was written with
        for kind in "ASDC":
            for n in range(1, 17):
                for text in (f"{kind}{n}", f" {kind}0{n} "):
                    assert parse_group_spec(text).label == f"{kind}{n}", text
        for count in (2, 3):
            for parts in itertools.product(range(1, 17), repeat=count):
                spec = "x".join(f"C{p}" for p in parts)
                if sum(p for p in parts if p > 1) > 16:
                    with pytest.raises(CapExceeded):
                        parse_group_spec(spec)
                    continue
                assert parse_group_spec(spec).label == spec
                assert parse_group_spec(" x ".join(f"C0{p}" for p in parts)).label == spec

    def test_errors_carry_position(self):
        with pytest.raises(SpecParseError):
            parse_group_spec("Q7")
        with pytest.raises(SpecParseError, match="position"):
            parse_group_spec("C2xD4")
        with pytest.raises(SpecParseError):
            parse_group_spec("A0")


class TestCycleParsing:
    def test_basic(self):
        p = parse_cycles("(1 2 3)(4 5)")
        assert p.images[0] == 1 and p.images[1] == 2 and p.images[2] == 0
        assert p.images[3] == 4 and p.images[4] == 3

    def test_identity(self):
        assert parse_cycles("()").is_identity()

    def test_commas_as_separators(self):
        assert parse_cycles("(1,2,3)") == parse_cycles("(1 2 3)")

    def test_composition_left_to_right(self):
        assert parse_cycles("(1 2)(2 3)") == P([(1, 2)], 3) * P([(2, 3)], 3)

    def test_repeated_point_rejected(self):
        with pytest.raises(SpecParseError):
            parse_cycles("(1 2 1)")

    def test_zero_point_rejected(self):
        with pytest.raises(SpecParseError):
            parse_cycles("(0 1)")

    def test_degree_override(self):
        assert parse_cycles("(1 2)", degree=5).degree == 5

    def test_round_trip_small_fuzz(self):
        rng = random.Random(99)
        for _ in range(300):
            degree = rng.randint(1, 10)
            images = list(range(degree))
            rng.shuffle(images)
            p = Permutation(images)
            assert parse_cycles(p.cycle_string(), degree=degree) == p

    def test_split_generators(self):
        parts = _split_generators("(1 2 3 4 5),(1 4)(5 6)")
        assert parts == ["(1 2 3 4 5)", "(1 4)(5 6)"]
        parts = _split_generators("(1,2,3),(4,5)")
        assert parts == ["(1,2,3)", "(4,5)"]


class TestComputeCommand:
    def test_a4_point_stabilizer(self, capsys):
        rc = main(["compute", "A4", "--point-stabilizer", "4"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == RECORD_KEYS
        assert record["h1"] == ["2"]
        assert record["j_rank"] == 3
        assert record["verdict"]["hnp"] == "undetermined"

    def test_explicit_subgroup(self, capsys):
        rc = main(["compute", "A4", "--subgroup", "(1 2 3)"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["h1"] == ["2"]

    def test_class_index(self, capsys):
        rc = main(["compute", "S3", "--class", "2"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == RECORD_KEYS

    def test_cyclic_degenerate(self, capsys):
        rc = main(["compute", "C5", "--point-stabilizer", "5"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["h1"] == []
        assert record["verdict"]["hnp"] == "holds"

    def test_parse_error_exit_code(self, capsys):
        assert main(["compute", "Q7", "--point-stabilizer", "1"]) == 2

    def test_point_above_the_degree_exit_code(self, capsys):
        # Permutation.from_cycles refuses the point; parse_cycles makes
        # that a parse error
        assert main(["compute", "S4", "--subgroup", "(1 2),(5 6)"]) == 2
        assert "exceeds degree 4" in capsys.readouterr().err

    def test_missing_subgroup_flag(self, capsys):
        assert main(["compute", "A4"]) == 2

    def test_cap_exceeded_exit_code(self, capsys):
        # A8 subgroup enumeration is beyond the default class cap
        assert main(["compute", "A8", "--point-stabilizer", "8"]) == 3

    def test_compute_reads_max_order(self, capsys, monkeypatch):
        # the pipeline's class search is its cap check and comes before the
        # core and the cosets; within the cap it builds the one table of
        # the run, G's, which everything after it reads
        monkeypatch.delenv("NORMONE_CACHE", raising=False)
        argv = ["compute", "A5", "--point-stabilizer", "5"]

        def refuse(*args):
            raise AssertionError("ran past the class cap")

        with monkeypatch.context() as m:
            m.setattr(normone.perms.PermGroup, "multiplication_table", refuse)
            m.setattr(normone.resolutions, "right_transversal", refuse)
            assert main(argv + ["--max-order", "10"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: |G|=60 exceeds subgroup enumeration cap 10\n"

        # a fresh A5, so that no earlier test has built its table
        A5 = normone.perms.PermGroup(5, parse_group_spec("A5").generators,
                                     label="A5", kind=("A", 5))
        table = normone.perms.PermGroup.multiplication_table
        built = []

        def counting(G):
            if G._table is None:
                built.append((G, [frame.name for frame in traceback.extract_stack()]))
            return table(G)

        monkeypatch.setattr(cli, "parse_group_spec", lambda text: A5)
        monkeypatch.setattr(normone.perms.PermGroup, "multiplication_table", counting)
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["h1"], record["j_rank"], record["flasque_rank"]) == ([], 4, 21)
        assert [G for G, _ in built] == [A5]
        assert "subgroup_classes" in built[0][1]

    def test_pipeline_warning_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a pipeline warning is one `warning:` line before the result line,
        # or before the error line when the run then stops; a cache hit
        # runs no pipeline and prints none
        monkeypatch.delenv("NORMONE_CACHE", raising=False)
        argv = ["compute", "C6", "--subgroup", "(1 3 5)(2 4 6)"]
        warning = ("warning: (1 3 5)(2 4 6) is normal in C6, so the matrix action is "
                   "unfaithful; the construction still runs but the geometric setting "
                   "assumes a non-normal subgroup\n")
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr()
        ms = json.loads(out.out)["ms"]
        assert out.err == warning + f"C6 / (1 3 5)(2 4 6): H1 = trivial ({ms} ms)\n"
        assert main(argv + ["--max-rank", "1"]) == 3
        assert capsys.readouterr() == ("", warning + "error: cover rank 2 exceeds --max-rank 1\n")
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("cache hit for C6 / (1 3 5)(2 4 6)\n")
        assert "warning" not in err

    def test_unexpected_exception_exit_code(self, capsys, monkeypatch):
        # an exception outside the documented mapping is a bug: exit 4,
        # one line on stderr, no traceback; a ValueError from inside the
        # program too, since user input raises NormOneError subclasses
        monkeypatch.delenv("NORMONE_CACHE", raising=False)
        for exc in (KeyError("lost"), ValueError("inconsistent shapes")):
            def broken(*args, exc=exc, **kwargs):
                raise exc

            monkeypatch.setattr(cli, "_pipeline", broken)
            assert main(["compute", "A4", "--point-stabilizer", "4"]) == 4
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("internal error:")

    @pytest.mark.parametrize("argv", [
        ["compute", "A4", "--point-stabilizer", "0"],
        ["sha-oracle", "S3", "--class", "1"],
    ])
    def test_unusable_subgroup_choice_exit_code(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_whole_group_subgroup_rejected(self, capsys, monkeypatch):
        # index 1 leaves no Chevalley module; compute and sha-oracle refuse
        # it with the same line, not a traceback, and sha-oracle does so
        # before its cyclic class search builds a table
        err = "error: subgroup is the whole group; the quotient module needs index >= 2\n"
        cases = (["C1", "--subgroup", "()"], ["S3", "--class", "1"])
        for argv in cases:
            assert main(["compute", *argv]) == 2
            assert capsys.readouterr() == ("", err)
            subgroup_classes(parse_group_spec(argv[0]))  # --class reads this list

        def no_table(G):
            raise AssertionError(f"sha-oracle built the table of {G.label} at index 1")

        monkeypatch.setattr(normone.perms.PermGroup, "multiplication_table", no_table)
        for argv in cases:
            assert main(["sha-oracle", *argv]) == 2
            assert capsys.readouterr() == ("", err)


class TestCache:
    def test_cache_round_trip(self, tmp_path, capsys):
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        out = capsys.readouterr()
        warm = json.loads(out.out)
        assert "cache hit" in out.err
        assert warm["h1"] == cold["h1"]
        assert warm["verdict"] == cold["verdict"]
        assert json.dumps(warm["h1"]) == json.dumps(cold["h1"])

    def test_spec_spelling_shares_the_entry(self, tmp_path, capsys, monkeypatch):
        # the key names the group by its label, so a padded, zero-led
        # spelling of the same spec reads the entry the canonical one wrote
        monkeypatch.delenv("NORMONE_CACHE", raising=False)
        tail = ["--point-stabilizer", "4", "--cache-dir", str(tmp_path)]
        assert main(["compute", "A4", *tail]) == 0
        record = capsys.readouterr().out
        assert main(["compute", " A04 ", *tail]) == 0
        out = capsys.readouterr()
        assert out.out == record
        assert out.err.startswith("cache hit for A4 / (1 2 3)\n")
        assert len(os.listdir(tmp_path)) == 1

    def test_env_var_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NORMONE_CACHE", str(tmp_path))
        assert main(["compute", "C5", "--point-stabilizer", "5"]) == 0
        capsys.readouterr()
        assert main(["compute", "C5", "--point-stabilizer", "5"]) == 0
        assert "cache hit" in capsys.readouterr().err

    def test_corrupt_cache_recomputes(self, tmp_path, capsys):
        args = ["compute", "C5", "--point-stabilizer", "5",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        for name in os.listdir(tmp_path):
            with open(tmp_path / name, "w") as fh:
                fh.write("{not json")
        assert main(args) == 0
        out = capsys.readouterr()
        assert "unreadable cache" in out.err
        assert json.loads(out.out)["h1"] == []

    @pytest.mark.parametrize("bad", [
        {}, {"h1": "oops"},
        # (field, value): one field of the stored record changed; a record
        # is served only for its own query, with ranks and ms ints >= 0
        ("group", "S4"), ("subgroup", "(1 2)"), ("version", "9.9"),
        ("flasque_rank", "lots"), ("j_rank", -1), ("j_rank", 3.0),
        ("ms", True),
    ])
    def test_invalid_cached_record_recomputes(self, tmp_path, capsys, bad):
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        fresh = json.loads(capsys.readouterr().out)
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name) as fh:
            blob = json.load(fh)
        if isinstance(bad, tuple):
            field, value = bad
            bad = {**blob["record"], field: value}
        blob["record"] = bad
        with open(tmp_path / name, "w") as fh:
            json.dump(blob, fh)
        assert main(args) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == RECORD_KEYS and record["h1"] == ["2"]
        assert {k: v for k, v in record.items() if k != "ms"} == \
            {k: v for k, v in fresh.items() if k != "ms"}
        assert "unreadable cache" in out.err and "Traceback" not in out.err

    def test_cache_stores_only_the_record(self, tmp_path, capsys):
        main(["compute", "A4", "--point-stabilizer", "4",
              "--cache-dir", str(tmp_path)])
        record = json.loads(capsys.readouterr().out)
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name) as fh:
            blob = json.load(fh)
        assert set(blob) == {"record"}
        assert blob["record"] == record

    def test_entry_with_stored_resolution_is_served(self, tmp_path, capsys,
                                                    monkeypatch):
        # entries written before the resolution was dropped still carry it
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        record = json.loads(capsys.readouterr().out)
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name, "w") as fh:
            json.dump({"record": record,
                       "resolution": {"kind": "flasque", "base_rank": 3}}, fh)

        def recompute(*args, **kwargs):
            raise AssertionError("a servable entry was recomputed")

        monkeypatch.setattr(cli, "_pipeline", recompute)
        assert main(args) == 0
        out = capsys.readouterr()
        assert json.loads(out.out) == record
        assert "cache hit" in out.err

    def test_entry_from_another_version_is_recomputed(self, tmp_path, capsys,
                                                      monkeypatch):
        # the version is part of the key, so a record of an older algorithm
        # (0.1.0 reported flasque_rank 43 here) is a miss, never served
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path)]
        with monkeypatch.context() as m:
            m.setattr(cli, "__version__", "0.1.0")
            assert main(args) == 0
        capsys.readouterr()
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name) as fh:
            blob = json.load(fh)
        assert blob["record"]["version"] == "0.1.0"
        blob["record"]["flasque_rank"] = 43
        with open(tmp_path / name, "w") as fh:
            json.dump(blob, fh)
        runs = []
        pipeline = cli._pipeline

        def counted(*args, **kwargs):
            runs.append(args)
            return pipeline(*args, **kwargs)

        monkeypatch.setattr(cli, "_pipeline", counted)
        assert main(args) == 0
        out = capsys.readouterr()
        record = json.loads(out.out)
        assert len(runs) == 1 and "cache hit" not in out.err
        assert record["version"] == normone.__version__ != "0.1.0"
        assert record["flasque_rank"] != 43
        assert len(os.listdir(tmp_path)) == 2

    def test_missing_entry_is_a_silent_miss(self, tmp_path, capsys):
        # no entry (the directory may not exist yet) is a miss, not a
        # warning; so is an entry removed between a check and the read
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path / "new")]
        assert main(args) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["h1"] == ["2"]
        assert out.err.splitlines() == ["A4 / (1 2 3): H1 = Z/2 "
                                        f"({json.loads(out.out)['ms']} ms)"]
        query = {"group": "A4", "subgroup": "(1 2 3)", "version": normone.__version__}
        with mock.patch("os.path.exists", return_value=True):
            assert cli._cache_read(str(tmp_path), cli._cache_key(query), query) is None
        assert capsys.readouterr().err == ""

    def test_hit_describes_the_subgroup_once(self, tmp_path, capsys, monkeypatch):
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        calls = []
        describe = cli.PermGroup.describe

        def counted(self):
            calls.append(self)
            return describe(self)

        monkeypatch.setattr(cli.PermGroup, "describe", counted)
        assert main(args) == 0
        assert "cache hit for A4 / (1 2 3)" in capsys.readouterr().err
        assert len(calls) == 1

    def test_unwritable_cache_dir_warns(self, tmp_path, capsys):
        # a regular file where the directory should be: the write fails,
        # the record is still printed and the exit code is still 0
        blocker = tmp_path / "file"
        blocker.write_text("")
        for directory in (blocker, blocker / "sub"):
            rc = main(["compute", "A4", "--point-stabilizer", "4",
                       "--cache-dir", str(directory)])
            out = capsys.readouterr()
            assert rc == 0
            record = json.loads(out.out)
            assert record["h1"] == ["2"]
            assert "cannot write cache entry" in out.err
            assert "Traceback" not in out.err


def test_cold_runs_are_deterministic():
    records = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "normone.cli", "compute", "A4",
             "--point-stabilizer", "4"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        rec.pop("ms")
        records.append(json.dumps(rec, sort_keys=True))
    assert records[0] == records[1]


class TestOtherCommands:
    def test_classes(self, capsys):
        rc = main(["classes", "A4"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["classes"]) == 5

    def test_verify_schur(self, capsys):
        assert main(["verify-schur", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cover_order"] == 48
        assert record["even_preimage_order"] == 24
        assert record["commutator_claim"] is True

    @pytest.mark.parametrize("n, code", [("-1", 2), ("0", 2), ("3", 2), ("7", 3)])
    def test_verify_schur_outside_supported_range(self, n, code, capsys):
        # n < 4 is a usage error; n > 6 is past the cap, checked before
        # any factorial is taken
        assert main(["verify-schur", "--", n]) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error:")

    def test_sha_oracle(self, capsys):
        rc = main(["sha-oracle", "C2xC2", "--subgroup", "()"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["sha2_omega"] == ["2"]

    def test_sha_oracle_reads_max_order(self, capsys, monkeypatch):
        # the class cap stops the cyclic class search before the
        # multiplication table is built; the default cap leaves the run as it was
        argv = ["sha-oracle", "A6", "--subgroup", "(1 2 3 4 5),(1 2 3)"]

        def no_table(G):
            raise AssertionError("multiplication table built past the cap")

        with monkeypatch.context() as m:
            m.setattr(normone.perms.PermGroup, "multiplication_table", no_table)
            assert main(argv + ["--max-order", "10"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: |G|=360 exceeds subgroup enumeration cap 10\n"
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        record.pop("ms")
        assert record == {"group": "A6", "sha2_omega": [], "subgroup": "(1 2 3 4 5),(1 2 3)",
                          "version": normone.__version__}

    def test_sha_oracle_cap_comes_before_the_class_search(self, capsys, monkeypatch):
        # above the sha2 cap, --class does not run the class search the
        # oracle would refuse afterwards; within it, errors keep their order
        def refuse(*args, **kwargs):
            raise AssertionError("sha-oracle ran the class search past the sha2 cap")

        with monkeypatch.context() as m:
            m.setattr(cli, "subgroup_classes", refuse)
            for argv in (["A7", "--class", "2"], ["A7", "--class", "0"],
                         ["S6", "--subgroup", "()"]):
                assert main(["sha-oracle", *argv]) == 3
                order = parse_group_spec(argv[0]).order()
                assert capsys.readouterr() == (
                    "", f"error: |G|={order} exceeds the sha2 cap 360\n")
        assert main(["sha-oracle", "A5", "--class", "99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --class must be in 1..")

    def test_verify_paper_smallest(self, capsys):
        assert main(["verify-paper", "--max-n", "4"]) == 0
        out = capsys.readouterr()
        assert "PASS A4" in out.err

    def test_verify_paper_reads_max_order(self, capsys, monkeypatch):
        # the class cap stops the A6 conjugacy line before A6's
        # multiplication table is built, as it stops the A6 rows; the
        # default cap leaves the line a PASS
        argv = ["verify-paper", "--max-n", "6"]
        line = "A6: the two A5 classes are non-conjugate"
        table = normone.perms.PermGroup.multiplication_table

        def no_a6_table(G):
            if G.order() == 360:
                raise AssertionError("multiplication table built past the cap")
            return table(G)

        with monkeypatch.context() as m:
            m.setattr(normone.perms.PermGroup, "multiplication_table", no_a6_table)
            assert main(argv + ["--max-order", "60"]) == 0
        err = capsys.readouterr().err
        assert err.count("SKIPPED A6") == 3
        assert f"SKIPPED {line} (|G|=360 too large for brute-force conjugacy (cap 60))" in err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert f"PASS {line}\n" in err
        assert "SKIPPED" not in err


class TestSharedParser:
    """main builds its parser once per process and reuses it."""

    @pytest.fixture(autouse=True)
    def no_cache(self, monkeypatch):
        monkeypatch.delenv("NORMONE_CACHE", raising=False)

    @staticmethod
    def run(argv):
        """main(argv) -> (exit code, record without ms)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        record = json.loads(out.getvalue())
        record.pop("ms")
        return rc, record

    def test_values_do_not_leak_into_the_next_call(self, monkeypatch):
        ranks = []
        pipeline = cli._pipeline

        def recorded(G, H, max_rank, class_cap):
            ranks.append(max_rank)
            return pipeline(G, H, max_rank=max_rank, class_cap=class_cap)

        monkeypatch.setattr(cli, "_pipeline", recorded)
        argv = ["compute", "A4", "--point-stabilizer", "4"]
        first = self.run(argv + ["--max-rank", "5000"])
        assert first[0] == 0 and self.run(argv) == first
        assert ranks == [5000, 4096]

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        argv = ["compute", "A4", "--point-stabilizer", "4"]
        before = self.run(argv)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-rank", "0"])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err
        assert before[0] == 0 and self.run(argv) == before

    def test_repeated_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = ["compute", "A4", "--point-stabilizer", "4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        built.clear()
        for _ in range(20):
            assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().err
        assert built == []

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *a, **k):\n"
                "    built.append(1)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import normone.cli as cli\n"
                "print(len(built), cli.build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    @pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"]],
                             ids=["top-level", "compute"])
    def test_help_is_the_same_on_every_call(self, argv, capsys, monkeypatch):
        def show_help():
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        cli.build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "60")
        first = show_help()
        assert show_help() == first
        # the width is read when help is printed, not when the parser is
        # built: a wider terminal gets the help a new parser would print
        monkeypatch.setenv("COLUMNS", "140")
        wide = show_help()
        assert wide != first
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        assert capsys.readouterr().out == wide


def test_import_leaves_out_dataclasses_inspect_and_fpgroups():
    # a fresh process pays for every module the import loads: the records
    # need neither dataclasses nor the inspect it imports, and only
    # verify-schur enumerates cosets, so only it loads fpgroups
    def modules(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [set(line.split()) for line in proc.stdout.splitlines()]

    listed = "print(' '.join(sys.modules))\n"
    [bare] = modules("import sys\n" + listed)
    imported, ran = modules(
        "import contextlib, io, sys\n"
        "import normone.cli as cli\n" + listed
        + "with contextlib.redirect_stdout(io.StringIO()), "
          "contextlib.redirect_stderr(io.StringIO()):\n"
          "    assert cli.main(['verify-schur', '4']) == 0\n" + listed)
    assert "normone.cli" in imported
    assert not {"dataclasses", "inspect", "normone.fpgroups"} & (imported - bare)
    assert "normone.fpgroups" in ran


def test_readme_compute_example_is_live(capsys):
    # the README's example record is what the command prints, apart from ms
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = "normone compute A4 --point-stabilizer 4"
    match = re.search(re.escape(f"`{command}` prints") + r".*?```json\n(.*?)```",
                      readme, re.S)
    assert match, f"README has no example record for `{command}`"
    example = json.loads(match.group(1))
    assert main(command.split()[1:]) == 0
    live = json.loads(capsys.readouterr().out)
    example.pop("ms")
    live.pop("ms")
    assert example == live


CAP_VALUES = {"--max-order": "2520", "--max-rank": "4096", "--max-cosets": "100000"}


@pytest.mark.parametrize("argv, reads", [
    (["compute", "A4", "--point-stabilizer", "4"], {"--max-order", "--max-rank"}),
    (["verify-paper"], {"--max-order", "--max-rank"}),
    (["classes", "A4"], {"--max-order"}),
    (["sha-oracle", "C2xC2", "--subgroup", "()"], {"--max-order"}),
    (["verify-schur", "4"], {"--max-cosets"}),
], ids=["compute", "verify-paper", "classes", "sha-oracle", "verify-schur"])
def test_commands_take_only_the_caps_they_read(argv, reads, capsys):
    # each cap read has its documented default; a cap of 0 or less is a
    # usage error, not the default
    parser = cli.build_parser()
    defaults = parser.parse_args(argv)
    for flag, value in CAP_VALUES.items():
        if flag in reads:
            name = flag[2:].replace("-", "_")
            assert getattr(defaults, name) == int(value)
            args = parser.parse_args(argv + [flag, value])
            assert getattr(args, name) == int(value)
            for bad in ("0", "-1"):
                with pytest.raises(SystemExit) as exc:
                    main(argv + [flag, bad])
                assert exc.value.code == 2
                assert "must be a positive integer" in capsys.readouterr().err
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag, value])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


# every catalog spec of order <= 12, and specs that do not parse
SMALL_SPECS = (["A1", "A2", "A3", "A4", "S1", "S2", "S3", "C2xC2", "C2xC3",
                "C2xC6", "C2xC2xC3", "C3xC4", "C1xC5"]
               + [f"D{n}" for n in range(1, 7)] + [f"C{n}" for n in range(1, 13)])
BAD_SPECS = ["", "A0", "C0", "B4", "a4", "C2xS3", "C2x", "xC2", "S3xC2", "D-1", "A 4"]

cycle_strings = st.one_of(
    st.lists(st.lists(st.integers(-1, 13), max_size=4), max_size=3).map(
        lambda cycles: "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)),
    st.text(alphabet="()0123456789, -x", max_size=12),
)
FAULTS = [None, None, None, "spec", "subgroup", "flags", "cap"]


@st.composite
def cli_argv(draw):
    """A well-formed call, or one with a single fault: a bad spec, a bad
    subgroup, zero or two subgroup flags, or a cap of 0 or less.  Caps may
    stop a well-formed call (exit 3); the cache dir may be unwritable."""
    command = draw(st.sampled_from(["compute", "compute", "sha-oracle", "classes"]))
    fault = draw(st.sampled_from(FAULTS))
    spec = draw(st.sampled_from(BAD_SPECS if fault == "spec" else SMALL_SPECS))
    argv = [command, spec]
    if command != "classes":
        if fault == "spec":
            choices = [["--subgroup", draw(cycle_strings)]]
        elif fault == "subgroup":
            choices = [["--subgroup", draw(cycle_strings)],
                       ["--point-stabilizer", str(draw(st.integers(-1, 13)))],
                       ["--class", str(draw(st.integers(-1, 17)))]]
        else:
            G = parse_group_spec(spec)
            gens = draw(st.lists(st.sampled_from(G.elements()), max_size=2))
            choices = [["--subgroup", ",".join(g.cycle_string() for g in gens) or "()"],
                       ["--point-stabilizer", str(draw(st.integers(1, G.degree)))],
                       ["--class", str(draw(st.integers(1, len(subgroup_classes(G)))))]]
        count = draw(st.sampled_from([0, 2])) if fault == "flags" else 1
        for flags in draw(st.lists(st.sampled_from(choices), min_size=count,
                                   max_size=count, unique_by=lambda f: f[0])):
            argv += flags
    caps = ["--max-order", "--max-rank"] if command == "compute" else ["--max-order"]
    for flag in draw(st.lists(st.sampled_from(caps), max_size=2, unique=True)):
        argv += [flag, str(draw(st.integers(1, 5000)))]
    if fault == "cap":
        bad = draw(st.integers(-2, 0).map(str) | st.sampled_from(["", "x"]))
        argv += [draw(st.sampled_from(caps)), bad]
    where = None
    if command == "compute":
        where = draw(st.sampled_from([None, "dir", "file", "file/sub"]))
    return argv, where


@settings(max_examples=60, derandomize=True)
@given(case=cli_argv())
def test_main_survives_fuzzed_input(case, tmp_path_factory):
    # documented exit codes only, never a traceback, and stdout either
    # empty or one JSON record.  A few draws (an order-12 group over its
    # trivial subgroup) take seconds each, so the examples are fixed to
    # keep the test's time steady.
    argv, where = case
    if where is not None:
        base = tmp_path_factory.getbasetemp() / "fuzz-cache"
        base.mkdir(exist_ok=True)
        (base / "file").write_text("")
        argv = argv + ["--cache-dir", str(base / where)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("NORMONE_CACHE", None)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    assert len(lines) <= 1
    if lines:
        assert isinstance(json.loads(lines[0]), dict)
