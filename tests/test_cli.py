import json
import os
import random

import pytest

import normone.cli as cli
from normone.cli import (
    build_group, main, parse_cycles, parse_group_spec, _split_generators,
)
from normone.errors import SpecParseError
from normone.perms import Permutation

P = Permutation.from_cycles

RECORD_KEYS = {"group", "subgroup", "j_rank", "flasque_rank", "h1",
               "verdict", "ms", "version"}


class TestGroupSpecParsing:
    def test_basic_kinds(self):
        assert str(parse_group_spec("A6")) == "A6"
        assert parse_group_spec("A6").params == (6,)
        assert parse_group_spec("C2xC2").kind == "C*"
        assert build_group(parse_group_spec("C2xC2")).order() == 4
        assert build_group(parse_group_spec("D4")).order() == 8

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

    def test_missing_subgroup_flag(self, capsys):
        assert main(["compute", "A4"]) == 2

    def test_cap_exceeded_exit_code(self, capsys):
        # A8 subgroup enumeration is beyond the default class cap
        assert main(["compute", "A8", "--point-stabilizer", "8"]) == 3

    def test_whole_group_subgroup_rejected(self, capsys):
        # index 1 leaves no Chevalley module; clean error, not a traceback
        assert main(["compute", "S3", "--class", "1"]) == 2
        assert "index" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bad", [{}, {"h1": "oops"}])
    def test_invalid_cached_record_recomputes(self, tmp_path, capsys, bad):
        args = ["compute", "A4", "--point-stabilizer", "4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name) as fh:
            blob = json.load(fh)
        blob["record"] = bad
        with open(tmp_path / name, "w") as fh:
            json.dump(blob, fh)
        assert main(args) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == RECORD_KEYS and record["h1"] == ["2"]
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


def test_cold_runs_are_deterministic():
    import subprocess
    import sys
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

    def test_sha_oracle(self, capsys):
        rc = main(["sha-oracle", "C2xC2", "--subgroup", "()"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["sha2_omega"] == ["2"]

    def test_verify_paper_smallest(self, capsys):
        assert main(["verify-paper", "--max-n", "4"]) == 0
        out = capsys.readouterr()
        assert "PASS A4" in out.err


CAP_VALUES = {"--max-order": "2520", "--max-rank": "4096", "--max-cosets": "100000"}


@pytest.mark.parametrize("argv, reads", [
    (["compute", "A4", "--point-stabilizer", "4"], {"--max-order", "--max-rank"}),
    (["verify-paper"], {"--max-order", "--max-rank"}),
    (["classes", "A4"], {"--max-order"}),
    (["sha-oracle", "C2xC2", "--subgroup", "()"], {"--max-order"}),
    (["verify-schur", "4"], {"--max-cosets"}),
], ids=["compute", "verify-paper", "classes", "sha-oracle", "verify-schur"])
def test_commands_take_only_the_caps_they_read(argv, reads, capsys):
    parser = cli.build_parser()
    for flag, value in CAP_VALUES.items():
        if flag in reads:
            args = parser.parse_args(argv + [flag, value])
            assert getattr(args, flag[2:].replace("-", "_")) == int(value)
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag, value])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
