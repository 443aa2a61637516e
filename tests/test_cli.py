"""Command-line interface: output formats and exit codes."""

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonnesting import cli, closedform, gentree, oracle
from nonnesting.cli import run
from nonnesting.gentree import FamilySpec, count_levels
from nonnesting.series import SERIES_FAMILIES, TruncatedSeries

SRC = Path(__file__).resolve().parents[1] / "src"


def output(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def exit_code(argv):
    """run()'s return value, or the code argparse exits with."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestCount:
    def test_text(self, capsys):
        assert run(["count", "--family", "partitions", "--k", "3", "--n", "8"]) == 0
        out, _ = output(capsys)
        assert out.strip() == "1,2,5,15,52,202,859,3930"

    def test_json(self, capsys):
        rc = run(["count", "--family", "permutations", "--k", "9", "--n", "5",
                  "--format", "json"])
        assert rc == 0
        out, _ = output(capsys)
        data = json.loads(out)
        assert data["counts"] == ["1", "2", "6", "24", "120"]

    def test_csv(self, capsys):
        run(["count", "--family", "partitions", "--k", "3", "--n", "3",
             "--format", "csv"])
        out, _ = output(capsys)
        assert out.splitlines() == ["n,count", "1,1", "2,2", "3,5"]

    def test_all_labels(self, capsys):
        run(["count", "--family", "partitions", "--k", "3", "--n", "2",
             "--all-labels", "--format", "json"])
        out, _ = output(capsys)
        data = json.loads(out)
        counts = {tuple(e["label"]): e["count"] for e in data["labels"]}
        assert counts == {(0, 0): "2", (1, 0): "3", (2, 0): "1"}

    def test_unconstrained_family(self, capsys):
        assert run(["count", "--family", "open-partitions", "--n", "4"]) == 0
        out, _ = output(capsys)
        assert out.strip() == "1,2,5,15"

    def test_k_required(self, capsys):
        assert run(["count", "--family", "partitions", "--n", "4"]) == 2

    def test_k_rejected_for_unconstrained(self, capsys):
        rc = run(["count", "--family", "open-partitions", "--k", "3", "--n", "4"])
        assert rc == 2

    def test_label_budget_exit_code(self, capsys):
        rc = run(["count", "--family", "partitions", "--k", "4", "--n", "12",
                  "--max-labels", "5"])
        assert rc == 3

    def test_label_budget_bounds_pruned_set(self, capsys):
        # level 7 has 50 labels in full but 43 that can still close by n=12
        argv = ["count", "--family", "partitions", "--k", "4", "--n", "12",
                "--max-labels", "43"]
        assert run(argv) == 0
        out, _ = output(capsys)
        assert out.strip() == "1,2,5,15,52,203,877,4139,21119,115495,671969,4132936"
        assert run(argv + ["--all-labels"]) == 3
        _, err = output(capsys)
        assert "label budget 43 exceeded at level 7 (50 labels)" in err

    @pytest.mark.parametrize("extra", [[], ["--all-labels", "--format", "json"]])
    def test_stats(self, capsys, extra):
        argv = ["count", "--family", "partitions-enhanced", "--k", "3",
                "--n", "10"] + extra
        assert run(argv) == 0
        plain, err = output(capsys)
        assert err == ""
        assert run(argv + ["--stats"]) == 0
        out, err = output(capsys)
        assert out == plain
        records = [json.loads(line) for line in err.splitlines()]
        assert [r["level"] for r in records] == list(range(1, 11))
        assert all(set(r) == {"level", "labels_kept", "push_s",
                              "max_count_bits"} for r in records)
        levels = count_levels(FamilySpec("partitions-enhanced", 3), 10)
        sizes = [len(level.entries) for level in levels[1:]]
        if extra:
            assert [r["labels_kept"] for r in records] == sizes
        else:
            # the counting sequence keeps only labels that can still close
            kept = [r["labels_kept"] for r in records]
            assert all(a <= b for a, b in zip(kept, sizes))
            assert kept[-1] == 1 < sizes[-1]

    def test_stats_report_the_level_over_budget(self, capsys):
        argv = ["count", "--family", "partitions", "--k", "4", "--n", "12",
                "--max-labels", "43", "--all-labels", "--stats"]
        assert run(argv) == 3
        _, err = output(capsys)
        *lines, message = err.splitlines()
        assert json.loads(lines[-1])["labels_kept"] == 50
        assert message == "resource limit: label budget 43 exceeded at level 7 (50 labels)"

    def test_all_labels_same_order_in_every_format(self, capsys):
        # two-digit entries must sort numerically: (2, 0) before (10, 0)
        argv = ["count", "--family", "partitions", "--k", "3", "--n", "12",
                "--all-labels", "--format"]
        run(argv + ["json"])
        out, _ = output(capsys)
        from_json = [tuple(e["label"]) for e in json.loads(out)["labels"]]
        run(argv + ["csv"])
        out, _ = output(capsys)
        rows = out.splitlines()[1:]
        from_csv = [tuple(json.loads(next(csv.reader([r]))[0])) for r in rows]
        run(argv + ["text"])
        out, _ = output(capsys)
        from_text = [ast.literal_eval(line.split(": ")[0]) for line in out.splitlines()]
        assert from_json == sorted(from_json)
        assert (2, 0) in from_json and (10, 0) in from_json
        assert from_csv == from_json
        assert from_text == from_json


    @pytest.mark.parametrize("family,k", [
        ("partitions", 2), ("permutations", 2), ("permutations", 3),
        ("open-partitions", None),
    ])
    def test_all_labels_text_and_csv_as_sorted_items(self, capsys, family, k):
        # the level built label by label through the succession rule, its
        # items sorted and rendered as `count` used to render them
        spec = FamilySpec(family, k)
        n = 7
        level = {spec.root_label(): 1}
        for _ in range(n):
            nxt = Counter()
            for label, count in level.items():
                for child, mult in spec.successors(label).items():
                    nxt[child] += count * mult
            level = nxt
        items = sorted(level.items())
        argv = ["count", "--family", family, "--n", str(n), "--all-labels"]
        if k is not None:
            argv += ["--k", str(k)]
        run(argv)
        out, _ = output(capsys)
        assert out == "".join(f"{label}: {count}\n" for label, count in items)
        run(argv + ["--format", "csv"])
        out, _ = output(capsys)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "count"])
        writer.writerows([json.dumps(l), str(c)] for l, c in items)
        assert out == buf.getvalue()

    @pytest.mark.parametrize("argv,fmt,pinned", [
        # digests of the dumps printed while every label was decoded for output
        ("permutations --k 3 --n 8", "text",
         "b2e59ec2e397a1fe81b83093b7a57be964e4ed917ac9e43bc504303d4f5fab4a"),
        ("permutations --k 3 --n 8", "json",
         "b7a3cae7df27dfcb394b0e5ae1a35e1dc8cfa26231a7e55fbc8033a36b801d06"),
        ("permutations --k 3 --n 8", "csv",
         "b7c73549cbef2920bd3ccc281fff022f0050a62d1c4d40edc6ad172a8071781a"),
        ("permutations --k 4 --n 8", "text",
         "57757f2ff5b72d7384485a2f5bd7581ffc4a816c29e860326259187546a509cf"),
        ("permutations --k 4 --n 8", "json",
         "23f5ceb4b45487765801663a1d1880a08ccae4677d8e808a09ecb21f7d812fac"),
        ("permutations --k 4 --n 8", "csv",
         "ac4279c8c00aa1256531df868353574daa606b8f4ce11b587a01d0b3ef49c71f"),
        ("permutations --k 5 --n 8", "text",
         "a06d3a5389c993a06a2fa6d51a41c4b680360d6f3a08a7bba9f18a97a65a82c4"),
        ("permutations --k 5 --n 8", "json",
         "ea42d29ea1048b276eb38a1b49c00ab8d3f3fd7e7a1469bdd7c8d8794257e66a"),
        ("permutations --k 5 --n 8", "csv",
         "601fc0df6c789ecfc50b88d0c986677250ed7f0a608d4b9824f8280ba4ca90bc"),
        ("partitions-enhanced --k 3 --n 20", "text",
         "2822bbb52efe5a400b2139854eb9f67b4b053833f005f387edd1ab8282b62da6"),
        ("partitions-enhanced --k 3 --n 20", "json",
         "5604a94d7036f038b07dcc8548542de1b01ee2d2523d7cc120122e580d173c4b"),
        ("partitions-enhanced --k 3 --n 20", "csv",
         "a7616f41129cb1463158b245a16044fae11ecab4a170f6a84dc12ac2419f8c83"),
    ])
    def test_all_labels_dump_unchanged(self, capsys, argv, fmt, pinned):
        argv = ["count", "--family", *argv.split(), "--all-labels", "--format", fmt]
        assert run(argv) == 0
        out, _ = output(capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == pinned


class TestSeries:
    def test_partitions(self, capsys):
        run(["series", "--family", "partitions", "--k", "3", "--n", "6"])
        out, _ = output(capsys)
        assert out.strip() == "1,1,2,5,15,52,202"

    def test_baxter(self, capsys):
        run(["series", "--family", "baxter", "--n", "5"])
        out, _ = output(capsys)
        assert out.strip() == "1,2,6,22,92,422"

    def test_permutations3(self, capsys):
        run(["series", "--family", "permutations3", "--n", "5"])
        out, _ = output(capsys)
        assert out.strip() == "1,1,2,6,24,118"

    def test_full_dump(self, capsys):
        run(["series", "--family", "baxter", "--n", "2", "--full"])
        out, _ = output(capsys)
        lines = out.splitlines()
        assert lines[0] == "# variables: z u v"
        assert "2 0 0: 2" in lines  # constant term of the z^2 slice

    def test_permutations_any_k(self, capsys):
        assert run(["series", "--family", "permutations", "--k", "4", "--n", "8"]) == 0
        series_out, _ = output(capsys)
        run(["count", "--family", "permutations", "--k", "4", "--n", "8"])
        count_out, _ = output(capsys)
        assert series_out == "1," + count_out

    @pytest.mark.parametrize("argv,pinned", [
        # digests of the dumps printed before the counting sequence was pruned
        ("partitions --k 3 --n 7",
         "7d14de385e1c0709f2a15903b9555dfa08d08b97563db493998ae2bd4cf38317"),
        ("partitions-enhanced --k 4 --n 6",
         "d643169317e81d23faa1c1366a64d48f58cfd03426e47415c183e25fc4886dd1"),
        ("permutations --k 4 --n 6",
         "86d230921f959a948a2ba8d2c8559d6b174332f8841ff17c5aa591bd59c41fa2"),
        ("baxter --n 8",
         "4ae666cddd1fbc335ddac9c3a4096afdef05fa5c91755469cf2f6757814a9616"),
    ])
    def test_full_dump_unchanged(self, capsys, argv, pinned):
        assert run(["series", "--family", *argv.split(), "--full"]) == 0
        out, _ = output(capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == pinned

    @pytest.mark.parametrize("argv", [
        "permutations --k 4 --n 9",
        "partitions-enhanced --k 3 --n 9 --full",
        "baxter --n 9",
    ])
    def test_stats(self, capsys, argv):
        argv = ["series", "--family", *argv.split()]
        assert run(argv) == 0
        plain, err = output(capsys)
        assert err == ""
        assert run(argv + ["--stats"]) == 0
        out, err = output(capsys)
        assert out == plain
        records = [json.loads(line) for line in err.splitlines()]
        assert [r["order"] for r in records] == list(range(1, 10))
        assert all(set(r) == {"order", "terms_built", "terms_kept", "phi_s"}
                   for r in records)

    def test_permutations3_is_permutations_at_k3(self, capsys):
        # digest of the permutations3 dump printed before the general-k
        # equation replaced the k=3 one
        pinned = "cc7f916afebf0bbdb21c371bb89d49530396030c4044291eb4d568f1ee15a28f"
        run(["series", "--family", "permutations3", "--n", "6", "--full"])
        alias, _ = output(capsys)
        assert hashlib.sha256(alias.encode()).hexdigest() == pinned
        assert alias.startswith("# variables: z u v w\n")
        run(["series", "--family", "permutations", "--k", "3", "--n", "6", "--full"])
        general, _ = output(capsys)
        assert general == alias


class TestGenerate:
    def test_closed_only_partition_count(self, capsys):
        run(["generate", "--family", "partitions", "--k", "3", "--n", "4",
             "--closed-only"])
        out, _ = output(capsys)
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 15
        assert all(row["open_arcs"] == [] for row in rows)

    def test_stream_is_unique(self, capsys):
        run(["generate", "--family", "permutations", "--k", "3", "--n", "3"])
        out, _ = output(capsys)
        lines = out.splitlines()
        assert len(lines) == len(set(lines)) == 34


    @pytest.mark.parametrize("argv,family", [
        ("generate --family partitions --n 3", "partitions"),
        ("generate --family open-permutations --k 3 --n 3", "open-permutations"),
    ])
    def test_k_rule_usage_errors(self, argv, family, capsys):
        assert run(argv.split()) == 2
        out, err = output(capsys)
        assert out == ""
        assert err.startswith("error: ")
        assert family in err


class TestOracleCommand:
    def test_count(self, capsys):
        assert run(["oracle", "--family", "permutations", "--k", "3", "--n", "5"]) == 0
        out, _ = output(capsys)
        assert out.strip() == "118"

    def test_guard_exit_code(self, capsys):
        assert run(["oracle", "--family", "partitions", "--k", "3", "--n", "40"]) == 3

    @pytest.mark.parametrize("extra", [[], ["--stats"]])
    @pytest.mark.parametrize("argv,message", [
        # Bell(13) = 27,644,437 and 11! = 39,916,800 are past the 10^7 guard
        ("partitions-enhanced --k 3 --n 13",
         "resource limit: refusing to enumerate 27644437 partitions"),
        ("permutations --k 3 --n 11",
         "resource limit: refusing to enumerate 39916800 permutations"),
    ])
    def test_guard_trips_before_any_walk(self, monkeypatch, capsys, argv, message,
                                         extra):
        def entered(*args):
            raise AssertionError("a walk started past the guard")

        monkeypatch.setattr(oracle, "_partition_walk", entered)
        monkeypatch.setattr(oracle, "_permutation_walk", entered)
        assert run(["oracle", "--family", *argv.split(), *extra]) == 3
        assert output(capsys) == ("", message + "\n")

    @pytest.mark.parametrize("family,n,objects", [
        ("partitions", 8, 4140), ("partitions-enhanced", 7, 877),
        ("permutations", 6, 720),
    ])
    def test_stats(self, capsys, family, n, objects):
        argv = ["oracle", "--family", family, "--k", "3", "--n", str(n)]
        assert run(argv) == 0
        plain, err = output(capsys)
        assert err == ""
        assert run(argv + ["--stats"]) == 0
        out, err = output(capsys)
        assert out == plain
        (record,) = [json.loads(line) for line in err.splitlines()]
        assert set(record) == {"family", "n", "objects", "histogram", "seconds",
                               "objects_per_s"}
        assert (record["family"], record["n"]) == (family, n)
        assert record["histogram"] == list(oracle.nesting_histogram(family, n))
        assert record["objects"] == sum(record["histogram"]) == objects
        assert record["seconds"] > 0
        assert record["objects_per_s"] == pytest.approx(objects / record["seconds"])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no cap on int-to-string conversion")
class TestBigCounts:
    """Counts past CPython's cap on int-to-string digits print exactly.  The
    commands run with the cap at its minimum, 640 digits, so that 320! (665
    digits) is past it."""

    @staticmethod
    def run_capped(argv):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = run(argv)
            assert sys.get_int_max_str_digits() == 640  # the cap is restored
        finally:
            sys.set_int_max_str_digits(saved)
        return code

    def run_ok(self, capsys, argv):
        assert self.run_capped(argv) == 0
        out, err = output(capsys)
        assert err == ""
        return out

    COUNT = ["count", "--family", "open-permutations", "--n", "320"]

    def test_count_text(self, capsys):
        out = self.run_ok(capsys, self.COUNT)
        assert out.rstrip("\n").split(",")[-1] == "%d" % factorial(320)

    def test_count_json(self, capsys):
        data = json.loads(self.run_ok(capsys, self.COUNT + ["--format", "json"]))
        assert data["counts"][-1] == "%d" % factorial(320)

    def test_count_csv(self, capsys):
        out = self.run_ok(capsys, self.COUNT + ["--format", "csv"])
        assert out.splitlines()[-1] == "320,%d" % factorial(320)

    def test_all_labels_json(self, capsys):
        out = self.run_ok(capsys, self.COUNT + ["--all-labels", "--format", "json"])
        counts = {tuple(e["label"]): int(e["count"])
                  for e in json.loads(out)["labels"]}
        assert "%d" % factorial(320) in out
        assert counts[(0,)] == factorial(320)
        assert sum(counts.values()) == closedform.open_permutation_count(320)

    def test_series_coefficients(self, monkeypatch, capsys):
        # no equation reaches 640 digits quickly, so the solver is replaced
        # by a series holding such coefficients
        big, bigger = factorial(320), factorial(330)
        f = TruncatedSeries(("z", "v0"), 2, {(0, 0): 1, (2, 0): big, (2, 1): bigger})
        monkeypatch.setattr(cli, "solve_equation", lambda *args, **kwargs: f)
        out = self.run_ok(capsys, ["series", "--family", "partitions", "--k", "3",
                                   "--n", "2"])
        assert out == "1,0,%d\n" % big
        out = self.run_ok(capsys, ["series", "--family", "baxter", "--n", "2"])
        assert out == "1,0,%d\n" % (big + bigger)
        out = self.run_ok(capsys, ["series", "--family", "partitions", "--k", "3",
                                   "--n", "2", "--full"])
        assert out.splitlines()[-2:] == ["2 0: %d" % big, "2 1: %d" % bigger]

    def test_verify_values(self, monkeypatch, capsys):
        big = factorial(320)
        check = cli.Check("egf", "egf/big/n<={n}", 3, lambda n: ([big], [big + 1]))
        monkeypatch.setattr(cli, "CHECKS", (check,))
        assert self.run_capped(["verify", "--suite", "egf", "--max-n", "3"]) == 1
        out, _ = output(capsys)
        assert out.splitlines()[1:3] == ["      expected: [%d]" % big,
                                         "      actual:   [%d]" % (big + 1)]


class TestRefdataCommand:
    def test_dump(self, capsys):
        assert run(["refdata", "--family", "partitions", "--k", "3"]) == 0
        out, _ = output(capsys)
        data = json.loads(out)
        assert data["oeis_id"] == "A108304"
        assert data["terms"][5] == "202"

    def test_not_found(self, capsys):
        assert run(["refdata", "--family", "partitions", "--k", "2"]) == 2

    def test_not_found_message_is_unquoted(self, capsys):
        assert run(["refdata", "--family", "baxter", "--k", "5"]) == 2
        out, err = output(capsys)
        assert out == ""
        assert err == "error: no embedded reference data for ('baxter', k=5)\n"


class TestVerify:
    def test_egf_suite(self, capsys):
        assert run(["verify", "--suite", "egf", "--max-n", "8"]) == 0
        out, _ = output(capsys)
        assert "overall: pass" in out

    def test_json_format(self, capsys):
        run(["verify", "--suite", "baxter", "--max-n", "8", "--format", "json"])
        out, _ = output(capsys)
        data = json.loads(out)
        assert data["overall"] == "pass"
        assert all(c["status"] == "pass" for c in data["checks"])

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_failed_check(self, monkeypatch, capsys):
        bad = cli.Check("egf", "egf/bad/n<={n}", 3, lambda n: ([n], [n + 1]))
        monkeypatch.setattr(cli, "CHECKS", (bad,))
        assert run(["verify", "--suite", "egf", "--max-n", "5"]) == 1
        out, _ = output(capsys)
        lines = out.splitlines()
        assert lines[0].startswith("FAIL  egf/bad/n<=3  [")
        assert lines[1:] == [
            "      expected: [3]",
            "      actual:   [4]",
            "overall: fail",
        ]
        assert run(["verify", "--format", "json"]) == 1
        data = json.loads(output(capsys)[0])
        assert data["overall"] == "fail"
        assert [(c["check_id"], c["status"], c["expected"], c["actual"])
                for c in data["checks"]] == [("egf/bad/n<=3", "fail", "[3]", "[4]")]

    def test_check_ids_and_order(self):
        # verify's ids and their order are part of its stdout
        rows = cli.run_suite("all", 6)
        assert [c["check_id"] for c in rows] == [
            *(f"tables/partitions/k={k}/n<=6" for k in range(3, 8)),
            *(f"tables/partitions-enhanced/k={k}/n<=6" for k in range(3, 8)),
            *(f"tables/permutations/k={k}/n<=6" for k in range(3, 7)),
            *(f"cross/{family}/k={k}/{method}"
              for family in ("partitions", "partitions-enhanced")
              for k in (2, 3, 4)
              for method in ("series", "oracle")),
            "cross/permutations/k=3/series",
            *(f"cross/permutations/k={k}/oracle" for k in (2, 3, 4)),
            "baxter/series-vs-formula/n<=6",
            "baxter/series-vs-embedded",
            "egf/open-partitions/n<=6",
            "egf/open-permutations/n<=6",
        ]
        assert all(c["status"] == "pass" for c in rows)


@pytest.mark.parametrize("argv", [
    "count --family partitions --k 3 --n -1",
    "count --family partitions --k 1 --n 4",
    "oracle --family partitions --k 3 --n -2",
    "series --family baxter --k 5 --n 4",
    "series --family permutations --n 4",
    "series --family partitions-enhanced --n 4",
    "series --family permutations3 --k 4 --n 4",
    "count --family partitions --k 3 --n 4 --max-labels 0",
    "count --family partitions --k 3 --n 4 --max-labels -3",
])
def test_usage_errors_exit_2(argv, capsys):
    assert exit_code(argv.split()) == 2
    out, err = output(capsys)
    assert out == ""
    assert "error: " in err


_SMALL_INT = st.integers(-3, 5).map(str)
_VALUES = {
    "--family": st.sampled_from([
        "partitions", "partitions-enhanced", "permutations", "permutations3",
        "baxter", "open-partitions", "open-permutations", "widgets",
    ]),
    "--k": _SMALL_INT | st.just("x"),
    "--n": _SMALL_INT,
    "--max-labels": _SMALL_INT,
    "--max-n": _SMALL_INT,
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--suite": st.sampled_from(["all", "egf", "baxter"]),
}
# each command's own options (switches take no value)
_FLAGS = {
    "count": ("--family", "--k", "--n", "--max-labels", "--format", "--all-labels"),
    "series": ("--family", "--k", "--n", "--full", "--stats"),
    "generate": ("--family", "--k", "--n", "--closed-only"),
    "oracle": ("--family", "--k", "--n"),
    "verify": ("--suite", "--max-n", "--format"),
    "refdata": ("--family", "--k"),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_argv_keeps_exit_codes(data):
    command = data.draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in _FLAGS[command]:
        if flag not in _VALUES:
            if data.draw(st.booleans()):
                argv.append(flag)
            continue
        # verify's default --max-n of 12 takes seconds, so it is always set
        values = _VALUES[flag]
        value = data.draw(values if flag == "--max-n" else st.none() | values)
        if value is not None:
            argv += [flag, value]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = exit_code(argv)
    assert rc in (0, 1, 2, 3)


def _all_subcommand_parser(command=None):
    """The plain path `run` replaced: a copy of the parser it built for
    every argv, with all six subcommands, whatever the command."""
    parser = argparse.ArgumentParser(
        prog="nonnesting",
        description="Enumerate set partitions and permutations with no k "
        "mutually nested arcs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="generating-tree counts")
    p.add_argument("--family", required=True, choices=gentree.FAMILIES)
    p.add_argument("--k", type=cli._NESTING, help="forbidden nesting size")
    p.add_argument("--n", type=cli._SIZE, required=True)
    p.add_argument("--all-labels", action="store_true",
                   help="dump the full label distribution at level n")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-labels", type=cli._BUDGET, help="distinct-label budget")
    p.add_argument("--stats", action="store_true",
                   help="write one JSON line per level to stderr: labels "
                   "kept, push seconds, widest count in bits")
    p.set_defaults(func=cli._cmd_count)

    p = sub.add_parser("series", help="functional-equation solutions")
    p.add_argument("--family", required=True,
                   choices=(*SERIES_FAMILIES, "permutations3"))
    p.add_argument("--k", type=cli._NESTING)
    p.add_argument("--n", type=cli._SIZE, required=True)
    p.add_argument("--full", action="store_true",
                   help="dump every coefficient, not just the counting terms")
    p.add_argument("--stats", action="store_true",
                   help="write one JSON line per z-order to stderr: terms "
                   "built and kept, seconds in Phi")
    p.set_defaults(func=cli._cmd_series)

    p = sub.add_parser("generate", help="stream all diagrams of size n")
    p.add_argument("--family", required=True, choices=gentree.FAMILIES)
    p.add_argument("--k", type=cli._NESTING)
    p.add_argument("--n", type=cli._SIZE, required=True)
    p.add_argument("--closed-only", action="store_true",
                   help="emit only diagrams without semi-arcs")
    p.set_defaults(func=cli._cmd_generate)

    p = sub.add_parser("oracle", help="brute-force count")
    p.add_argument("--family", required=True,
                   choices=gentree.CONSTRAINED_FAMILIES)
    p.add_argument("--k", type=cli._NESTING, required=True)
    p.add_argument("--n", type=cli._SIZE, required=True)
    p.add_argument("--stats", action="store_true",
                   help="write one JSON line to stderr: objects walked, their "
                   "maximum-nesting histogram, seconds and objects per second")
    p.set_defaults(func=cli._cmd_oracle)

    p = sub.add_parser("verify", help="cross-check harness")
    p.add_argument(
        "--suite",
        default="all",
        choices=(*dict.fromkeys(c.suite for c in cli.CHECKS), "all"),
    )
    p.add_argument("--max-n", type=cli._SIZE, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli._cmd_verify)

    p = sub.add_parser("refdata", help="dump an embedded reference sequence")
    p.add_argument(
        "--family",
        required=True,
        choices=("partitions", "partitions-enhanced", "permutations", "baxter"),
    )
    p.add_argument("--k", type=cli._NESTING, required=True)
    p.set_defaults(func=cli._cmd_refdata)

    return parser


# the times that `verify` prints, in text and in JSON, and that --stats
# writes to stderr (push_s, phi_s, seconds, objects_per_s)
_TIMES = re.compile(r"\[\d+\.\d+s\]|\"(runtime|seconds|\w+_s)\": [\d.e+-]+")


def _outcome(argv):
    """(exit code, stdout, stderr) of `run(argv)`, times masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    return code, _TIMES.sub("<t>", out.getvalue()), _TIMES.sub("<t>", err.getvalue())


def _outcome_of_all_subcommand_parser(argv):
    with mock.patch.object(cli, "_build_parser", _all_subcommand_parser):
        return _outcome(argv)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["--", "count"], ["cou"],
    "count --family partitions --k 3 --n 4 --zz".split(),
    *([command, "--help"] for command in _FLAGS),
    *([command] for command in _FLAGS),
    *([command, "bogus"] for command in _FLAGS),
    *(argv.split() for argv in [
        "count --family partitions --k 3 --n -1",
        "count --family partitions --k 1 --n 4",
        "oracle --family partitions --k 3 --n -2",
        "series --family baxter --k 5 --n 4",
        "series --family permutations --n 4",
        "series --family partitions-enhanced --n 4",
        "series --family permutations3 --k 4 --n 4",
        "count --family partitions --k 3 --n 4 --max-labels 0",
        "count --family partitions --k 3 --n 4 --max-labels -3",
    ]),
], ids=" ".join)
def test_parser_equals_all_subcommand_parser(argv):
    """`run` builds only the invoked subcommand's parser; its exit code,
    stdout and stderr are those of the full parser it replaced."""
    assert _outcome(argv) == _outcome_of_all_subcommand_parser(argv)


@st.composite
def _fuzzed_argv(draw):
    """The argvs `test_fuzzed_argv_keeps_exit_codes` draws."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in _FLAGS[command]:
        if flag not in _VALUES:
            if draw(st.booleans()):
                argv.append(flag)
            continue
        values = _VALUES[flag]
        value = draw(values if flag == "--max-n" else st.none() | values)
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=100, deadline=None)
@given(_fuzzed_argv())
def test_fuzzed_parser_equals_all_subcommand_parser(argv):
    assert _outcome(argv) == _outcome_of_all_subcommand_parser(argv)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["count", "--help"],
    "count --family partitions --k 3 --n 6".split(),
    "refdata --family baxter --k 2 --zz".split(),
])
def test_parser_reads_the_command_from_sys_argv(monkeypatch, argv):
    """`run(None)` reads the subcommand from sys.argv before it builds
    the parser, and parses the same argv as the full parser."""
    monkeypatch.setattr(sys, "argv", ["nonnesting", *argv])
    assert _outcome(None) == _outcome_of_all_subcommand_parser(None)
    assert _outcome(None) == _outcome(argv)


@pytest.mark.parametrize("module", ["nonnesting", "nonnesting.cli"])
def test_module_entry_points(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    ok = cli("count", "--family", "partitions", "--k", "3", "--n", "8")
    assert (ok.returncode, ok.stdout) == (0, "1,2,5,15,52,202,859,3930\n")
    bad = cli("count", "--family", "partitions", "--k", "3", "--n", "-1")
    assert bad.returncode == 2
    assert "error: " in bad.stderr and "Traceback" not in bad.stderr


@pytest.mark.parametrize("argv,lines_read", [
    # an endless stream: the reader takes one line and closes the pipe
    ("generate --family open-partitions --n 12", 1),
    # one buffered write: the pipe is closed before it is flushed
    ("count --family partitions --k 3 --n 12 --all-labels", 0),
])
def test_closed_pipe_exits_quietly(argv, lines_read):
    proc = subprocess.Popen(
        [sys.executable, "-m", "nonnesting", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")
