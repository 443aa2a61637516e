"""Embedded reference sequences."""

import subprocess
import sys
from pathlib import Path

import pytest

from nonnesting import refdata


class TestLookup:
    def test_partition_table(self):
        seq = refdata.lookup("partitions", 3)
        assert seq.oeis_id == "A108304"
        assert seq.as_ints()[:6] == [1, 2, 5, 15, 52, 202]
        assert seq.offset == 1
        assert len(seq.terms) == 21

    def test_permutation_table(self):
        seq = refdata.lookup("permutations", 6)
        assert seq.as_ints()[:11] == [
            1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800, 39916680,
        ]

    def test_baxter_display(self):
        seq = refdata.lookup("baxter", 3)
        assert seq.offset == 0
        assert seq.term(0) == 1
        assert seq.term(10) == 1882960

    def test_not_found(self):
        with pytest.raises(KeyError):
            refdata.lookup("partitions", 2)

    def test_term_range(self):
        seq = refdata.lookup("partitions", 3)
        assert seq.term(1) == 1
        assert seq.term(21) == 40877248201308
        with pytest.raises(IndexError):
            seq.term(22)
        with pytest.raises(IndexError):
            seq.term(0)

    def test_coverage(self):
        table = refdata.all_sequences()
        for k in range(3, 8):
            assert ("partitions", k) in table
            assert ("partitions-enhanced", k) in table
        for k in range(3, 7):
            assert ("permutations", k) in table

    def test_terms_are_decimal_strings(self):
        for seq in refdata.all_sequences().values():
            for t in seq.terms:
                assert t == str(int(t))


def test_transcription_checksum():
    digest, ok = refdata.transcription_checksum()
    assert ok, f"embedded tables changed; checksum now {digest}"


def test_cli_import_leaves_hashlib_unloaded():
    # only transcription_checksum needs hashlib, and no command calls it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import nonnesting.cli; "
        "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
