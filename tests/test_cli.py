import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from spinfock import cli, crystal, modular
from spinfock import partitions as pt
from spinfock.canonical import CanonicalBasis
from spinfock.cli import _emit_json, _write, main
from spinfock.partitions import json_document
from spinfock.verify import run_suite
from test_source import exception_classes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(got, want):
    """got == want, else fail naming the first differing line: pytest's
    own diff of two long documents takes minutes."""
    if got != want:
        a, b = got.splitlines(True), want.splitlines(True)
        k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        pytest.fail(f"line {k + 1}: got {a[k:k + 1]}, want {b[k:k + 1]}",
                    pytrace=False)


class TestCrystalCommand:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "crystal", "--n", "1", "--max-degree", "7",
                           "--format", "dot")
        assert code == 0
        assert out.startswith("digraph crystal {")
        assert '"3,2,1" -> "3,3,1" [label="1"];' in out

    def test_vertex_counts(self, capsys):
        from spinfock.partitions import enumerate_dpr_h
        code, out, _ = run(capsys, "crystal", "--n", "1", "--max-degree", "7",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        for m in range(8):
            got = sum(1 for v in obj["vertices"] if sum(v) == m)
            assert got == len(enumerate_dpr_h(3, m))

    def test_start_vertex(self, capsys):
        code, out, _ = run(capsys, "crystal", "--n", "1", "--start", "3",
                           "--max-degree", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [3] in obj["vertices"]
        assert [] not in obj["vertices"]

    def test_printed_start(self, capsys):
        outs = {run(capsys, "crystal", "--n", "1", "--start", start,
                    "--max-degree", "20") for start in ("(6 3)", "6,3")}
        assert len(outs) == 1 and next(iter(outs))[0] == 0

    def test_degree_zero(self, capsys):
        code, out, _ = run(capsys, "crystal", "--n", "2", "--max-degree", "0",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"] == [[]]

    def test_start_above_bound_is_usage_error(self, capsys):
        code, out, err = run(capsys, "crystal", "--n", "1", "--start", "3",
                             "--max-degree", "2")
        assert (code, out) == (2, "")
        assert err == "error: start (3,) has degree 3, above max degree 2\n"

    def test_negative_max_degree_is_usage_error(self, capsys):
        code, out, err = run(capsys, "crystal", "--n", "1", "--max-degree",
                             "-1")
        assert (code, out) == (2, "")
        assert err == "error: degree must be nonnegative, got -1\n"

    def test_invalid_start(self, capsys):
        code, _, err = run(capsys, "crystal", "--n", "1", "--start", "2,2",
                           "--max-degree", "4")
        assert code == 2
        assert "is not a DP_3 partition" in err

    def test_zero_part_is_usage_error(self, capsys):
        code, out, err = run(capsys, "crystal", "--n", "1", "--start", "3,0",
                             "--max-degree", "4")
        assert (code, out, err) == (2, "", "error: '3,0' has a zero part\n")


class TestCanonicalCommand:
    def test_table_matches_embedded_rendering(self, capsys):
        from spinfock import fixtures as fx
        from spinfock.canonical import BasisMatrix
        code, out, _ = run(capsys, "canonical", "--n", "1", "--m", "10",
                           "--format", "table")
        assert code == 0
        embedded = BasisMatrix(
            3, 10, fx.DPR3_10,
            {mu: fx.fock_vector(d) for mu, d in fx.CANONICAL_3_10.items()})
        assert out == embedded.render_table()

    def test_json_contains_degree21_columns(self, capsys):
        code, out, _ = run(capsys, "canonical", "--p", "7", "--m", "21",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        labels = [tuple(c["label"]) for c in obj["columns"]]
        assert (7, 5, 4, 3, 2) in labels
        assert (6, 5, 4, 3, 2, 1) in labels

    def test_degree_zero(self, capsys):
        code, out, _ = run(capsys, "canonical", "--n", "1", "--m", "0",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["columns"] == [
            {"label": [], "bottom": [],
             "entries": [{"row": [], "poly": {"0": 1}}]}]

    def test_slow_flag_agrees(self, capsys):
        for argv in [("canonical", "--n", "1", "--m", "9"),
                     ("canonical", "--n", "1", "--m", "16",
                      "--format", "json")]:
            code, fast_out, _ = run(capsys, *argv)
            code2, slow_out, _ = run(capsys, *argv, "--slow")
            assert code == code2 == 0
            assert_same_text(slow_out, fast_out)

    @pytest.mark.parametrize("argv, m", [
        (("canonical", "--n", "1"), "-1"), (("decomp", "--p", "3"), "-2")],
        ids=["canonical", "decomp"])
    def test_negative_degree_is_usage_error(self, capsys, argv, m):
        code, out, err = run(capsys, *argv, "--m", m)
        assert (code, out) == (2, "")
        assert err == f"error: degree must be nonnegative, got {m}\n"


class TestDecompCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "decomp", "--p", "3", "--m", "10")
        assert code == 0
        from spinfock import fixtures as fx
        assert out == fx.reduced_matrix_3_10().render_table()

    def test_m11_labels(self, capsys):
        code, out, _ = run(capsys, "decomp", "--p", "3", "--m", "11",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [list(c["label"]) for c in obj["columns"]] == [
            [6, 4, 1], [5, 4, 2], [5, 3, 2, 1], [4, 3, 3, 1], [3, 3, 3, 2]]

    def test_tiny_block(self, capsys):
        code, out, _ = run(capsys, "decomp", "--p", "3", "--m", "2",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["columns"] == [
            {"label": [2], "entries": [{"row": [2], "value": 1}]}]

    @pytest.mark.parametrize("p, m, note", [
        (5, 20, "1 negative entry at p=5 m=20; first at row (11 4 3 2), "
                "column (5 5 4 3 2 1)"),
        (3, 27, "3 negative entries at p=3 m=27; first at row "
                "(8 6 5 4 3 1), column (6 6 5 4 3 2 1)"),
        (3, 10, None),
        (5, 24, "2 negative entries at p=5 m=24; first at row "
                "(14 4 3 2 1), column (5 5 5 5 4)")],
        ids=["p5-m20", "p3-m27", "p3-m10", "p5-m24"])
    def test_negative_entries_noted_on_stderr(self, capsys, p, m, note):
        R = modular.reduced_matrix(p, m)
        for fmt, want in [("table", R.render_table()), ("csv", R.to_csv()),
                          ("json", json.dumps(R.to_json(), indent=2) + "\n")]:
            code, out, err = run(capsys, "decomp", "--p", str(p), "--m",
                                 str(m), "--format", fmt)
            assert (code, out) == (0, want)
            assert err == (f"note: {note}\n" if note else "")


class TestLaddersCommand:
    def test_big_example(self, capsys):
        code, out, _ = run(capsys, "ladders", "--n", "3", "--partition",
                           "11,7,7,4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["ladders"]) == 22
        assert obj["ladders"][6] == {"index": 7, "residue": 3, "cells": 3}

    def test_text_monomial(self, capsys):
        code, out, _ = run(capsys, "ladders", "--n", "1", "--partition", "1")
        assert code == 0
        assert "monomial: f_1 |0>" in out

    def test_monomial_3321(self, capsys):
        code, out, _ = run(capsys, "ladders", "--n", "1", "--partition", "3321")
        assert code == 0
        assert "monomial: f_1 f_0 f_1^(2) f_0 f_1^(2) f_0 f_1 |0>" in out

    def test_printed_partition(self, capsys):
        assert (run(capsys, "ladders", "--n", "1", "--partition", "(3 3 2 1)")
                == run(capsys, "ladders", "--n", "1", "--partition", "3321"))

    def test_invalid_partition(self, capsys):
        code, _, err = run(capsys, "ladders", "--n", "1", "--partition", "2,2")
        assert code == 2

    def test_label_errors_share_check_dp_h(self, capsys):
        for argv in (["crystal", "--start", "2,2", "--max-degree", "4"],
                     ["ladders", "--partition", "2,2"]):
            code, out, err = run(capsys, *argv, "--n", "1")
            assert (code, out, err) == (
                2, "", "error: (2, 2) is not a DP_3 partition\n")
        code, _, err = run(capsys, "ladders", "--n", "1", "--partition", "()")
        assert (code, err) == (2, "error: empty partition has no ladders\n")

    def test_non_digit_partition_is_usage_error(self, capsys):
        for argv in (["crystal", "--start", "1 2", "--max-degree", "4"],
                     ["ladders", "--partition", "3a"]):
            code, out, err = run(capsys, *argv, "--n", "1")
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read ")
            assert err.count("\n") == 1
            assert "comma-separated parts (11,7,7,4)" in err


class TestVerifyCommand:
    def test_paper_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert all(r["ok"] for r in obj["results"])

    def test_properties_suite_with_exports(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "properties",
                           "--max-degree", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        combos = obj["exports"]["external_column_combinations_p3_m11"]
        assert [[3, 3, 3, 2]] in combos
        assert [[4, 3, 3, 1], [6, 4, 1]] in combos
        labels = [c["label"] for c in
                  obj["exports"]["reduced_matrix_p3_m11"]["columns"]]
        assert len(labels) == 5

    @pytest.mark.parametrize("suite", ["paper", "properties", "all"])
    def test_stdout_is_the_report(self, capsys, suite):
        # the report carries its exports; the command adds nothing
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-degree", "6")
        assert code == 0
        report = run_suite(suite, max_degree=6)
        assert out == json.dumps(report.to_json(), indent=2) + "\n"
        assert (report.exports is None) == (suite == "paper")

    def test_stdout_independent_of_seed(self, capsys):
        # perfbench/run.py drops --seed from its expected-digest key
        code0, out0, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
        code7, out7, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
        assert (code0, code7) == (0, 0)
        assert out0 == out7

    @pytest.mark.parametrize("suite", ["paper", "properties", "all"])
    def test_negative_max_degree_is_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--max-degree", "-1")
        assert (code, out) == (2, "")
        assert err == "error: degree must be nonnegative, got -1\n"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_modulus_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canonical", "--m", "4"])
        assert exc.value.code == 2

    def test_even_modulus_rejected(self, capsys):
        code, _, err = run(capsys, "canonical", "--p", "4", "--m", "2")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rank_below_one_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "canonical", "--n", n, "--m", "2")
        assert (code, out) == (2, "")
        assert err == f"error: rank n must be >= 1, got {n}\n"

    @pytest.mark.parametrize("argv", [
        ("canonical", "--n", "1", "--m", "8"),
        ("decomp", "--p", "3", "--m", "8"),
        ("crystal", "--n", "1", "--max-degree", "4"),
        ("ladders", "--n", "1", "--partition", "3,1"),
        ("verify",),
    ])
    def test_jobs_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        assert exc.value.code == 2


class TestInternalErrors:
    @pytest.fixture
    def broken_column_check(self, monkeypatch):
        from spinfock.canonical import CanonicalBasis, CanonicalBasisError

        def fail(self, mu, vec, m):
            raise CanonicalBasisError(f"column {mu}: injected")

        monkeypatch.setattr(CanonicalBasis, "_validate_column", fail)

    @pytest.mark.parametrize("argv", [
        ("canonical", "--n", "1", "--m", "5"),
        ("decomp", "--p", "3", "--m", "5"),
    ])
    def test_exit_code_3(self, capsys, broken_column_check, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "h=3 m=5" in err and "CanonicalBasisError" in err

    def test_narrow_digits_widen_to_the_same_output(self, capsys,
                                                   monkeypatch):
        from spinfock import laurent
        # 4-bit digits overflow at h=3 m=10 and 8-bit ones at m=21: the
        # solver widens to 16 bits and prints what 32-bit digits print.
        # At h=5 they overflow at m=16 and m=31, so each width's shared
        # entry tables are forgotten twice.  At h=7 4-bit digits overflow at
        # m=22, so the content memo outlives a restart and each degree's
        # divided-power memo is new
        argvs = [("canonical", "--n", n, "--m", m, "--format", "json")
                 for n, m in [("1", "21"), ("2", "31"), ("3", "24")]]
        wants = [run(capsys, *argv) for argv in argvs]
        assert [(code, err) for code, _, err in wants] == [(0, "")] * 3
        monkeypatch.setattr(laurent, "DIGIT_BITS", 4)
        for argv, (_, want, _) in zip(argvs, wants):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert_same_text(out, want)

    def test_writer_bound_exit_code_3(self, capsys, monkeypatch):
        from spinfock import laurent
        # a solved column at 8-bit digits whose carried bound is 2^7: the
        # JSON writer refuses it rather than print digits that might lie
        monkeypatch.setattr(laurent, "DIGIT_BITS", 8)
        M = CanonicalBasis(3).matrix(5)
        col = M.columns[(4, 1)]             # the first column, one entry
        assert (col.bits, col.rows) == (8, ((4, 1),))
        col.entries = tuple((e0, x, 1 << 7) for e0, x, _ in col.entries)
        monkeypatch.setattr(CanonicalBasis, "matrix", lambda self, m: M)
        code, out, err = run(capsys, "canonical", "--n", "1", "--m", "5",
                             "--format", "json")
        assert code == 3
        assert out == ""
        assert err == ("internal error at h=3 m=5: CoefficientBoundError: "
                       "row (4, 1): carried coefficient bound 128 >= 2^7\n")

    def test_broken_two_power_invariant_exit_code_3(self, capsys,
                                                   monkeypatch):
        from spinfock import partitions as pt
        monkeypatch.setattr(pt, "a_h", lambda h, lam: sum(lam))
        code, out, err = run(capsys, "decomp", "--p", "3", "--m", "10")
        assert (code, out) == (3, "")
        assert err.startswith("internal error at h=3 m=10: InvariantError: "
                              "negative two-power exponent ")
        assert "p=3" in err and err.count("\n") == 1

    def test_two_families_are_internal(self):
        assert cli._INTERNAL_ERRORS == (pt.InvariantError, ArithmeticError)

    def test_unlisted_arithmetic_error_exit_code_3(self, capsys, monkeypatch):
        def fail(p, m):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(modular, "reduced_matrix", fail)
        code, out, err = run(capsys, "decomp", "--p", "3", "--m", "5")
        assert (code, out) == (3, "")
        assert err == ("internal error at h=3 m=5: ZeroDivisionError: "
                       "injected\n")

    @pytest.mark.parametrize("cls", exception_classes(),
                             ids=lambda cls: cls.__name__)
    def test_each_package_error_exit_code(self, capsys, monkeypatch, cls):
        # a ValueError is a usage error; every other class is a bug
        args = {"CoefficientBoundError": (128, (4, 1), 8)}.get(
            cls.__name__, ("injected",))
        exc = cls(*args)

        def fail(*_):
            raise exc

        monkeypatch.setattr(crystal, "component", fail)
        code, out, err = run(capsys, "crystal", "--n", "1",
                             "--max-degree", "3")
        assert out == ""
        if issubclass(cls, ValueError):
            assert (code, err) == (2, f"error: {exc}\n")
        else:
            assert (code, err) == (3, f"internal error: {cls.__name__}: "
                                      f"{exc}\n")


class TestClosedPipe:
    """A reader that closes stdout early ends the command quietly, exit 141."""

    @pytest.mark.parametrize("m, lines", [
        (25, 2),        # like `| head -2`: about 500 KB, closed mid-write
        (3, 0),         # closed before the one buffered write is flushed
    ])
    def test_quiet_exit_141(self, m, lines):
        self.check_closed_after(lines, "canonical", "--n", "1", "--m", str(m),
                                "--format", "json")

    def test_crystal_quiet_exit_141(self):
        # about 1 MB through the block writer, closed like `| head -2`
        self.check_closed_after(2, "crystal", "--n", "1", "--max-degree",
                                "44", "--format", "json")

    def test_generic_writer_quiet_exit_141(self):
        # about 700 KB through _emit_json, closed like `| head -2`
        self.check_closed_after(2, "decomp", "--p", "3", "--m", "25",
                                "--format", "json")

    @pytest.mark.parametrize("argv", [
        ("canonical", "--n", "1", "--m", "25", "--format", "table"),
        ("decomp", "--p", "11", "--m", "30", "--format", "csv"),
        ("crystal", "--n", "2", "--max-degree", "36", "--format", "dot"),
    ], ids=["table", "csv", "dot"])
    def test_text_formats_quiet_exit_141(self, argv):
        # streamed lines, or DOT as one piece, closed like `| head -2`; each
        # output is well above a 64 KiB pipe buffer (the csv about 150 KB),
        # so the close always lands mid-write
        self.check_closed_after(2, *argv)

    @staticmethod
    def check_closed_after(lines, *argv):
        # once with stdout buffered, once unbuffered: PYTHONUNBUFFERED=1
        # turns each stdout write into a syscall, so the block writer's
        # writes meet the closed pipe one by one
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            proc = subprocess.Popen(
                [sys.executable, "-m", "spinfock.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**env, **extra})
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (proc.wait(timeout=60), err) == (141, b""), extra


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "crystal", "--n", "2", "--max-degree", "6",
                         "--format", "dot")
        _, out2, _ = run(capsys, "crystal", "--n", "2", "--max-degree", "6",
                         "--format", "dot")
        assert out1 == out2


TRICKY_TEXT = st.sampled_from(
    ["", 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "é ß ∞ 😀", "\ud800"])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**40, max_value=10**40)
    | st.text() | TRICKY_TEXT,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=5) | TRICKY_TEXT, kids, max_size=4),
    max_leaves=40)


def emitted(obj):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_json(obj)
    return buf.getvalue()


class TestJsonWriter:
    @given(st.dictionaries(st.text(max_size=5) | TRICKY_TEXT, JSON_TREES,
                           max_size=4))
    @example({})
    @example({"a": [], "b": {}, "c": [[]], "d": {"a": {}}, "e": [{"": []}]})
    @example({"n": [-1, 0, 10**30, True, False, None], 'k"\\\n': "\x01é"})
    def test_matches_json_dumps_indent_2(self, obj):
        assert emitted(obj) == json.dumps(obj, indent=2) + "\n"


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


BLOCK = io.DEFAULT_BUFFER_SIZE


class TestBlockWriter:
    """cli._write hands stdout blocks of io.DEFAULT_BUFFER_SIZE characters."""

    @staticmethod
    def written(monkeypatch, chunks):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        _write(iter(chunks))
        return out

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_output_is_the_joined_pieces(self, monkeypatch, size):
        for chunks in (["a" * size], ["a" * size, "b", "c" * size, "dd"],
                       ["e"] + ["f" * size] * 3 + ["g"],
                       ["h" * (size // 7)] * 15, ["é" * size, "", "ß"], []):
            out = self.written(monkeypatch, chunks)
            assert out.getvalue() == "".join(chunks)
            assert out.writes <= len(chunks)

    def test_small_pieces_make_full_blocks(self, monkeypatch):
        chunks = ["x" * 100] * 300
        out = self.written(monkeypatch, chunks)
        assert out.getvalue() == "".join(chunks)
        per_block = -(-BLOCK // 100)        # pieces until a block is full
        assert out.writes == -(-300 // per_block)

    def test_unbuffered_stdout_ends_with_one_character(self, monkeypatch):
        # under python -u, stdout's text layer drops the rest of a write that
        # a closed pipe cut short; a pipe takes a one-character write whole
        class RawStdout(CountingStdout):
            buffer = io.RawIOBase()

            def write(self, text):
                self.last = text
                return super().write(text)

        for chunks in (["a" * BLOCK], ["b", "c" * (3 * BLOCK), "dd"], ["e"],
                       ["f" * 100] * 300):
            out = RawStdout()
            monkeypatch.setattr(sys, "stdout", out)
            _write(iter(chunks))
            assert out.getvalue() == "".join(chunks)
            assert len(out.last) == 1
            assert out.writes <= len(chunks) + 1

    def test_crystal_json_writes_per_block(self, monkeypatch):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["crystal", "--n", "1", "--max-degree", "40",
                     "--format", "json"]) == 0
        size = len(out.getvalue().encode())
        assert size > 50 * BLOCK
        assert out.writes <= -(-size // BLOCK) + 1


class TestJsonDocument:
    """partitions.json_document, the one framing of every JSON document."""

    def test_empty_list(self):
        assert "".join(json_document({"a": iter(()), "b": "1"})) == (
            '{\n  "a": [],\n  "b": 1\n}\n')

    def test_streams_one_item_per_piece(self):
        words = ["x" * k for k in (40, 3, 90, 25)]
        items = (json.dumps(w) for w in words)
        pieces = list(json_document({"h": "3", "columns": items}))
        assert "".join(pieces) == json.dumps(
            {"h": 3, "columns": words}, indent=2) + "\n"
        assert max(map(len, pieces)) == len(json.dumps(words[2]))

    def test_nothing_before_the_first_item(self):
        def failing():
            raise ZeroDivisionError
            yield

        with pytest.raises(ZeroDivisionError):
            next(json_document({"h": "3", "columns": failing()}))


class TestJsonLayout:
    """Each JSON-printing command prints json.dumps(obj, indent=2) and "\\n"."""

    @pytest.mark.parametrize("argv, build", [
        (("canonical", "--n", "1", "--m", "12"),
         lambda: CanonicalBasis(3).matrix(12).to_json()),
        (("decomp", "--n", "1", "--m", "12"),
         lambda: modular.reduced_matrix(3, 12).to_json()),
        (("crystal", "--n", "1", "--start", "3", "--max-degree", "12"),
         lambda: crystal.component(3, (3,), 12).to_json()),
        (("crystal", "--n", "1", "--max-degree", "0"),          # no edges
         lambda: crystal.component(3, (), 0).to_json()),
        (("crystal", "--n", "2", "--start", "5", "--max-degree", "20"),
         lambda: crystal.component(5, (5,), 20).to_json()),
        (("crystal", "--n", "3", "--max-degree", "16"),
         lambda: crystal.component(7, (), 16).to_json()),
        (("canonical", "--n", "1", "--m", "0"),                 # one column
         lambda: CanonicalBasis(3).matrix(0).to_json()),
        (("decomp", "--p", "3", "--m", "0"),
         lambda: modular.reduced_matrix(3, 0).to_json()),
        (("crystal", "--n", "1", "--start", "0", "--max-degree", "30"),
         lambda: crystal.component(3, (), 30).to_json()),   # 0 is empty
    ])
    def test_matches_to_json(self, capsys, argv, build):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert_same_text(out, json.dumps(build(), indent=2) + "\n")

    @pytest.mark.parametrize("argv", [
        ("ladders", "--n", "1", "--partition", "3321", "--format", "json"),
        ("verify", "--suite", "paper"),
        ("verify", "--suite", "properties"),        # nested `exports` dict
        ("verify", "--suite", "all"),
    ])
    def test_matches_parsed_output(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")
