import io
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from ordkit import errors
from ordkit.carriers import load_instance
from ordkit.cli import _fiber_listing, main
from ordkit.core import Ordinal
from ordkit.intervals import OrdinalSet
from ordkit.reduction import _REFUTER_SAMPLES

from reference import _ref_image_of, _ref_preimage_of, _ref_sample_elements

INSTANCES = Path(__file__).parent / "instances"
ROOT = Path(__file__).parent.parent


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(list(argv))
    return status, buffer.getvalue()


class TestCalculator:
    def test_eval_normalizes(self):
        assert run("eval", "1+w") == (0, "w\n")

    def test_cmp(self):
        assert run("cmp", "w^2", "w*9+5") == (0, "greater\n")
        assert run("cmp", "w", "w") == (0, "equal\n")
        assert run("cmp", "5", "w") == (0, "less\n")

    def test_eval_syntax_error(self):
        status, out = run("eval", "w*0")
        assert status == 1
        assert out.splitlines()[0] == "syntax-error"

    def test_deep_nesting_is_a_syntax_error(self):
        # far past the recursion limit: a named error, not a traceback
        status, out = run("eval", "w^(" * 5000 + "1" + ")" * 5000)
        assert status == 1
        assert out.splitlines()[0] == "syntax-error"

    @pytest.mark.parametrize("expr", ["w*\u00b2", "w*\u0663", "\u0663"])
    def test_non_ascii_digits_rejected(self, expr):
        # superscript two and Arabic-Indic three pass str.isdigit
        status, out = run("eval", expr)
        assert status == 1
        assert out.splitlines()[0] == "syntax-error"


class TestCodingCommands:
    def test_pair_and_unpair(self):
        status, out = run("pair", "--alpha", "w", "1", "2")
        assert status == 0
        code = out.strip()
        status, out = run("unpair", "--alpha", "w", code)
        assert (status, out) == (0, "1\n2\n")

    def test_unpair_off_range(self):
        assert run("unpair", "--alpha", "w^2", "w^2") == (0, "none\n")

    def test_fincode(self):
        status, out = run("fincode", "--alpha", "w", "2,5")
        assert status == 0 and out.strip().isdigit()
        assert run("fincode", "--alpha", "w", "") == (0, "0\n")

    def test_cnfbij_up_on_a_long_natural(self):
        # on the way up, the finite-set decoding reads a header that claims
        # about 4 * 10**9 members; one dict each would exhaust memory
        assert run("cnfbij", "--alpha", "w", "--dir", "up", "12345678901234567890") == (
            0, "w^12345678901234567890\n"
        )

    def test_cnfbij_roundtrip(self):
        status, down = run("cnfbij", "--alpha", "w", "--dir", "down", "w^3+w")
        assert status == 0
        status, up = run("cnfbij", "--alpha", "w", "--dir", "up", down.strip())
        assert (status, up) == (0, "w^3 + w\n")

    def test_fincode_past_the_int_str_limit(self):
        from test_coding import INT_STR_LIMIT_ALPHA, INT_STR_LIMIT_SET

        status, out = run("fincode", "--alpha", INT_STR_LIMIT_ALPHA, ",".join(INT_STR_LIMIT_SET))
        assert status == 0
        assert len(out) > 4300

    def test_fincode_past_the_code_size_limit(self):
        # each member about doubles the code: 60 members would never finish
        start = time.perf_counter()
        status, out = run("fincode", "--alpha", "w", ",".join(map(str, range(60))))
        assert time.perf_counter() - start < 1.0
        assert status == 1
        assert out.splitlines()[0] == "bound-violation"

    def test_domain_error_status(self):
        status, out = run("pair", "--alpha", "5", "1", "1")
        assert status == 1
        assert out.splitlines()[0] == "bound-violation"

    def test_fuel_exhaustion_reachable(self):
        status, out = run("cnfbij", "--alpha", "w", "--dir", "down", "w^2", "--fuel", "0")
        assert status == 1
        assert out.splitlines()[0] == "fuel-exhausted"

    def test_negative_fuel_is_a_bound_violation(self):
        status, out = run("cnfbij", "--alpha", "w", "--dir", "down", "w^2", "--fuel", "-1")
        assert status == 1
        assert out.splitlines()[0] == "bound-violation"


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run("eval", "--bogus", "w")
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == 2


class TestEngineCommands:
    def test_reduce_case1(self):
        status, out = run(
            "reduce",
            "--instance",
            str(INSTANCES / "case1_identity.txt"),
            "--verify-below",
            "w*5",
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "case=case1 k=0 delta=w^2"
        assert any(line.startswith("target=") for line in lines)

    def test_reduce_case2(self):
        status, out = run(
            "reduce",
            "--instance",
            str(INSTANCES / "case2_tower.txt"),
            "--verify-below",
            "w^3",
        )
        assert status == 0
        assert out.splitlines()[0] == "case=case2 delta=w^w"

    @pytest.mark.parametrize(
        "name,head",
        [("case1_identity.txt", "case=case1 k=0 delta=w^2"), ("case2_tower.txt", "case=case2 delta=w^w")],
    )
    def test_reduce_verify_below_zero(self, name, head):
        # a bound of 0 leaves no target to check; the error name comes
        # first, and the case line is not written at all
        status, out = run("reduce", "--instance", str(INSTANCES / name), "--verify-below", "0")
        assert status == 1
        assert out.splitlines() == ["bound-violation", "bound 0 leaves no target to verify"]
        assert head not in out

    def test_reduce_precondition_error(self):
        status, out = run(
            "reduce",
            "--instance",
            str(INSTANCES / "degenerate_delta_omega.txt"),
            "--verify-below",
            "w",
        )
        assert status == 1
        assert out.splitlines()[0] == "precondition-violated"

    def test_reduce_coverage_error(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text(
            "carrier: m:[0,w^2)\nalpha: w^2\n"
            "row 0: m -> monotone [w,w^2)\n"  # never reaches [0, w)
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w")
        assert status == 1
        assert out.splitlines()[0] == "coverage-broken"

    def test_reduce_late_row_outside_alpha(self, tmp_path):
        # every explicit row is checked, not only the first sixteen
        rows = ["row 0: m -> monotone [0,w^2)"]
        rows += [f"row {k}: m -> monotone [0,w)" for k in range(1, 16)]
        rows += ["row 16: m -> monotone [0,w^3)"]
        path = tmp_path / "late.txt"
        path.write_text("carrier: m:[0,w^3)\nalpha: w^2\n" + "\n".join(rows) + "\n")
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w^2")
        assert status == 1
        assert out.splitlines() == ["coverage-broken", "row 16 maps outside [0, w^2)"]

    def test_reduce_cover_after_row_63(self, tmp_path):
        # witnesses are searched in as many rows as verification scans
        rows = [f"row {k}: a -> monotone [0,w)" for k in range(70)]
        rows += ["row 70: a -> monotone [0,w^2)"]
        path = tmp_path / "late_cover.txt"
        path.write_text("carrier: a:[0,w^3)\nalpha: w^2\n" + "\n".join(rows) + "\n")
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w^2")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "case=case1 k=70 delta=w^2"
        assert "interval=[w,w^2) row=70" in lines

    def test_reduce_tail_gap_found_in_verification(self, tmp_path):
        # no row reaches 0; with a tail, coverage is left to verification
        path = tmp_path / "gap.txt"
        path.write_text(
            "carrier: m:[0,w^w)\nalpha: w^w\n"
            "row 0: m -> monotone [1,w^w)\ntail: n >= 1: m -> monotone [1,w^w)\n"
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w^2")
        assert status == 1
        assert out.splitlines()[0] == "witness-not-found"

    @pytest.mark.parametrize(
        "name,bound,head",
        [
            # the supremum w^w is reached only past n = 20
            ("tail_mixed_growth.txt", "w^3", "case=case2 delta=w^w"),
            ("tail_mixed_growth.txt", "w^22", "case=case2 delta=w^w"),
            # the largest order type comes before the tail settles
            ("tail_shrinking.txt", "w^3", "case=case1 k=1 delta=w^5"),
            # the carrier's order type caps the rows across its two intervals
            ("tail_split_cap.txt", "w^3", "case=case1 k=10 delta=w^3*10"),
            # no comparison depends on the block's 5000, whose literal sum
            # passed the 4096 cap
            ("tail_large_block.txt", "w^3", "case=case2 delta=w^w"),
        ],
    )
    def test_reduce_tail_supremum(self, name, bound, head):
        status, out = run("reduce", "--instance", str(INSTANCES / name), "--verify-below", bound)
        assert status == 0
        assert out.splitlines()[0] == head
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("copies", ["100", "2"])
    def test_reduce_tail_cover_past_the_row_scan(self, tmp_path, copies):
        # row 70 first covers [0, w^70); the tail's forms say to scan on to it
        path = tmp_path / "late_tail_cover.txt"
        path.write_text(
            f"carrier: m:[0,w^(w^w)*{copies})\nalpha: w^w\n"
            "row 0: m -> monotone [0,w)\ntail: n >= 1: m -> monotone [0,w^n)\n"
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w^70")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "case=case2 delta=w^w"
        assert "interval=[w^69,w^70) row=70" in lines
        assert "MISMATCH" not in out

    @pytest.mark.parametrize(
        "tail,bound,scanned",
        [
            # rows past 63 go on covering [w^w + w^63, w^w + w^70) up to row
            # 70; no row holds w^w or the points just below it
            ("[0,w*n),[w^w+1,w^w+w^n)", "w^w+w^70", 70),
            # no row holds w, so rows past 63 cannot finish the cover
            ("[0,w),[w+1,w^n)", "w^70", 63),
        ],
    )
    def test_reduce_tail_scan_stops_where_no_row_reaches(self, tmp_path, tail, bound, scanned):
        path = tmp_path / "hole.txt"
        path.write_text(
            "carrier: m:[0,w^(w^w)*2)\nalpha: w^(w+1)\nrow 0: m -> monotone [1,w)\n"
            f"tail: n >= 1: m -> monotone {tail}\n"
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", bound)
        shown = bound.replace("+", " + ")
        assert (status, out) == (1, f"witness-not-found\nrows 0..{scanned} do not cover [0, {shown})\n")

    @pytest.mark.parametrize("explicit", [0, 1])
    def test_reduce_tail_names_unknown_block(self, tmp_path, explicit):
        path = tmp_path / "unknown.txt"
        rows = "row 0: m -> monotone [0,w)\n" if explicit else ""
        path.write_text(
            f"carrier: m:[0,w)\nalpha: w\n{rows}tail: n >= {explicit}: zz -> monotone [0,w)\n"
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w")
        assert (status, out) == (1, f"syntax-error\nrow {explicit} names unknown block 'zz'\n")

    @pytest.mark.parametrize(
        "extra,key",
        [
            ("carrier: m:[0,w^2)\n", "carrier"),
            ("alpha: w^2\n", "alpha"),
            ("row 0: m -> monotone [0,w^2)\n", "row 0"),
            ("row 00: m -> monotone [0,w^2)\n", "row 0"),
            ("tail: n >= 1: m -> monotone [0,w*n)\n", "tail"),
        ],
    )
    def test_reduce_repeated_key(self, tmp_path, extra, key):
        # a second line for a key would silently replace the first
        path = tmp_path / "repeated.txt"
        path.write_text(
            "carrier: m:[0,w)\nalpha: w\nrow 0: m -> monotone [0,w)\n"
            f"tail: n >= 1: m -> monotone [0,w)\n{extra}"
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w")
        assert (status, out) == (1, f"syntax-error\ninstance key {key!r} appears more than once\n")

    def test_reduce_no_infinite_rows(self, tmp_path):
        path = tmp_path / "finite.txt"
        path.write_text("carrier: a:[0,w^2)\nalpha: 5\nrow 0: a -> monotone [0,5)\n")
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w")
        assert (status, out) == (1, "precondition-violated\nno rows with infinite order type\n")

    def test_reduce_tail_leaves_alpha_late(self):
        # rows 1..10 stay inside alpha = w^10; the settle point counts alpha's
        # literals, so row 11 is read and rejected
        path = INSTANCES / "tail_past_alpha.txt"
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w^3")
        assert (status, out) == (1, "coverage-broken\nrow 11 maps outside [0, w^10)\n")

    def test_reduce_tail_settling_too_late(self, tmp_path):
        # literals summing past 4096 would need that many explicit rows
        path = tmp_path / "far.txt"
        path.write_text(
            "carrier: m:[0,w^(w^w)*2)\nalpha: w^5000\n"
            "row 0: m -> monotone [0,w)\ntail: n >= 1: m -> monotone [0,w^n)\n"
        )
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w^3")
        assert status == 1
        assert out.splitlines()[0] == "tail-limit-undecided"

    def test_refute_modes(self):
        for mode in ("pset", "infpset"):
            status, out = run(
                "refute",
                "--instance",
                str(INSTANCES / "refute_demo.txt"),
                "--mode",
                mode,
                "--check",
                "20",
            )
            assert status == 0
            lines = out.splitlines()
            assert lines[0].startswith(f"mode={mode}")
            assert "recheck=ok" in lines[1]

    @pytest.mark.parametrize("mode", ["pset", "infpset"])
    def test_refute_without_a_tail(self, tmp_path, mode):
        # the listing pairs reach row 1, which one row and no tail leave undefined
        path = tmp_path / "one_row.txt"
        path.write_text("carrier: m:[0,w^2)\nalpha: w^2\nrow 0: m -> monotone [0,w^2)\n")
        status, out = run("refute", "--instance", str(path), "--mode", mode)
        assert (status, out) == (1, "row-undefined\nrow 1 is not defined (no tail rule)\n")

    @pytest.mark.parametrize("mode", ["pset", "infpset"])
    @pytest.mark.parametrize("check", ["-3", "0"])
    def test_refute_check_bound_below_one(self, mode, check):
        # such a bound checks no listed set at all
        status, out = run(
            "refute",
            "--instance",
            str(INSTANCES / "refute_demo.txt"),
            "--mode",
            mode,
            "--check",
            check,
        )
        assert status == 1
        assert out.splitlines()[0] == "bound-violation"

    @pytest.mark.parametrize("mode", ["pset", "infpset"])
    def test_refute_check_bound_above_the_cap(self, mode):
        # refused at once, before any listing pair is checked
        status, out = run(
            "refute",
            "--instance",
            str(INSTANCES / "refute_demo.txt"),
            "--mode",
            mode,
            "--check",
            "100000001",
        )
        assert (status, out) == (
            1,
            "bound-violation\ncheck bound must be at most 100000000, not 100000001\n",
        )

    @pytest.mark.parametrize("mode", ["pset", "infpset"])
    def test_refute_large_check(self, mode):
        # 26,531 listed sets are separated and rechecked; only the count
        # differs from a small bound's output
        def refute(check):
            argv = ["--instance", str(INSTANCES / "refute_demo.txt"), "--mode", mode]
            status, out = run("refute", *argv, "--check", check)
            assert status == 0
            return out.splitlines()

        large, small = refute("100000"), refute("400")
        assert large[1] == "distinguishers=26531 recheck=ok"
        assert small[1] == "distinguishers=403 recheck=ok"
        assert large[:1] + large[2:] == small[:1] + small[2:]

    @pytest.mark.parametrize("check", ["20", "100"])
    def test_refute_pset_row0_maps_blocks_apart(self, check):
        # no sample point separates the diagonal from some listed sets here;
        # their own code points do
        status, out = run(
            "refute",
            "--instance",
            str(INSTANCES / "refute_split_row0.txt"),
            "--mode",
            "pset",
            "--check",
            check,
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "mode=pset table=2"
        assert lines[1] == f"distinguishers={int(check) + 2} recheck=ok"

    def test_fiber_listing_builds_each_fiber_once(self):
        # refute_demo.txt: row 0 sends everything to 0, row 1 sends a to 1, b to 0
        fam = load_instance(INSTANCES / "refute_demo.txt")
        phi = _fiber_listing(fam)
        a0, b5 = ("a", Ordinal(0)), ("b", Ordinal(5))
        assert phi(0, a0) is phi(0, b5)
        assert phi(1, a0) is not phi(1, b5)
        assert phi(1, b5).contains(a0) is False and phi(1, b5).contains(b5) is True

    @pytest.mark.parametrize("instance", ["refute_demo.txt", "refute_split_row0.txt"])
    def test_equal_fibers_are_one_set(self, instance):
        # phi(n, x) and phi(m, y) are one object exactly when the reference
        # fibers, the preimages of the points' values, are equal sets
        fam = load_instance(INSTANCES / instance)
        carrier, phi = fam.carrier, _fiber_listing(fam)
        sets, objects = {}, {}  # id -> reference fiber, reference fiber -> object
        for n in range(6):
            row = fam.row(n)
            for label, pos in _ref_sample_elements(carrier, _REFUTER_SAMPLES):
                value = _ref_image_of(row, carrier, {label: OrdinalSet.point(pos)})
                fiber = tuple(_ref_preimage_of(row, carrier, value).items())
                listed = phi(n, (label, pos))
                assert sets.setdefault(id(listed), fiber) == fiber
                assert objects.setdefault(fiber, listed) is listed
        assert len(objects) < 6 * _REFUTER_SAMPLES

    def test_decode_wo(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("0 1\n0 2\n1 2\n")
        assert run("decode-wo", str(path)) == (0, "3\n")
        path.write_text("bits:\n")
        assert run("decode-wo", str(path)) == (0, "0\n")

    def test_selftest(self):
        status, out = run("selftest", "--size", "2")
        assert status == 0
        assert "csb_bijective" in out and "0 failures" in out

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_selftest_size_below_one(self, size):
        status, out = run("selftest", "--size", size)
        assert status == 1
        assert out.splitlines()[0] == "bound-violation"


# past Python's int-str limit of 4,300 digits: read, and written into a
# message, through core's decimal path
_LONG_NATURAL = "9" * 5000


class TestFileInput:
    INSTANCE = "carrier: m:[0,w^2)\nalpha: w^2\nrow 0: m -> monotone [0,w^2)\n"

    def _error_name(self, tmp_path, command, content):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        argv = {
            "reduce": ["reduce", "--instance", str(path), "--verify-below", "w"],
            "refute": ["refute", "--instance", str(path), "--mode", "pset"],
            "decode-wo": ["decode-wo", str(path)],
        }[command]
        status, out = run(*argv)
        assert status == 1
        return out.splitlines()[0]

    @pytest.mark.parametrize("command", ["reduce", "refute", "decode-wo"])
    def test_missing_file(self, tmp_path, command):
        assert self._error_name(tmp_path, command, None) == "file-error"

    @pytest.mark.parametrize("command", ["reduce", "decode-wo"])
    def test_non_ascii_file(self, tmp_path, command):
        content = "# caf\u00e9\n".encode("utf-8") + self.INSTANCE.encode("ascii")
        assert self._error_name(tmp_path, command, content) == "file-error"

    def test_bad_tail_start(self, tmp_path):
        content = (self.INSTANCE + "tail: n >= x: m -> constant n\n").encode("ascii")
        assert self._error_name(tmp_path, "reduce", content) == "syntax-error"

    @pytest.mark.parametrize(
        "lines,message",
        [
            (
                "carrier: a:[0,w^2)\nrow 0: a monotone [0,w)",
                "piece needs 'label -> kind ...': 'a monotone [0,w)'",
            ),
            (
                "carrier: a:[0,w^2)\nrow 0: a -> linear [0,w)",
                "unknown piece kind in 'a -> linear [0,w)'",
            ),
            (
                "carrier: a[0,w^2)\nrow 0: a -> monotone [0,w)",
                "block needs 'label:intervals': 'a[0,w^2)'",
            ),
            (
                "carrier: a:[0,w^2)\nrow 0: a -> monotone [0,w)\ntail: n > 1: a -> monotone [0,w)",
                "tail condition must be 'n >= N': 'n>1'",
            ),
            (
                "carrier: a:[0,w^2)\nrow 0: a -> monotone [0,w)\ntail: n >= 1 a -> monotone [0,w)",
                "tail needs 'n >= N: row': 'n >= 1 a -> monotone [0,w)'",
            ),
            (
                "carrier: a:[0,w^2)\ntail: n >= 3: a -> monotone [0,w)",
                "tail must start at row 0, not 3",
            ),
            (
                "carrier: a:[0,w^2)\nrow 0: a -> monotone [0,w)\ntail: n >= 0: a -> monotone [0,w)",
                "tail must start at row 1, not 0",
            ),
            (
                "carrier: a:[0,w^2)\nrow 0: a -> monotone [0,w)\nrow 1: a -> monotone [0,w)\n"
                "tail: n >= 3: a -> monotone [0,w)",
                "tail must start at row 2, not 3",
            ),
            (
                "carrier: a:[0,w^2)\nrow 1_0: a -> monotone [0,w)",
                "expected a natural number in 'row 1_0'",
            ),
            ("carrier: a:[0,w^2)\nrows: a -> constant 0", "unknown instance key 'rows'"),
            ("carrier: a:[0,w^2)\nrowing: a -> constant 0", "unknown instance key 'rowing'"),
            pytest.param(
                f"carrier: a:[0,w^2)\nrow {_LONG_NATURAL}: a -> monotone [0,w)",
                "row 0 is missing (rows must be consecutive from 0)",
                id="long-row",
            ),
            pytest.param(
                f"carrier: a:[0,w^2)\ntail: n >= {_LONG_NATURAL}: a -> monotone [0,w)",
                f"tail must start at row 0, not {_LONG_NATURAL}",
                id="long-tail-start",
            ),
        ],
    )
    def test_instance_syntax_error_message(self, tmp_path, lines, message):
        path = tmp_path / "input.txt"
        path.write_text(f"alpha: w^2\n{lines}\n")
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w")
        assert (status, out) == (1, f"syntax-error\n{message}\n")

    def test_instance_with_no_rows(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("carrier: a:[0,w)\nalpha: w\n")
        status, out = run("reduce", "--instance", str(path), "--verify-below", "w")
        assert (status, out) == (1, "coverage-broken\nno rows cover [0, w); missing [0,w)\n")

    @pytest.mark.parametrize("mode", ["pset", "infpset"])
    def test_refute_on_an_empty_carrier(self, tmp_path, mode):
        # the carrier is checked before the (empty) table
        path = tmp_path / "input.txt"
        path.write_text("carrier:\nalpha: w\n")
        status, out = run("refute", "--instance", str(path), "--mode", mode)
        assert (status, out) == (1, "precondition-violated\ncarrier must be infinite\n")

    def test_empty_block_part_skipped(self, tmp_path):
        outputs = []
        for carrier in ("a:[0,w^2)", "a:[0,w^2);;"):
            path = tmp_path / "input.txt"
            path.write_text(f"carrier: {carrier}\nalpha: w^2\nrow 0: a -> monotone [0,w^2)\n")
            outputs.append(run("reduce", "--instance", str(path), "--verify-below", "w"))
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 0 and outputs[1][1].startswith("case=case1 k=0 delta=w^2\n")

    @pytest.mark.parametrize(
        "content",
        # int() would read the last four: a number is ASCII digits only
        [b"0 x\n", b"0 1\n1 2.5\n", b"bits: 1,x\n",
         b"-3 0\n", b"1_0 2\n", b"+1 3\n", b"bits: 1, -2\n"],
    )
    def test_bad_well_order_number(self, tmp_path, content):
        assert self._error_name(tmp_path, "decode-wo", content) == "syntax-error"

    def test_well_order_number_past_the_int_limit(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text(f"0 {_LONG_NATURAL}\n")
        assert run("decode-wo", str(path)) == (0, "2\n")

    @pytest.mark.parametrize("content", [b"0 1 2\n", b"0\n", b"0 1\n1, 2, 3\n", b"0,,1\n"])
    def test_well_order_line_not_a_pair(self, tmp_path, content):
        assert self._error_name(tmp_path, "decode-wo", content) == "syntax-error"

    @pytest.mark.parametrize("content", [b"bits: 0,2,4,5\nbits: 0,1,2,4,5\n", b"bits:\n# x\nbits: 1\n"])
    def test_second_bits_line(self, tmp_path, content):
        # one bits: line codes the order; a second is refused, not read over the first
        assert self._error_name(tmp_path, "decode-wo", content) == "syntax-error"
        path = tmp_path / "input.txt"
        path.write_bytes(content.split(b"\n")[-2] + b"\n")
        assert run("decode-wo", str(path))[0] == 0


_TOOLKIT_ERROR_NAMES = {
    cls.name for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ToolkitError)
}
_EXPRESSIONS = st.one_of(
    st.sampled_from(
        ["0", "1", "5", "w", "w+1", "1+w", "w*2+1", "w^2", "w^w", "w^(w+1)*3 + w^2 + 5",
         "w*(2+1)", "w^(w^w)", "", " ", "w*0", "-1", "n", "w^", "(w", "12345678901234567890"]
    ),
    st.text(alphabet="w0123456789^*+() ,n", max_size=12),
)
_INSTANCE_LINES = st.one_of(
    st.sampled_from(
        ["carrier: m:[0,w^2)", "carrier: m:[0,w)", "carrier: a:[0,w); b:[0,w^2)",
         "carrier: m:[0,w^(w^w)*2)", "alpha: w", "alpha: w^2", "alpha: w^w", "alpha: 3",
         "row 0: m -> monotone [0,w^2)", "row 0: m -> constant 0", "row 1: m -> constant 1",
         "row 0: m -> monotone [0,w)", "row 0: a -> constant 0 ; b -> constant 0",
         "row 1: a -> constant 1 ; b -> monotone [0,w)", "tail: n >= 1: m -> constant n",
         "tail: n >= 1: m -> monotone [0,w^(n+1))", "tail: n >= 2: a -> constant n ; b -> constant 0",
         "tail: n >= x: m -> constant n", "# comment", "", "row 0: m -> monotone [0,w) ; m -> constant 0"]
    ),
    st.text(max_size=30),
)
_WELL_ORDER_LINES = st.one_of(
    st.sampled_from(["0 1", "1 2", "0 2", "2, 3", "bits:", "bits: 1,0,7", "0", "x y", "# c"]),
    st.text(alphabet="0123456789 ,bits:x-\n", max_size=20),
)
_NUMBERS = st.integers(-3, 40).map(str)


@st.composite
def _argv(draw):
    """Argv for one subcommand; "{instance}" and "{well_order}" stand for
    the files that the test writes."""
    e = _EXPRESSIONS
    command = draw(st.sampled_from(
        ["eval", "cmp", "pair", "unpair", "fincode", "cnfbij", "reduce", "refute",
         "decode-wo", "selftest"]
    ))
    args = {
        "eval": lambda: [draw(e)],
        "cmp": lambda: [draw(e), draw(e)],
        "pair": lambda: ["--alpha", draw(e), draw(e), draw(e)],
        "unpair": lambda: ["--alpha", draw(e), draw(e)],
        "fincode": lambda: ["--alpha", draw(e), ",".join(draw(st.lists(e, max_size=64)))],
        "cnfbij": lambda: ["--alpha", draw(e), "--dir", draw(st.sampled_from(["down", "up", "x"])),
                           draw(e), "--fuel", draw(_NUMBERS)],
        "reduce": lambda: ["--instance", "{instance}", "--verify-below", draw(e)],
        "refute": lambda: ["--instance", "{instance}", "--mode",
                           draw(st.sampled_from(["pset", "infpset", "x"])), "--check", draw(_NUMBERS)],
        "decode-wo": lambda: ["{well_order}"],
        # sizes past 3 hit the oracle's caps: the same checks, seconds each
        "selftest": lambda: ["--size", str(draw(st.integers(-3, 3)))],
    }[command]()
    if draw(st.integers(0, 9)) == 0:  # now and then a usage error
        args = draw(st.sampled_from([args[1:], args + ["--bogus"]]))
    return [command, *args]


class TestErrorContract:
    """Every run ends in exit 0, a named error (exit 1) or a usage error (exit 2)."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        argv=_argv(),
        instance=st.lists(_INSTANCE_LINES, max_size=6).map("\n".join),
        well_order=st.lists(_WELL_ORDER_LINES, max_size=5).map("\n".join),
        missing=st.booleans(),
    )
    def test_exit_status_and_error_name(self, tmp_path, argv, instance, well_order, missing):
        paths = {"instance": tmp_path / "instance.txt", "well_order": tmp_path / "wo.txt"}
        paths["instance"].write_bytes(instance.encode("utf-8", "surrogatepass"))
        paths["well_order"].write_text(well_order)
        if missing:
            paths["instance"].unlink()
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
        buffer = io.StringIO()
        try:
            with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
                status = main(argv)
        except SystemExit as exit_:
            status = exit_.code
        assert status in (0, 1, 2)
        if status == 1:
            assert buffer.getvalue().splitlines()[0] in _TOOLKIT_ERROR_NAMES


def _readme_commands() -> list:
    """The lines of the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


class TestReadme:
    @pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: line.split()[1])
    def test_command_line_example(self, line, monkeypatch):
        # run from the repository root, where the example paths lead;
        # a "# -> a / b" comment gives the output lines
        monkeypatch.chdir(ROOT)
        program, *argv = shlex.split(line, comments=True)
        assert program == "ordkit"
        status, out = run(*argv)
        assert status == 0, out
        _, arrow, expected = line.partition("# ->")
        if arrow:
            assert " / ".join(out.splitlines()) == expected.strip()


class TestDeterminism:
    FULL_SET = [
        ("eval", "w^(w*2)*3 + w^2 + 5"),
        ("eval", "1+w"),
        ("cmp", "w^2", "w*9+5"),
        ("pair", "--alpha", "w^2", "w", "1"),
        ("unpair", "--alpha", "w^2", "w + 2"),
        ("fincode", "--alpha", "w", "2,5"),
        ("cnfbij", "--alpha", "w^2", "--dir", "down", "w^(w*2)"),
        (
            "reduce",
            "--instance",
            str(INSTANCES / "case2_tower.txt"),
            "--verify-below",
            "w^2",
        ),
        (
            "refute",
            "--instance",
            str(INSTANCES / "refute_demo.txt"),
            "--mode",
            "pset",
            "--check",
            "10",
        ),
        ("selftest", "--size", "2"),
    ]

    def test_byte_identical_across_runs(self):
        first = [run(*argv) for argv in self.FULL_SET]
        second = [run(*argv) for argv in self.FULL_SET]
        assert first == second
