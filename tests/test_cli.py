import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagnef import CHAR_ZERO, FieldContext, ValidationError, make_hn_type
from flagnef.cli import (
    build_parser,
    main,
    parse_bundle_spec,
    render_report,
    run_command,
)
from helpers import merge_by_slope

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    report, code = run_command(argv, stdout=out, stderr=err)
    return report, code, out.getvalue(), err.getvalue()


class TestParseBundleSpec:
    def test_pieces(self):
        h, ctx = parse_bundle_spec('{"pieces":[[1,1],[2,-1]]}')
        assert h == make_hn_type([(1, 1), (2, -1)])
        assert ctx == CHAR_ZERO

    def test_splitting(self):
        h, _ = parse_bundle_spec('{"splitting":[3,1,1,0]}')
        assert h == make_hn_type([(1, 3), (2, 2), (1, 0)])

    def test_char_p_field(self):
        _, ctx = parse_bundle_spec('{"pieces":[[2,0]],"field":{"char":3,"frobenius_steps":2}}')
        assert ctx == FieldContext(3, 2)

    def test_semantic_violation_wraps_core_error(self):
        from flagnef import ValidationError

        with pytest.raises(ValidationError, match="NonDecreasingSlopes"):
            parse_bundle_spec('{"pieces":[[1,0],[1,0]]}')

    def test_malformed_json_reports_position(self):
        from flagnef import ParseError

        with pytest.raises(ParseError, match="line 1 column"):
            parse_bundle_spec('{"pieces":[[1,1],')

    def test_structural_problems(self):
        from flagnef import ParseError

        for bad in (
            "[]",
            "{}",
            '{"pieces":[[1,1]],"splitting":[1]}',
            '{"pieces":[[1,1]],"unknown":1}',
            '{"pieces":[[1]]}',
            '{"pieces":[[1,1.5]]}',
            '{"splitting":"abc"}',
            '{"pieces":[[2,0]],"field":{"char":0,"frobenius_steps":1}}',
        ):
            with pytest.raises(ParseError):
                parse_bundle_spec(bad)

    def test_composite_characteristic_is_a_validation_error(self):
        from flagnef import ValidationError

        with pytest.raises(ValidationError, match="InvalidFieldContext"):
            parse_bundle_spec('{"pieces":[[2,0]],"field":{"char":4}}')


class TestGoldenOutputs:
    def test_theta_json(self):
        _, code, out, _ = invoke(
            ["theta", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2", "--json"]
        )
        assert code == 0
        assert out == (GOLDEN / "theta_json.golden").read_text()
        result = json.loads(out)["result"]
        for key, value in {"theta": "-1", "t": 2, "s": 2, "mu_t": "-1/2"}.items():
            assert result[key] == value

    def test_classify_text(self):
        _, code, out, _ = invoke(["classify", "--bundle", '{"pieces":[[2,0]]}', "--r", "1"])
        assert code == 0
        assert out == (GOLDEN / "classify_text.golden").read_text()
        assert out == "nef_not_ample\n"

    def test_cone_flag_json(self):
        _, code, out, _ = invoke(
            [
                "cone",
                "flag",
                "--bundle",
                '{"pieces":[[1,2],[1,1],[1,0]]}',
                "--flag",
                "1,2",
                "--json",
            ]
        )
        assert code == 0
        assert out == (GOLDEN / "cone_flag_json.golden").read_text()
        assert json.loads(out)["result"]["rays"] == [[1, 0, 0], [0, 1, -1], [0, 0, 1]]

    def test_byte_identical_across_runs(self):
        argv = ["theta", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2", "--json"]
        assert invoke(argv)[2] == invoke(argv)[2]


class TestJSONRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2"],
            ["classify", "--bundle", '{"splitting":[3,1,1,0]}', "--r", "2"],
            ["cone", "gr", "--bundle", '{"pieces":[[1,2],[1,1]]}', "--r", "1"],
            [
                "cone",
                "flag",
                "--bundle",
                '{"pieces":[[1,2],[1,1],[1,0]],"field":{"char":2,"frobenius_steps":1}}',
                "--flag",
                "1,2",
            ],
            [
                "member",
                "gr",
                "--bundle",
                '{"pieces":[[1,1],[1,-1]]}',
                "--r",
                "1",
                "--class",
                '{"x":"1","y":"1"}',
            ],
            ["vabundles", "--bundle", '{"pieces":[[1,3],[2,1],[1,0]]}', "--r", "2"],
            ["oracle-check", "--bundle", '{"pieces":[[1,3],[2,1],[1,0]]}'],
        ],
    )
    def test_render_parse_identity(self, argv):
        report, code, _, _ = invoke(argv)
        assert code == 0
        rendered = render_report(report, "json")
        assert json.loads(rendered) == report
        assert render_report(json.loads(rendered), "json") == rendered


class TestCommands:
    def test_member_gr_boundary(self):
        # theta = -1; the class (1, 1) sits on the boundary: nef, not ample
        report, code, _, _ = invoke(
            [
                "member",
                "gr",
                "--bundle",
                '{"pieces":[[1,1],[1,-1]]}',
                "--r",
                "1",
                "--class",
                '{"x":"1","y":"1"}',
            ]
        )
        assert code == 0
        assert report["result"] == {"nef": True, "ample": False}

    def test_member_gr_anticanonical_of_unstable(self):
        report, _, _, _ = invoke(
            [
                "member",
                "gr",
                "--bundle",
                '{"pieces":[[1,1],[1,-1]]}',
                "--r",
                "1",
                "--class",
                '{"x":2,"y":0}',
            ]
        )
        assert report["result"] == {"nef": False, "ample": False}

    def test_member_flag(self):
        report, code, _, _ = invoke(
            [
                "member",
                "flag",
                "--bundle",
                '{"pieces":[[1,2],[1,1],[1,0]]}',
                "--flag",
                "1,2",
                "--class",
                '{"x":["1","1"],"y":"-1"}',
            ]
        )
        assert code == 0
        assert report["result"] == {"nef": True}

    def test_vabundles(self):
        report, code, out, _ = invoke(
            ["vabundles", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2"]
        )
        assert code == 0
        assert report["result"]["count"] == 2
        assert report["result"]["min_slope_sum"] == "-1"
        assert report["result"]["va"] == [
            {"composition": [0, 2], "rank": 1, "degree": -1, "slope_sum": "-1"},
            {"composition": [1, 1], "rank": 2, "degree": 1, "slope_sum": "1/2"},
        ]
        assert out.splitlines()[0].split() == ["composition", "rank", "degree", "slope_sum"]

    @pytest.mark.parametrize(
        "bundle, r",
        [
            ('{"pieces":[[4,8],[4,4],[4,0],[4,-4],[4,-8]]}', 7),
            ('{"pieces":[[3,11],[1,3],[4,-1],[2,-7]]}', 5),
            ('{"splitting":[9,8,7,6,5,4,3,2,1,1]}', 5),
        ],
    )
    def test_vabundles_multi_rank(self, bundle, r):
        """min_slope_sum is the least row, and the text table is the rows,
        each cell padded to its column's width and each line right-stripped."""
        report, code, _, _ = invoke(["vabundles", "--bundle", bundle, "--r", str(r), "--json"])
        assert code == 0
        result = report["result"]
        assert result["count"] == len(result["va"])
        assert result["min_slope_sum"] == str(min(Fraction(e["slope_sum"]) for e in result["va"]))
        rows = [["composition", "rank", "degree", "slope_sum"]] + [
            ["(" + ",".join(map(str, e["composition"])) + ")", str(e["rank"]), str(e["degree"]),
             e["slope_sum"]]
            for e in result["va"]
        ]
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        expected = "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows
        )
        assert invoke(["vabundles", "--bundle", bundle, "--r", str(r)])[2] == expected

    def test_cone_gr_render(self):
        _, _, out, _ = invoke(["cone", "gr", "--bundle", '{"pieces":[[1,2],[1,1]]}', "--r", "1"])
        assert "(0,1), (1,-1)" in out

    def test_oracle_check_single_bundle(self):
        report, code, _, _ = invoke(["oracle-check", "--bundle", '{"splitting":[3,1,1,0]}'])
        assert code == 0
        assert report["result"] == {"types": 1, "checks": 3, "mismatches": 0, "ok": True}

    def test_oracle_check_single_r(self):
        report, code, _, _ = invoke(
            ["oracle-check", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2"]
        )
        assert code == 0
        assert report["result"]["checks"] == 1

    def test_oracle_mismatch_exits_2(self, monkeypatch):
        import flagnef.cli as cli

        monkeypatch.setattr(cli, "theta_oracle", lambda h, r: Fraction(10**9))
        report, code, _, err = invoke(
            ["oracle-check", "--bundle", '{"pieces":[[1,1],[2,-1]]}']
        )
        assert code == 2
        assert report["result"]["ok"] is False
        assert "oracle mismatch" in err

    def test_bundle_from_file(self, tmp_path):
        spec = tmp_path / "bundle.json"
        spec.write_text('{"pieces":[[2,0]]}', encoding="utf-8")
        report, code, _, _ = invoke(["classify", "--bundle", f"@{spec}", "--r", "1"])
        assert code == 0
        assert report["result"]["class"] == "nef_not_ample"


class TestExitCodes:
    def test_invalid_bundle_json(self):
        report, code, out, err = invoke(["theta", "--bundle", "{oops", "--r", "1"])
        assert (report, code, out) == (None, 1, "")
        assert "error[ParseError]" in err

    def test_core_validation_error(self):
        _, code, _, err = invoke(["theta", "--bundle", '{"pieces":[[2,0]]}', "--r", "5"])
        assert code == 1
        assert "QuotientRankOutOfRange" in err

    def test_usage_error(self):
        _, code, _, err = invoke(["theta", "--r", "1"])
        assert code == 1
        assert "error" in err

    def test_unknown_command(self):
        _, code, _, _ = invoke(["frobnicate"])
        assert code == 1

    def test_missing_file(self):
        _, code, _, err = invoke(["theta", "--bundle", "@/nonexistent.json", "--r", "1"])
        assert code == 1
        assert "cannot read" in err

    def test_r_without_bundle_on_oracle_check(self):
        _, code, _, _ = invoke(["oracle-check", "--r", "1"])
        assert code == 1

    def test_main_returns_exit_code(self, capsys):
        assert main(["classify", "--bundle", '{"pieces":[[2,0]]}', "--r", "1"]) == 0
        assert capsys.readouterr().out == "nef_not_ample\n"
        assert main(["classify", "--bundle", "nope", "--r", "1"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--bundle", "[" * 100000 + "]" * 100000, "--r", "1"],
            ["theta", "--bundle", '{"pieces":[[1,1%s],[1,0]]}' % ("0" * 4999), "--r", "1"],
            ["member", "gr", "--bundle", '{"pieces":[[2,0]]}', "--r", "1",
             "--class", '{"x":1%s,"y":0}' % ("0" * 4999)],
        ],
        ids=["deep_nesting", "5000_digit_degree", "5000_digit_class"],
    )
    def test_json_the_decoder_cannot_hold(self, argv):
        report, code, out, err = invoke(argv)
        assert (report, code, out) == (None, 1, "")
        assert err.startswith("flagnef: error[ParseError]")
        assert "set_int_max_str_digits" not in err


class TestManyPieces:
    """Rank-1 pieces, 1200 of them: the block walk and the oracle must not
    recurse once per piece."""

    BUNDLE = json.dumps({"pieces": [[1, 1200 - i] for i in range(1200)]})

    def test_vabundles(self):
        report, code, _, _ = invoke(["vabundles", "--bundle", self.BUNDLE, "--r", "1"])
        assert code == 0
        assert report["result"]["count"] == len(report["result"]["va"]) == 1200
        assert report["result"]["min_slope_sum"] == "1"

    def test_vabundles_text(self):
        _, code, out, _ = invoke(["vabundles", "--bundle", self.BUNDLE, "--r", "1"])
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 1201)
        assert lines[0] == "composition".ljust(2401) + "  rank  degree  slope_sum"
        for row in (1, 2, 600, 1200):  # the unit moves up from the bottom piece, of degree 1
            composition = ["0"] * 1200
            composition[-row] = "1"
            assert lines[row] == f"({','.join(composition)})  1     {row:<6}  {row}"

    def test_oracle_check(self):
        report, code, _, err = invoke(["oracle-check", "--bundle", self.BUNDLE, "--r", "1"])
        assert (code, err) == (0, "")
        assert report["result"] == {"types": 1, "checks": 1, "mismatches": 0, "ok": True}


class TestStrictIntegers:
    BUNDLE = '{"pieces":[[1,2],[1,1],[1,0]]}'

    @pytest.mark.parametrize("value", [" 2 ", "+2", "2"])
    def test_r_accepts_signs_and_spaces(self, value):
        report, code, _, _ = invoke(["theta", "--bundle", self.BUNDLE, "--r", value])
        assert code == 0
        assert report["input"]["r"] == 2

    def test_flag_accepts_spaces(self):
        report, code, _, _ = invoke(["cone", "flag", "--bundle", self.BUNDLE, "--flag", "1, +2"])
        assert code == 0
        assert report["input"]["flag"] == [1, 2]

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1.0", "0x1", "\u00b2"])
    def test_r_rejects_what_int_alone_would_take(self, value):
        report, code, out, err = invoke(["theta", "--bundle", self.BUNDLE, "--r", value])
        assert (report, code, out) == (None, 1, "")
        assert err == f"flagnef: error[ParseError]: argument --r: invalid int value: {value!r}\n"

    @pytest.mark.parametrize("value", ["\u0661,2", "1_0", "1,2_0", "1;2"])
    def test_flag_rejects_what_int_alone_would_take(self, value):
        report, code, out, err = invoke(["cone", "flag", "--bundle", self.BUNDLE, "--flag", value])
        assert (report, code, out) == (None, 1, "")
        assert err == (
            "flagnef: error[ParseError]: --flag expects comma-separated integers, "
            f"got {value!r}\n"
        )

    def test_oracle_check_r_is_strict_too(self):
        _, code, _, err = invoke(["oracle-check", "--bundle", self.BUNDLE, "--r", "1_0"])
        assert code == 1
        assert "error[ParseError]: argument --r: invalid int value: '1_0'" in err


class TestStrictRationals:
    BUNDLE = '{"pieces":[[1,2],[1,1],[1,0]]}'

    @pytest.mark.parametrize(
        "argv,where",
        [
            (["member", "gr", "--bundle", BUNDLE, "--r", "1", "--class", '{"x":"\u0661","y":"0"}'],
             "class.x"),
            (["member", "flag", "--bundle", BUNDLE, "--flag", "1", "--class",
              '{"x":["\u0661"],"y":"0"}'], "class.x[0]"),
        ],
    )
    def test_class_rejects_non_ascii_digits(self, argv, where):
        report, code, out, err = invoke(argv)
        assert (report, code, out) == (None, 1, "")
        assert err == (
            f"flagnef: error[ParseError]: {where}: expected an integer or 'num/den' string, "
            "got '\u0661'\n"
        )

    @pytest.mark.parametrize("value", ["1\n", " 1", "1_0", "1/0", "\u00b2",
                                       pytest.param("1" + "0" * 5000, id="5001-digits")])
    def test_class_rejects_other_non_rationals(self, value):
        _, code, _, err = invoke(["member", "gr", "--bundle", self.BUNDLE, "--r", "1", "--class",
                                  json.dumps({"x": value, "y": "0"})])
        assert code == 1
        assert "error[ParseError]: class.x: expected an integer" in err

    def test_class_accepts_signed_fractions(self):
        report, code, _, _ = invoke(["member", "gr", "--bundle", self.BUNDLE, "--r", "1",
                                     "--class", '{"x":"+3/2","y":"-1/4"}'])
        assert code == 0
        assert report["input"]["class"] == {"x": "3/2", "y": "-1/4"}


class TestCharacteristicBound:
    def test_characteristic_above_the_certified_bound_is_rejected(self):
        from flagnef.hn import PRIME_BOUND

        p = 2**89 - 1  # a prime, but above the bound
        assert p > PRIME_BOUND
        bundle = json.dumps({"pieces": [[1, 1], [1, 0]], "field": {"char": p}})
        report, code, out, err = invoke(["theta", "--bundle", bundle, "--r", "1"])
        assert (report, code, out) == (None, 1, "")
        assert err == (
            "flagnef: error[ValidationError]: InvalidFieldContext: characteristic must be "
            f"below {PRIME_BOUND}, got {p}\n"
        )


R = 10**4200  # a rank and degree of 4201 digits: printable input, unprintable results
TOO_MANY_DIGITS = json.dumps({"pieces": [[R + 1, R], [1, -1]]})


def field_bundle(p, delta):
    return json.dumps({"pieces": [[1, 1], [1, 0]], "field": {"char": p, "frobenius_steps": delta}})


class TestDigitLimit:
    @pytest.mark.parametrize("command", [["theta"], ["classify"], ["cone", "gr"]])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_result_beyond_the_digit_limit(self, command, mode):
        argv = command + ["--bundle", TOO_MANY_DIGITS, "--r", str(R + 1)] + mode
        report, code, out, err = invoke(argv)
        assert (report, code, out) == (None, 1, "")
        assert err == ("flagnef: error[LimitExceeded]: a result has more than 4300 digits, "
                       "too many to print\n")

    @pytest.mark.parametrize("p,delta", [(2, 14285), (3, 9013)])
    @pytest.mark.parametrize("command", [["cone", "gr", "--r", "1"], ["cone", "flag", "--flag", "1"]])
    def test_p_delta_beyond_the_digit_limit(self, command, p, delta):
        report, code, out, err = invoke(command + ["--bundle", field_bundle(p, delta)])
        assert (report, code, out) == (None, 1, "")
        assert err == ("flagnef: error[ValidationError]: LimitExceeded: p**delta must be below "
                       f"10**4300, got {p}**{delta}\n")

    @pytest.mark.parametrize("p,delta", [(2, 14284), (3, 9012)])
    def test_p_delta_below_the_digit_limit(self, p, delta):
        report, code, _, err = invoke(["cone", "gr", "--bundle", field_bundle(p, delta), "--r", "1"])
        assert (code, err) == (0, "")
        assert report["result"]["p_delta"] == p**delta

    @pytest.mark.parametrize("delta", [10**8, 10**100], ids=["1e8", "1e100"])
    def test_huge_delta_is_rejected_without_the_power(self, delta):
        bundle = field_bundle(2, delta)
        # first the parse alone, so that a tree building p**delta fails here
        with pytest.raises(ValidationError, match="LimitExceeded"):
            parse_bundle_spec(bundle)
        start = time.perf_counter()
        _, code, out, err = invoke(["cone", "gr", "--bundle", bundle, "--r", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("flagnef: error[ValidationError]: LimitExceeded: ")
        assert time.perf_counter() - start < 0.1


# --- a fuzz of run_command -------------------------------------------------

_COMMAND_WORDS = [["theta"], ["classify"], ["cone", "gr"], ["cone", "flag"], ["member", "gr"],
                  ["member", "flag"], ["vabundles"], ["oracle-check"]]
_ENUMERATING = ("vabundles", "oracle-check")  # work grows with the total rank
_BIG = st.integers(-10**4250, 10**4250)
_RATIONAL = st.one_of(st.integers(-9, 9), _BIG, st.builds("{}/{}".format, st.integers(-9, 9),
                                                          st.integers(-1, 9)))


@st.composite
def _bundles(draw, small):
    """(bundle text, total rank): pieces or a splitting, valid or not, an
    optional field, and sometimes truncated JSON.  Small bundles have total
    rank at most 12."""
    rank = st.integers(1, 3) if small else st.integers(1, 4) | st.integers(1, 10**4200)
    if draw(st.integers(0, 3)) == 0:
        rank |= st.integers(-1, 0)
    pairs = draw(st.lists(st.tuples(rank, st.integers(-4, 4) | _BIG), min_size=1, max_size=4))
    if all(k > 0 for k, _ in pairs) and draw(st.integers(0, 3)) > 0:
        pairs = merge_by_slope(pairs)
    if draw(st.booleans()):
        spec = {"pieces": [list(pair) for pair in pairs]}
    else:
        spec = {"splitting": [d for _, d in pairs] * (3 if small else 1)}
    if draw(st.integers(0, 2)) == 0:
        spec["field"] = {"char": draw(st.sampled_from([0, 2, 3, 4, 7])),
                         "frobenius_steps": draw(st.integers(0, 3) | st.integers(-1, 10**9))}
    text = json.dumps(spec)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    total = sum(k for k, _ in pairs) if "pieces" in spec else len(spec["splitting"])
    return text, total


@st.composite
def _argvs(draw):
    words = draw(st.sampled_from(_COMMAND_WORDS))
    bundle, total = draw(_bundles(words[0] in _ENUMERATING))
    dims = st.integers(-1, max(total, 0) + 1) | st.integers(1, max(1, total - 1)) | _BIG
    argv = words + ["--bundle", bundle]
    if words[-1] == "flag":
        flag = draw(st.lists(dims, min_size=1, max_size=4))
        if draw(st.booleans()):
            flag = sorted(set(flag))
        argv += ["--flag", ",".join(map(str, flag))]
    elif words[0] != "oracle-check" or draw(st.booleans()):
        argv += ["--r", str(draw(dims))]
    if words == ["member", "gr"]:
        argv += ["--class", json.dumps({"x": draw(_RATIONAL), "y": draw(_RATIONAL)})]
    elif words == ["member", "flag"]:
        xs = draw(st.lists(_RATIONAL, max_size=len(flag) + 1))
        argv += ["--class", json.dumps({"x": xs, "y": draw(_RATIONAL)})]
    return argv + draw(st.sampled_from([[], ["--json"]]))


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_argvs())
    @example(["theta", "--bundle", TOO_MANY_DIGITS, "--r", str(R + 1)])
    @example(["classify", "--bundle", TOO_MANY_DIGITS, "--r", str(R + 1), "--json"])
    @example(["cone", "gr", "--bundle", TOO_MANY_DIGITS, "--r", str(R + 1)])
    @example(["cone", "gr", "--bundle", field_bundle(2, 10**8), "--r", "1"])
    @example(["cone", "flag", "--bundle", field_bundle(2, 10**8), "--flag", "1", "--json"])
    def test_every_input_ends_in_an_answer_or_one_error_line(self, argv):
        report, code, out, err = invoke(argv)
        assert code in (0, 1)
        if code == 1:
            assert (report, out) == (None, "")
            assert err.startswith("flagnef: error[")
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""
            if "--json" in argv:
                assert json.loads(out) == report


class TestCommandTable:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_classify_computes_theta_once(self, monkeypatch):
        from flagnef.theta import theta

        calls = []

        def counting_theta(*args):
            calls.append(args)
            return theta(*args)

        binding = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "flagnef" and vars(m).get("theta") is theta]
        assert "flagnef.cli" in {m.__name__ for m in binding}
        for module in binding:  # every module that binds theta
            monkeypatch.setattr(module, "theta", counting_theta)
        report, code, _, _ = invoke(["classify", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2"])
        assert code == 0
        assert report["result"] == {"class": "not_nef", "theta": "-1"}
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cone", "flag", "--bundle", "{", "--flag", "x"], "bundle spec: invalid JSON"),
            (["member", "flag", "--bundle", '{"pieces":[[1,1],[1,0]]}', "--flag", "x",
              "--class", "{"], "--flag expects"),
            (["member", "flag", "--bundle", '{"pieces":[[1,1],[1,0]]}', "--flag", "2,1",
              "--class", "{"], "InvalidFlagType"),
            (["member", "flag", "--bundle", '{"pieces":[[1,1],[1,0]]}', "--flag", "1",
              "--class", "{"], "class: invalid JSON"),
            (["member", "gr", "--bundle", "[]", "--r", "1", "--class", "{"], "bundle spec must be"),
            (["member", "gr", "--bundle", '{"pieces":[[1,1],[1,0]]}', "--r", "1",
              "--class", '{"x":"a","y":"b"}'], "class.x:"),
            (["member", "flag", "--bundle", '{"pieces":[[1,1],[1,0]]}', "--flag", "1",
              "--class", '{"x":["a"],"y":"b"}'], "class.x[0]:"),
        ],
    )
    def test_first_error_follows_the_input_order(self, argv, message):
        _, code, _, err = invoke(argv)
        assert code == 1
        assert message in err

    def test_unknown_command_in_report(self):
        with pytest.raises(ValueError, match="unknown command"):
            render_report({"command": "frobnicate", "input": {}, "result": {}})


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "flagnef", "theta", "--bundle", '{"pieces":[[2,0]]}', "--r", "1", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["theta"] == "0"


def test_import_loads_neither_dataclasses_nor_inspect():
    """The CLI's import stays lean: ``dataclasses`` alone pulls in
    ``inspect``.  ``-S`` keeps site hooks out of the count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, flagnef.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
