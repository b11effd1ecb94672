import ast
import importlib
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

import flagnef.cli as cli
from flagnef import CHAR_ZERO, FieldContext, ValidationError, make_hn_type
from flagnef.cli import (
    READ_LIMIT,
    build_parser,
    main,
    render_report,
)
from flagnef.cones import NU_LIMIT
from flagnef.theta import _oracle_steps, _oracle_top
from helpers import invoke, merge_by_slope
from test_golden import REPORTS, USAGE_ERRORS

GOLDEN = Path(__file__).parent / "golden"
THETA = importlib.import_module("flagnef.theta")  # the module; flagnef.theta is the function
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_bundle(text):
    """The (type, context) that the --bundle parser of run_command reads."""
    attrs, _ = cli._bundle(text)
    return attrs["h"], attrs["ctx"]


class TestParseBundleSpec:
    def test_pieces(self):
        h, ctx = parse_bundle('{"pieces":[[1,1],[2,-1]]}')
        assert h == make_hn_type([(1, 1), (2, -1)])
        assert ctx == CHAR_ZERO

    def test_splitting(self):
        h, _ = parse_bundle('{"splitting":[3,1,1,0]}')
        assert h == make_hn_type([(1, 3), (2, 2), (1, 0)])

    def test_char_p_field(self):
        _, ctx = parse_bundle('{"pieces":[[2,0]],"field":{"char":3,"frobenius_steps":2}}')
        assert ctx == FieldContext(3, 2)

    def test_semantic_violation_wraps_core_error(self):
        from flagnef import ValidationError

        with pytest.raises(ValidationError, match="NonDecreasingSlopes"):
            parse_bundle('{"pieces":[[1,0],[1,0]]}')

    def test_malformed_json_reports_position(self):
        from flagnef import ParseError

        with pytest.raises(ParseError, match="line 1 column"):
            parse_bundle('{"pieces":[[1,1],')

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
                parse_bundle(bad)

    def test_composite_characteristic_is_a_validation_error(self):
        from flagnef import ValidationError

        with pytest.raises(ValidationError, match="InvalidFieldContext"):
            parse_bundle('{"pieces":[[2,0]],"field":{"char":4}}')


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


class TestFileArguments:
    def test_a_file_of_the_byte_limit_is_read(self, tmp_path):
        spec = tmp_path / "bundle.json"
        spec.write_bytes(b'{"pieces":[[2,0]]}'.ljust(READ_LIMIT))
        report, code, _, _ = invoke(["classify", "--bundle", f"@{spec}", "--r", "1"])
        assert (code, report["result"]["class"]) == (0, "nef_not_ample")

    def test_a_file_past_the_byte_limit_is_refused(self, tmp_path):
        spec = tmp_path / "bundle.json"
        spec.write_bytes(b'{"pieces":[[2,0]]}'.ljust(READ_LIMIT + 1))
        report, code, out, err = invoke(["classify", "--bundle", f"@{spec}", "--r", "1"])
        assert (report, code, out) == (None, 1, "")
        assert err == f"flagnef: error[LimitExceeded]: {spec} has more than {READ_LIMIT} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_file_is_refused_in_time(self):
        start = time.perf_counter()
        report, code, out, err = invoke(["theta", "--bundle", "@/dev/zero", "--r", "1"])
        assert (report, code, out) == (None, 1, "")
        assert err.startswith("flagnef: error[LimitExceeded]: /dev/zero has more than")
        assert time.perf_counter() - start < 1

    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        spec = tmp_path / "bundle.json"
        spec.write_bytes(b"\xff\xfe")
        report, code, out, err = invoke(["theta", "--bundle", f"@{spec}", "--r", "1"])
        assert (report, code, out) == (None, 1, "")
        assert err.startswith(f"flagnef: error[ParseError]: cannot read {spec}: 'utf-8' codec")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n", b"\n"])
    def test_newlines_are_read_as_in_text_mode(self, tmp_path, newline):
        spec = tmp_path / "class.json"
        spec.write_bytes(newline.join([b"{", b'"x": "1",', b'"y": oops}']))
        _, code, _, err = invoke(["member", "gr", "--bundle", '{"pieces":[[1,1],[1,-1]]}',
                                  "--r", "1", "--class", f"@{spec}"])
        assert code == 1
        assert "class: invalid JSON at line 3 column 6" in err


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


class TestCheckLimit:
    """oracle-check --bundle refuses a request whose largest oracle row
    would take more than ORACLE_LIMIT steps, top * sum(min(r_i, top)) with
    top = _oracle_top(--r or rank - 1), before any work."""

    HUGE = '{"pieces":[[100000000,0],[1,-1]]}'
    WIDE = json.dumps({"pieces": [[1, 4000 - i] for i in range(4000)]})
    SPLIT = '{"splitting":[3,1,1,0]}'  # pieces of rank 1, 2, 1

    def test_limit_is_above_the_corpus_sweep(self):
        # The corpus sweep is not limited, and its largest type takes 5 * 6
        # steps.  The 1200-piece probe at r = 1 (1200 steps) is answered,
        # and every bundle of rank - 1 > 50,000 is refused without --r, since
        # it takes at least (rank - 1)**2 steps.
        assert 5 * 6 < 1200 < THETA.ORACLE_LIMIT < 50_001**2

    def test_every_r_of_a_huge_type_is_refused_at_once(self):
        start = time.perf_counter()
        report, code, out, err = invoke(["oracle-check", "--bundle", self.HUGE])
        assert (report, code, out) == (None, 1, "")
        assert err == (f"flagnef: error[LimitExceeded]: oracle-check would take more than "
                       f"{THETA.ORACLE_LIMIT} oracle steps on this bundle; give a smaller --r\n")
        assert time.perf_counter() - start < 0.1

    def test_one_r_of_a_huge_type_is_answered(self):
        report, code, _, _ = invoke(["oracle-check", "--bundle", self.HUGE, "--r", "1"])
        assert code == 0
        assert report["result"] == {"types": 1, "checks": 1, "mismatches": 0, "ok": True}

    def test_a_large_r_of_a_huge_type_is_refused_at_once(self):
        start = time.perf_counter()
        report, code, out, err = invoke(["oracle-check", "--bundle", self.HUGE, "--r", "100000"])
        assert (report, code, out) == (None, 1, "")
        assert err.startswith("flagnef: error[LimitExceeded]: oracle-check would take more than")
        assert time.perf_counter() - start < 0.1

    def test_many_small_pieces_are_refused_within_a_second(self):
        start = time.perf_counter()
        report, code, out, err = invoke(["oracle-check", "--bundle", self.WIDE])
        assert (report, code, out) == (None, 1, "")
        assert err.startswith("flagnef: error[LimitExceeded]: oracle-check would take more than")
        assert time.perf_counter() - start < 1
        report, code, _, _ = invoke(["oracle-check", "--bundle", self.WIDE, "--r", "1"])
        assert (code, report["result"]["ok"]) == (0, True)

    @pytest.mark.parametrize("r", ["0", "-100000", "100000001", "1" + "0" * 40])
    def test_an_out_of_range_r_is_still_out_of_range(self, r):
        report, code, out, err = invoke(["oracle-check", "--bundle", self.HUGE, "--r", r])
        assert (report, code, out) == (None, 1, "")
        assert err.startswith("flagnef: error[QuotientRankOutOfRange]: quotient dimension must")

    def test_an_accepted_r_builds_no_row_past_the_limit(self, monkeypatch, row_builds):
        """The limit bounds the row actually built.  With the limit at 200
        steps: pieces of rank 15 and 1 have a whole row of 15 * 16 = 240
        steps, at most the 256-step floor, so every r would build it and is
        refused; pieces of rank 30 and 1 (a whole row of 30 * 31 steps) build
        the row to r, r * (r + 1) steps, so r = 1..13 are answered."""
        monkeypatch.setattr(THETA, "ORACLE_LIMIT", 200)
        for bundle, answered in (('{"pieces":[[15,1],[1,0]]}', []),
                                 ('{"pieces":[[30,1],[1,0]]}', list(range(1, 14)))):
            h, _ = parse_bundle(bundle)
            accepted = []
            for r in range(1, h.rank):
                row_builds.clear()
                _, code, _, err = invoke(["oracle-check", "--bundle", bundle, "--r", str(r)])
                if code == 0:
                    accepted.append(r)
                    assert row_builds and max(_oracle_steps(h, top) for top in row_builds) <= 200
                else:
                    assert (code, row_builds) == (1, [])
                    assert "more than 200 oracle steps" in err
            assert accepted == answered

    def test_one_r_of_a_large_type_builds_only_the_row_to_r(self):
        """Past the 256-step floor a single r builds only its row to r, so
        every --r whose row to r is within the limit is answered: r = 1999
        on pieces of rank 2500 and 1 (1999 * 2000 steps), r = 1600 on 2500
        rank-1 pieces (1600 * 1600)."""
        for pieces, r in (([[2500, 1], [1, 0]], 1999), ([[1, -i] for i in range(2500)], 1600)):
            h, _ = parse_bundle(json.dumps({"pieces": pieces}))
            assert _oracle_top(h, r) == (r, _oracle_steps(h, r))
            assert _oracle_steps(h, r) <= THETA.ORACLE_LIMIT < _oracle_steps(h, h.rank - 1)

    def test_the_limit_counts_oracle_steps(self, monkeypatch):
        monkeypatch.setattr(THETA, "ORACLE_LIMIT", 12)  # every r: 3 * (1 + 2 + 1)
        report, code, _, _ = invoke(["oracle-check", "--bundle", self.SPLIT])
        assert (code, report["result"]["checks"]) == (0, 3)
        monkeypatch.setattr(THETA, "ORACLE_LIMIT", 11)
        _, code, _, err = invoke(["oracle-check", "--bundle", self.SPLIT])
        assert code == 1
        assert "more than 11 oracle steps" in err
        # SPLIT's whole row is cheap, so every r builds it; on pieces of rank
        # 1, 20, 1 (a whole row of 21 * 22 steps) a single r builds the row to r
        wide = '{"pieces":[[1,1],[20,0],[1,-1]]}'
        monkeypatch.setattr(THETA, "ORACLE_LIMIT", 3)  # r = 1: 1 * (1 + 1 + 1), each rank capped at r
        report, code, _, _ = invoke(["oracle-check", "--bundle", wide, "--r", "1"])
        assert (code, report["result"]["checks"]) == (0, 1)
        _, code, _, err = invoke(["oracle-check", "--bundle", wide, "--r", "2"])
        assert code == 1  # r = 2: 2 * (1 + 2 + 1)
        assert "more than 3 oracle steps" in err

    def test_every_r_builds_one_whole_row_first(self, row_builds):
        """Past the 256-step floor (a whole row of 30 * 31 steps) an every-r
        request asks for r = rank - 1 first, so it builds, or refuses, the
        whole row once, and reads every r from it."""
        report, code, _, _ = invoke(["oracle-check", "--bundle", '{"pieces":[[30,1],[1,0]]}'])
        assert (code, report["result"]["checks"]) == (0, 30)
        assert row_builds == [30]

    def test_a_request_plans_its_row_once(self, monkeypatch):
        plan, plans = THETA._oracle_top, []

        def counting(*args):
            plans.append(args)
            return plan(*args)

        monkeypatch.setattr(THETA, "_oracle_top", counting)
        for argv, expected in ((["--r", "1"], 0), ([], 1)):
            plans.clear()
            _, code, _, _ = invoke(["oracle-check", "--bundle", self.HUGE, *argv])
            assert (code, len(plans)) == (expected, 1)

    def test_a_wrapped_oracle_is_refused_in_the_same_words(self, monkeypatch):
        """A caller may wrap the CLI's theta_oracle, as a tracer does; the
        refusal still reads the kernel module's limit, not the wrapper's module's."""
        argv = ["oracle-check", "--bundle", self.HUGE]
        unwrapped, oracle = invoke(argv), cli.theta_oracle

        def wrapped(h, r):
            return oracle(h, r)

        monkeypatch.setattr(cli, "theta_oracle", wrapped)
        assert not hasattr(sys.modules[wrapped.__module__], "ORACLE_LIMIT")
        assert invoke(argv) == unwrapped
        assert unwrapped[1] == 1 and "error[LimitExceeded]: oracle-check would" in unwrapped[3]

    def test_the_limit_is_the_oracles_own(self):
        """The CLI neither keeps the limit nor plans the oracle's row."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "theta" for a in node.names]
        assert imported and not [name for name in imported if name.startswith("_")]
        assert not hasattr(cli, "ORACLE_LIMIT")


class TestFlagLimit:
    """--flag takes at most NU_LIMIT quotient dimensions, refused before
    the flag type and its rays are built: the flag cone has nu rays of
    nu + 1 entries."""

    @staticmethod
    def argvs(nu):
        """``cone flag`` and ``member flag`` on a rank-(nu + 1) bundle with
        the flag 1..nu."""
        bundle = json.dumps({"pieces": [[nu + 1, 0]]})
        flag = ",".join(map(str, range(1, nu + 1)))
        return {"cone": ["cone", "flag", "--bundle", bundle, "--flag", flag],
                "member": ["member", "flag", "--bundle", bundle, "--flag", flag,
                           "--class", json.dumps({"x": [1] * nu, "y": 0})]}

    @pytest.mark.parametrize("command", ["cone", "member"])
    def test_a_long_flag_is_refused_at_once(self, command):
        argv = self.argvs(4000)[command] + ["--json"]
        start = time.perf_counter()
        report, code, out, err = invoke(argv)
        assert time.perf_counter() - start < 0.5
        assert (report, code, out) == (None, 1, "")
        assert err == ("flagnef: error[LimitExceeded]: --flag has more than 2000 "
                       "quotient dimensions\n")

    def test_the_limit_is_the_longest_flag_answered(self):
        report, code, _, _ = invoke(self.argvs(NU_LIMIT)["member"])
        assert (code, report["result"]) == (0, {"nef": True})
        for argv in self.argvs(NU_LIMIT + 1).values():
            report, code, _, err = invoke(argv)
            assert (report, code) == (None, 1)
            assert err.startswith("flagnef: error[LimitExceeded]: --flag has more than")


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
            parse_bundle(bundle)
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


# --- the plain reader against argparse -----------------------------------------

_B = '{"pieces":[[1,1],[2,-1]]}'
_GOOD = {"--bundle": [_B, '{"splitting":[1,0]}'], "--r": ["1", "2", " 2"], "--flag": ["1", "1,2"],
         "--class": ['{"x":"1","y":"-1"}', '{"x":["1"],"y":"0"}', '{"x":["1","1"],"y":"0"}']}
_VALUES = ["{", "1_0", "-1", "", "-x", "2,1", "@/nonexistent.json"]
_TOKENS = st.sampled_from(
    ["theta", "cone", "member", "gr", "flag", "oracle-check", "frobnicate", "cone gr"]
    + ["--bundle", "--r", "--flag", "--class", "--json", "--bun", "--b", "--cl", "--j", "--fl",
       "-h", "--help", "--", "--x", "-r"]
    + ["--r=2", "--r=1_0", "--bundle=" + _B, "--bun=" + _B, "--json=1", "--class="]
    + _VALUES + [value for values in _GOOD.values() for value in values])


@st.composite
def _token_argvs(draw):
    """Command words, then the command's options, most of them once as a
    plain request has them, each value good or bad, with up to two tokens
    of any kind put in anywhere."""
    words = draw(st.sampled_from(_COMMAND_WORDS * 3 + [[], ["cone"], ["frobnicate"], ["cone gr"]]))
    command = cli._COMMANDS.get(" ".join(words))
    argv = list(words)
    flags = [opt.flag for opt in command.options] if command else []
    for flag in draw(st.permutations(flags + ["--json"])):
        if flag == "--json":
            argv += [flag] * draw(st.integers(0, 1))
        else:  # absent, once, or twice
            for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
                argv += [flag, draw(st.sampled_from(_GOOD[flag] * 5 + _VALUES))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKENS))
    return argv


def _golden_examples(test):
    """Every golden argv is an explicit example of ``test`` too."""
    for argv in [*REPORTS.values(), *USAGE_ERRORS.values()]:
        test = example(list(argv))(test)
    return test


class TestPlainReader:
    @settings(max_examples=400, deadline=None)
    @_golden_examples
    @given(_token_argvs())
    @example(["theta", "--r", "1_0"])
    @example(["member", "gr", "--bundle", _B])
    @example(["theta", "--bundle", _B, "--r", "1", "--json", "--json"])
    @example(["theta", "--bundle", _B, "--r", "1_0", "--r", "1"])
    @example(["theta", "--bun", _B, "--r", "1"])
    @example(["theta", "--bundle", _B, "--r=2"])
    @example(["theta", "--bundle", _B, "--r", "-1"])
    @example(["theta", "--bundle", _B, "--r", "1", "-h"])
    def test_argparse_reads_every_argv_alike(self, argv):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CORPUS", {"max_rank": 3, "max_abs_degree": 1})
            plain = invoke(argv)
            patch.setattr(cli, "_plain_args", lambda argv: None)
            assert invoke(argv) == plain


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
            (["theta", "--bundle", "{", "--r", "x"], "bundle spec: invalid JSON"),
            (["theta", "--r", "x"], "required: --bundle"),
        ],
    )
    def test_first_error_follows_the_input_order(self, argv, message):
        _, code, _, err = invoke(argv)
        assert code == 1
        assert message in err

    def test_a_repeated_r_keeps_its_last_value(self, monkeypatch):
        argv = ["theta", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "1_0", "--r", "2"]
        report, code, _, _ = plain = invoke(argv)
        assert (code, report["input"]["r"]) == (0, 2)
        monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
        assert invoke(argv) == plain

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


def test_import_loads_no_dataclasses_inspect_or_argparse():
    """The CLI's import stays lean: ``dataclasses`` alone pulls in
    ``inspect``, and argparse waits for a request that needs it.  ``-S``
    keeps site hooks out of the count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    names = "{'argparse', 'dataclasses', 'inspect'}"
    code = f"import sys, flagnef.cli; print(sorted({names} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_plain_requests_never_import_argparse():
    """A valid request, a missing option and a bad value in plain form are
    read without argparse; --help, the control, imports it."""
    bundle = '{"pieces":[[2,0]]}'
    argvs = [["theta", "--bundle", bundle, "--r", "1", "--json"], ["theta", "--bundle", bundle],
             ["theta", "--bundle", bundle, "--r", "1_0"], ["theta", "--help"]]
    code = ("import io, json, sys\n"
            "from flagnef.cli import run_command\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    _, exit_code = run_command(argv, io.StringIO(), io.StringIO())\n"
            "    print(exit_code, 'argparse' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0 False", "1 False", "1 False", "0 True"]
