"""The CLI request path against references kept in ``helpers``: the rational
reader, the per-command reader data of the command table, and the rendering
of every report in both modes."""

import argparse
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import flagnef.cli as cli
from flagnef.cli import build_parser, render_report
from flagnef.errors import ParseError
from helpers import invoke, merge_by_slope, reference_parse_rational, reference_render


def outcome(read, *args):
    """What ``read(*args)`` returns, with its type, or the class and message it raises."""
    try:
        value = read(*args)
    except ParseError as exc:
        return ParseError, str(exc)
    return type(value), value


# --- the rational reader -----------------------------------------------------

LONG = ["9" * 4300, "1" + "0" * 4300, "-" + "7" * 4300]


class TestRationalReader:
    @pytest.mark.parametrize("value", ["-0", "+0/7", "007/010", "-12/4", "0/5", "+3", "-0/1"]
                             + LONG + [f"1/{d}" for d in LONG if d[0] != "-"]
                             + [d + "/7" for d in LONG] + ["5/" + d for d in LONG if d[0] != "-"])
    def test_fixed_strings(self, value):
        assert outcome(cli._parse_rational, value, "class.y") == \
            outcome(reference_parse_rational, value, "class.y")

    @pytest.mark.parametrize("value", [LONG[1], "-" + LONG[1], LONG[1] + "/3", "3/" + LONG[1]])
    def test_past_the_digit_limit_is_a_parse_error(self, value):
        with pytest.raises(ParseError) as info:
            cli._parse_rational(value, "class.x")
        assert str(info.value) == f"class.x: expected an integer or 'num/den' string, got {value!r}"
        assert outcome(cli._parse_rational, value, "class.x") == \
            outcome(reference_parse_rational, value, "class.x")

    @given(st.from_regex(cli._RATIONAL_RE, fullmatch=True))
    @example("9" * 4301)
    @example("1/" + "9" * 4301)
    def test_the_rational_language(self, value):
        got = outcome(cli._parse_rational, value, "class.x")
        assert got == outcome(reference_parse_rational, value, "class.x")
        assert got[0] is Fraction or len(value) > 4300

    @given(st.text(max_size=10) | st.integers() | st.booleans() | st.floats() | st.none()
           | st.lists(st.integers(), max_size=2))
    def test_any_other_json_value(self, value):
        assert outcome(cli._parse_rational, value, "class.x") == \
            outcome(reference_parse_rational, value, "class.x")


# --- the command table -------------------------------------------------------


def _subparser(name):
    parser = build_parser()
    for word in name.split():
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subs.choices[word]
    return parser


class TestReaderData:
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_precomputed_data_matches_the_argparse_tree(self, name):
        """Each command's flag -> dest map and required flags, read off its
        options when it is declared, are argparse's, in option order."""
        command = cli._COMMANDS[name]
        actions = [a for a in _subparser(name)._actions
                   if a.option_strings and a.option_strings[0] not in ("-h", "--json")]
        assert list(command.dests.items()) == [(a.option_strings[0], a.dest) for a in actions]
        assert list(command.dests) == [opt.flag for opt in command.options]
        assert command.required == tuple(a.option_strings[0] for a in actions if a.required)


# --- rendering ---------------------------------------------------------------

FIXED = [
    ["vabundles", "--bundle", '{"pieces":[[3,-7]]}', "--r", "1"],  # one block
    ["vabundles", "--bundle", '{"pieces":[[12,5],[11,-3]]}', "--r", "11"],  # entries of two digits
    ["vabundles", "--bundle", '{"pieces":[[12,100],[12,-100]]}', "--r", "12"],  # wide columns
    ["vabundles", "--bundle", '{"pieces":[[7,5],[3,-2],[2,-9]]}', "--r", "4"],  # fractional sums
    ["theta", "--bundle", '{"pieces":[[7,5],[3,-2],[2,-9]]}', "--r", "3"],
    ["member", "flag", "--bundle", '{"splitting":[9,-1,-1,-20]}', "--flag", "1,2,3",
     "--class", '{"x":["1/3","0","7/5"],"y":"-1234567/89"}'],
]


def _requests(seed, count):
    """``count`` valid argvs over every command: up to three pieces (five
    outside vabundles) of rank up to 12 with degrees of either sign, some
    in characteristic p, with random quotient dimensions, flags and
    classes."""
    rng = random.Random(seed)

    def rational():
        return rng.choice([rng.randint(-30, 30), f"{rng.randint(-300, 300)}/{rng.randint(1, 40)}"])

    argvs = []
    words = [name.split() for name in cli._COMMANDS]
    for i in range(count):
        command = words[i % len(words)]
        n_pieces = rng.randint(1, 3 if command == ["vabundles"] else 5)
        raw = [(rng.randint(1, 12), rng.randint(-60, 60)) for _ in range(n_pieces)]
        pieces = merge_by_slope(raw + [(rng.randint(1, 3), -200)])
        spec = {"pieces": [list(p) for p in pieces]}
        if rng.random() < 0.3:
            spec["field"] = {"char": rng.choice([2, 3, 5]), "frobenius_steps": rng.randint(0, 2)}
        n = sum(k for k, _ in pieces)
        argv = command + ["--bundle", json.dumps(spec)]
        if command[-1] == "flag":
            dims = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
            argv += ["--flag", ",".join(map(str, dims))]
        elif command != ["oracle-check"] or rng.random() < 0.5:
            argv += ["--r", str(rng.randint(1, n - 1))]
        if command == ["member", "gr"]:
            argv += ["--class", json.dumps({"x": rational(), "y": rational()})]
        elif command == ["member", "flag"]:
            argv += ["--class", json.dumps({"x": [rational() for _ in dims], "y": rational()})]
        argvs.append(argv)
    return argvs


class TestRendering:
    @pytest.mark.parametrize("argv", FIXED + _requests(18, 160))
    def test_both_modes_render_as_the_reference(self, argv):
        report, code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out == reference_render(report, as_json=False)
        json_report, code, out, err = invoke(argv + ["--json"])
        assert (code, err, json_report) == (0, "", report)
        assert out == reference_render(report, as_json=True)
        assert render_report(report, "json") == out

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_a_block_rank_past_the_digit_limit(self, mode):
        """C(15000, 7500) has more than 4300 digits: the text table's str()
        and the JSON encoder both fail on it, and both end in LimitExceeded."""
        argv = ["vabundles", "--bundle", '{"pieces":[[15000,1],[1,0]]}', "--r", "7500"] + mode
        start = time.perf_counter()
        assert invoke(argv) == (None, 1, "", "flagnef: error[LimitExceeded]: a result has more "
                                             "than 4300 digits, too many to print\n")
        assert time.perf_counter() - start < 1
