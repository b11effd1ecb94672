"""Golden files for every CLI output: text and JSON reports of each
subcommand, the diagnostics of usage errors, and every --help text.

Each golden file holds the exact bytes of one stream: stdout for reports and
help texts, stderr for usage errors.  Help texts are rendered at a fixed
terminal width of 80 columns; their layout is argparse's, and the files were
made with Python 3.11.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagnef.cli import run_command
from helpers import invoke

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CHAR_P = '{"pieces":[[1,4],[1,0]],"field":{"char":2,"frobenius_steps":1}}'
THREE = '{"pieces":[[1,2],[1,1],[1,0]]}'

# golden name -> argv; exit 0, empty stderr
REPORTS = {
    "theta_text": ["theta", "--bundle", '{"splitting":[3,1,1,0]}', "--r", "2"],
    "theta_json": ["theta", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2", "--json"],
    "classify_text": ["classify", "--bundle", '{"pieces":[[2,0]]}', "--r", "1"],
    "classify_json": ["classify", "--bundle", CHAR_P, "--r", "1", "--json"],
    "cone_gr_text": ["cone", "gr", "--bundle", '{"pieces":[[1,2],[1,1]]}', "--r", "1"],
    "cone_gr_json": ["cone", "gr", "--bundle", CHAR_P, "--r", "1", "--json"],
    "cone_flag_text": [
        "cone", "flag", "--bundle",
        '{"pieces":[[1,2],[1,1],[1,0]],"field":{"char":3,"frobenius_steps":2}}',
        "--flag", "1,2",
    ],
    "cone_flag_json": ["cone", "flag", "--bundle", THREE, "--flag", "1,2", "--json"],
    "member_gr_text": [
        "member", "gr", "--bundle", '{"pieces":[[1,1],[1,-1]]}', "--r", "1",
        "--class", '{"x":"1","y":"1"}',
    ],
    "member_gr_json": [
        "member", "gr", "--bundle", '{"splitting":[2,0,-1]}', "--r", "2",
        "--class", '{"x":"3/2","y":-4}', "--json",
    ],
    "member_flag_text": [
        "member", "flag", "--bundle", THREE, "--flag", "1,2",
        "--class", '{"x":["1","1"],"y":"-1"}',
    ],
    "member_flag_json": [
        "member", "flag", "--bundle", '{"splitting":[4,1,1,-2]}', "--flag", "1,3",
        "--class", '{"x":[2,"7/3"],"y":"-12/4"}', "--json",
    ],
    "vabundles_text": ["vabundles", "--bundle", '{"pieces":[[1,3],[2,1],[1,0]]}', "--r", "2"],
    "vabundles_json": ["vabundles", "--bundle", '{"splitting":[1,1,0,-2]}', "--r", "2", "--json"],
    "oracle_check_text": ["oracle-check", "--bundle", '{"splitting":[3,1,1,0]}'],
    "oracle_check_json": ["oracle-check", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2", "--json"],
    "oracle_check_corpus_json": ["oracle-check", "--json"],
}

# golden name -> argv; exit 1, empty stdout
USAGE_ERRORS = {
    "error_no_command": [],
    "error_unknown_command": ["frobnicate"],
    "error_cone_without_target": ["cone"],
    "error_missing_r": ["theta", "--bundle", '{"pieces":[[2,0]]}'],
    "error_r_not_an_int": ["theta", "--bundle", '{"pieces":[[2,0]]}', "--r", "x"],
    "error_oracle_check_r_without_bundle": ["oracle-check", "--r", "1"],
}

# golden name -> argv before --help; exit 0, empty stderr
HELP = {
    "help": [],
    "help_theta": ["theta"],
    "help_classify": ["classify"],
    "help_cone": ["cone"],
    "help_cone_gr": ["cone", "gr"],
    "help_cone_flag": ["cone", "flag"],
    "help_member": ["member"],
    "help_member_gr": ["member", "gr"],
    "help_member_flag": ["member", "flag"],
    "help_vabundles": ["vabundles"],
    "help_oracle_check": ["oracle-check"],
}


def golden(name):
    return (GOLDEN / f"{name}.golden").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", REPORTS)
def test_report(name):
    assert invoke(REPORTS[name])[1:] == (0, golden(name), "")


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error(name):
    assert invoke(USAGE_ERRORS[name])[1:] == (1, "", golden(name))


@pytest.mark.parametrize("name", HELP)
def test_help(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    assert run_command([*HELP[name], "--help"], stdout=out, stderr=err) == (None, 0)
    assert (out.getvalue(), err.getvalue()) == (golden(name), "")
    assert capsys.readouterr() == ("", "")  # nothing escapes to the process's streams


def test_module_help():
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "flagnef", "--help"], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden("help"), "")
