"""The argument parser of ``repvar.cli``, checked against the argparse
parser the CLI once built by hand (``argparse_reference.build_parser``)
and for its usage errors and help texts."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repvar.cli
from argparse_reference import build_parser
from repvar.cli import _COMMANDS, _parse_args
from test_cli import modules_after, run

ROOT = Path(__file__).resolve().parent.parent


def reference_outcome(argv):
    """("ok", vars) when argparse accepts ``argv``, ("help",) when it
    prints help, ("error",) when it rejects it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return ("ok", vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)


def outcome(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return ("ok", vars(_parse_args(argv)))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)


def documented_argvs():
    """Every command line in tests/test_cli.py (a value that is not a
    literal becomes "1"), the README and the CI workflow."""
    argvs = {}
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            argv = (arg.value if isinstance(arg, ast.Constant) else "1" for arg in node.args[1:])
            argvs[tuple(argv)] = None
    for name in ("README.md", ".github/workflows/tests.yml"):
        for argv in shell_argvs((ROOT / name).read_text()):
            argvs[tuple(argv)] = None
    return [list(argv) for argv in argvs]


def shell_argvs(text):
    """The argv of each command in the shell lines of ``text`` that runs
    ``repvar`` or ``python -m repvar.cli``, a line ending in ``\\``
    continued on the next."""
    for line in text.replace("\\\n", " ").splitlines():
        found = re.search(r"(?:^\s*repvar|python -m repvar\.cli)( .*)", line)
        if found:
            yield shlex.split(re.split(r"[)|>]", found.group(1))[0])


DOCUMENTED = documented_argvs()


def test_a_command_continued_on_the_next_line_is_one_argv():
    text = 'run: |\n  repvar compute --backend affc \\\n    --genus 1 > "$out"\n  repvar -h\n'
    assert list(shell_argvs(text)) == [
        ["compute", "--backend", "affc", "--genus", "1"], ["-h"],
    ]


def test_documented_argvs_are_found():
    assert len(DOCUMENTED) > 40
    assert ["compute", "--backend", "affc", "--genus", "1"] in DOCUMENTED
    assert ["--help"] in DOCUMENTED


@pytest.mark.parametrize("argv", DOCUMENTED, ids=" ".join)
def test_documented_argv_parses_as_argparse_did(argv):
    assert outcome(argv) == reference_outcome(argv)


def test_no_parse_changes_the_tables_puncture_default(monkeypatch):
    # The fast reader and argparse both start from the table's one []:
    # an append in place would hand the next command line old punctures.
    default = dict(_COMMANDS["compute"][1])["--puncture"]["default"]
    argv = ["compute", "--backend", "custom", "--datum", "d.json", "--genus", "1"]
    with monkeypatch.context() as patch:
        patch.setattr(repvar.cli, "_argparse_parser", None)  # the fast reader only
        assert _parse_args(argv + ["--puncture", "a", "--puncture", "b"]).puncture == ["a", "b"]
    assert _parse_args(argv + ["--puncture=a"]).puncture == ["a"]
    assert default == []
    assert _parse_args(argv).puncture == []


OPTIONS = sorted({name for _, options in _COMMANDS.values() for name, _ in options})
NAMES = st.sampled_from(
    OPTIONS + ["-h", "--help", "--h", "--he", "--g", "--gen", "--gr", "--max", "--max-g",
               "--max-p", "--pun", "--b", "--back", "--f", "--d", "--bud", "--bogus", "-x", "--",
               "-hh", "-hh=x"]
)
VALUES = st.sampled_from(
    ["compute", "verify", "classes", "bogus", "finite", "affc", "custom", "nope", "q-text",
     "uv-text", "json", "0", "1", "2", "-1", "-01", "+3", " 4 ", "1_0", "1.5", "-1.5", "-.5",
     "x", "", "-", "a b", "-a b", "--x y", "rep=2", "c2", "x.json"]
)
TOKENS = st.one_of(NAMES, VALUES, st.builds("{}={}".format, NAMES, VALUES))


GOOD = {int: st.sampled_from(["0", "1", "-1", "+3", " 4 "]), str: VALUES}


@st.composite
def command_lines(draw):
    """A command, its options (required ones always among them) spelt in
    full or by a prefix, each with a value fitting it, any value or an
    option name, and now and then a stray token.  Half of them spell
    every option in full with a separate value and have no stray token,
    the form ``_parse_args`` reads without argparse when the values fit."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    options = _COMMANDS[command][1]
    chosen = draw(st.lists(st.sampled_from(options), max_size=4))
    chosen = draw(st.permutations(chosen + [o for o in options if o[1].get("required")]))
    plain = draw(st.booleans())
    argv = [command]
    for option, keywords in chosen:
        names = [option[:k] for k in range(3, len(option) + 1)]
        name = option if plain else draw(st.sampled_from(names))
        good = (st.sampled_from(keywords["choices"]) if "choices" in keywords
                else GOOD[keywords.get("type", str)])
        value = draw(st.one_of(good, VALUES, NAMES))
        argv += [f"{name}={value}"] if not plain and draw(st.booleans()) else [name, value]
    for _ in range(0 if plain else draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_parses_command_lines_as_argparse_did(argv):
    assert outcome(argv) == reference_outcome(argv)


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(list(_COMMANDS) + ["-h", "bogus", "--bogus"]),
    st.lists(st.one_of(TOKENS, st.tuples(NAMES, VALUES).map(list)), max_size=10),
)
def test_parses_any_tokens_as_argparse_did(command, tokens):
    argv = [command]
    for token in tokens:
        argv += token if isinstance(token, list) else [token]
    assert outcome(argv) == reference_outcome(argv)


@pytest.mark.parametrize("argv", [
    ["compute", "--gen=2", "--backend", "affc"],
    ["compute", "--backend", "affc", "--genus", "0", "--pun", "a", "--puncture=b", "--p", "c"],
    ["compute", "--backend", "affc", "--genus", "-1"],
    ["verify", "--backend", "finite", "--budget", "5", "--budget=-7", "--max-g", "-3"],
    ["classes", "--group", "a b", "--gr", "-5"],
], ids=" ".join)
def test_accepted_forms(argv):
    expected = reference_outcome(argv)
    assert expected[0] == "ok"
    assert outcome(argv) == expected


S3 = str(ROOT / "data" / "groups" / "s3.json")


@pytest.mark.parametrize("argv", [
    ["compute", "--backend", "finite", "--group", S3, "--genus", "2",
     "--puncture", "rep=1", "--puncture", "rep=2"],
    ["verify", "--backend", "finite", "--group", S3, "--max-genus", "2",
     "--max-punctures", "2", "--budget", "10000"],
    ["compute", "--backend", "affc", "--genus", "3", "--format", "json"],
], ids=["finite compute", "finite verify", "affc compute"])
def test_benchmark_forms_do_not_import_argparse(argv):
    # A fresh interpreter, as pytest itself has imported argparse.
    loaded = modules_after(
        "import io\nfrom repvar.cli import main\nout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = main({argv!r})\nsys.stdout = out\nassert code == 0, code"
    )
    assert "repvar.cli" in loaded
    assert "argparse" not in loaded


USAGE_ERRORS = [
    ((), "command"),
    (("bogus",), "bogus"),
    (("compute", "--backend", "affc", "--genus", "1", "--bogus"), "--bogus"),
    (("compute", "--backend", "affc"), "--genus"),
    (("compute", "--backend", "affc", "--genus", "one"), "--genus"),
    (("compute", "--backend", "nope", "--genus", "1"), "--backend"),
    (("compute", "--backend", "affc", "--genus"), "--genus"),
    (("verify", "--backend", "affc", "--max", "3"), "--max"),
    (("classes", "--group", "--group"), "--group"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS, ids=[
    "no command", "unknown command", "unknown option", "missing required", "bad int",
    "bad choice", "missing value", "ambiguous prefix", "option as value",
])
def test_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: repvar")
    assert re.match(r"repvar( \w+)?: error: ", error)
    assert named in error


@pytest.mark.parametrize("argv, command", [
    (("-h",), None),
    (("compute", "--help"), "compute"),
    (("verify", "-h"), "verify"),
    (("classes", "--he"), "classes"),
    (("--bogus", "verify", "stray", "-h"), "verify"),
])
def test_help_lists_every_option(capsys, argv, command):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: repvar {command or ''}".rstrip())
    assert re.search(r"^  -h, --help +show this help message and exit$", out, re.M)
    if command is None:
        for name, (text, _) in _COMMANDS.items():
            assert re.search(rf"^    {name} +{re.escape(text)}$", out, re.M)
    else:
        text, options = _COMMANDS[command]
        assert text in out
        for option, keywords in options:
            assert re.search(rf"^  {option}[^\n]*\s+{re.escape(keywords['help'])}$", out, re.M)


@pytest.mark.parametrize("columns", ["20", "300"])
def test_help_and_usage_do_not_depend_on_the_terminal_width(capsys, monkeypatch, columns):
    monkeypatch.delenv("COLUMNS", raising=False)
    helps = [("compute", "-h"), ("verify", "-h")]
    unset = [run(capsys, *argv) for argv in helps]
    monkeypatch.setenv("COLUMNS", columns)
    assert [run(capsys, *argv) for argv in helps] == unset
    for argv, _ in USAGE_ERRORS:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: repvar")
        assert re.match(r"repvar( \w+)?: error: ", error)
