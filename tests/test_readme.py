"""README.md is the command line's contract: each name a user types or reads is in it.

Every subcommand and flag of the parser, every config key, every verify check
and every CSV column the commands write must appear in README.md as inline
code, so none can be added or renamed without the README following.
"""

import argparse
import json
import re
from pathlib import Path

from kernlr import cli, verification

README = Path(__file__).resolve().parents[1] / "README.md"


def _inline_code() -> set[str]:
    """The text of every `span` in README.md outside fenced code blocks."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    return set(re.findall(r"`([^`\n]+)`", text))


def _missing(names) -> list[str]:
    return sorted(set(names) - _inline_code())


def test_readme_names_every_subcommand_and_flag():
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    names = set(commands)
    for parser in commands.values():
        names.update(flag for action in parser._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
    assert "--upsilon" in names  # the subcommands' own flags were read
    assert _missing(names) == []


def test_readme_names_every_config_key_and_check():
    assert _missing([*cli.DEFAULT_CONFIG, *verification.CHECKS]) == []


def test_readme_names_every_csv_column(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "gmm", "n": 30, "p": 2, "components": 2},
        "kernels": [{"family": "rbf"}], "ranks": [1, 5], "jl_trials": 2,
    }))
    for argv in (["sweep", "--config", str(config)], ["compare", "--config", str(config)],
                 ["verify", "identity", "--quick"], ["spectrum", "--upsilon", "2", "--count", "3"],
                 ["rates", "--hypothesis", "E", "--beta", "1", "--n", "100"]):
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    files = sorted(tmp_path.glob("*/*.csv"))
    assert [path.parent.name for path in files] == ["compare", "rates", "spectrum", "sweep", "verify"]
    columns = {column for path in files
               for column in path.read_text(encoding="utf-8").splitlines()[0].split(",")}
    assert _missing(columns) == []
