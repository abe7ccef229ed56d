"""Every option that ``rfmc``'s parser defines appears in some test file, so
an option that nothing sets fails here instead of piling up."""

import argparse
import re
from pathlib import Path

from rfmc import cli

TESTS = Path(__file__).resolve().parent


def test_every_option_appears_in_the_tests():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for p in (parser, *subparsers.choices.values())
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    text = "\n".join(path.read_text() for path in sorted(TESTS.glob("*.py")))
    unset = sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", text))
    assert unset == []
