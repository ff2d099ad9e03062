"""The command line's verbs and options, pinned against a recorded spec.

The spec is read from ``build_parser()`` by introspection rather than from
``--help`` output, whose layout changes between Python versions.
"""

import argparse
import json
from pathlib import Path

from kconn.cli import build_parser

SPEC = Path(__file__).parent / "fixtures" / "cli_parser_spec.json"


def _option(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "type": None if action.type is None else action.type.__name__,
        "help": action.help,
        "metavar": action.metavar,
    }


def parser_spec() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        "prog": parser.prog,
        "description": parser.description,
        "verb_dest": sub.dest,
        "verb_required": sub.required,
        "verbs": [
            {
                "name": name,
                "help": helps[name],
                "options": [_option(a) for a in verb._actions
                            if not isinstance(a, argparse._HelpAction)],
            }
            for name, verb in sub.choices.items()
        ],
    }


def test_parser_matches_recorded_spec():
    # every verb in order with its help, and every option with its flags,
    # default, choices, type, help and metavar
    assert parser_spec() == json.loads(SPEC.read_text("utf-8"))


if __name__ == "__main__":
    # regenerate the spec: PYTHONPATH=src python -m tests.test_cli_parser
    SPEC.write_text(json.dumps(parser_spec(), indent=2) + "\n", encoding="utf-8")
