"""The options of every subcommand, against a recorded snapshot.

A run's JSON ``config`` echo holds every option's dest, and ``--config``
files are checked against each option's type and choices, so a change to any
of them changes which runs reproduce.  ``cli_options.json`` records, for each
subcommand and dest: the flags, the default, the type, the choices and the
action.  The action is ``"store"``, ``"append"``, or, for a switch, the value
each of its flags sets, so the snapshot records what argparse does with a
flag and not which ``Action`` class does it.
"""

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from tokembed.cli import build_arg_parser
from tokembed.encoder import EncoderSizes, WeightScheme
from tokembed.parser import ParserConfig
from tokembed.tagger import TaggerConfig

SNAPSHOT = Path(__file__).resolve().parent / "cli_options.json"


def subcommands():
    ap = build_arg_parser()
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def options(command):
    """dest -> flags, default, type, choices and action of ``command``."""
    ap = build_arg_parser()
    defaults = vars(ap.parse_args([command]))
    out = {}
    for action in subcommands()[command]._actions:
        if action.dest == "help":
            continue
        entry = out.setdefault(action.dest, {
            "flags": [], "default": defaults[action.dest], "type": None,
            "choices": None, "action": {} if action.nargs == 0 else "store"})
        entry["flags"] = sorted(entry["flags"] + action.option_strings)
        if action.type is not None:
            entry["type"] = action.type.__name__
        if action.choices is not None:
            entry["choices"] = list(action.choices)
        if action.nargs == 0:
            for flag in action.option_strings:
                entry["action"][flag] = getattr(ap.parse_args([command, flag]),
                                                action.dest)
        elif isinstance(action, argparse._AppendAction):
            entry["action"] = "append"
    return out


def test_every_subcommand_keeps_its_options():
    recorded = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert sorted(subcommands()) == sorted(recorded)
    for command, expected in recorded.items():
        assert options(command) == expected, command


@pytest.mark.parametrize("command, cls, renamed", [
    ("train-tagger", TaggerConfig, {}),
    ("train-parser", ParserConfig, {}),
    ("train-encoder", WeightScheme, {"name": "scheme"}),
    ("train-encoder", EncoderSizes, {}),
])
def test_cli_defaults_are_the_config_defaults(command, cls, renamed):
    defaults = vars(build_arg_parser().parse_args([command]))
    for field in dataclasses.fields(cls):
        assert defaults[renamed.get(field.name, field.name)] == field.default, field.name
