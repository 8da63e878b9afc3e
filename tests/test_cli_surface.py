"""The CLI surface is frozen: no subcommand gains, loses or re-defaults
an option.

``cli_surface.json`` records, for every parser reachable from
:func:`repro.cli.build_parser`, each option's strings, ``dest``,
default, type, action and choices.  Options are compared as a set per
subcommand (declaration order only affects ``--help`` layout).  After a
deliberate surface change, regenerate the fixture with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).with_name("cli_surface.json")


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return getattr(value, "__name__", repr(value))


def surface(parser: argparse.ArgumentParser | None = None,
            path: str = "repro") -> dict:
    """``{"repro <sub> ...": [option record, ...]}`` for every parser."""
    parser = parser or build_parser()
    commands: dict = {}
    options = []
    for action in parser._actions:
        record = {
            "strings": list(action.option_strings),
            "dest": action.dest,
            "default": _jsonable(action.default),
            "type": _jsonable(action.type),
            "action": type(action).__name__,
            "choices": _jsonable(action.choices),
        }
        if isinstance(action, argparse._SubParsersAction):
            record["choices"] = sorted(action.choices)
            for name, sub in action.choices.items():
                commands.update(surface(sub, f"{path} {name}"))
        options.append(record)
    commands[path] = sorted(
        options, key=lambda r: (r["strings"], r["dest"])
    )
    return commands


def test_surface_matches_the_frozen_fixture():
    frozen = json.loads(FIXTURE.read_text())
    # Round-trip through JSON so tuples and lists compare alike.
    assert json.loads(json.dumps(surface())) == frozen


if __name__ == "__main__":
    print(json.dumps(surface(), indent=1, sort_keys=True))
