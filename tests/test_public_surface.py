"""The public surface: each module's ``__all__`` and the README's examples.

``__all__`` must name exactly the public functions and classes a module
defines (constants may be listed besides), so a new name cannot go
unexported and a deleted one cannot linger.  The README's library example
runs as written, its config example names exactly the keys ``ssmad
forward --config`` accepts, and its command-line section documents exactly
the subcommands the parser has.
"""

import argparse
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import ssmad
from ssmad import blocks, cli, metrics, pipeline, scans, ssm, synth, tensor

ROOT = Path(__file__).resolve().parents[1]
MODULES = [tensor, scans, ssm, blocks, pipeline, metrics, synth]


def _is_api(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_the_public_functions_and_classes(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
    exported = {n for n in names if _is_api(getattr(module, n))}
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and _is_api(obj) and obj.__module__ == module.__name__
    }
    assert exported == defined


# what the import system sets on a package; any other dunder is the
# package's own, as a __version__ would be
_IMPORT_DUNDERS = {
    "__name__", "__doc__", "__package__", "__loader__", "__spec__", "__path__",
    "__file__", "__cached__", "__builtins__",
}


def test_package_root_binds_only_modules():
    # every name is imported from its module; the root is no second path
    bound = {n for n, obj in vars(ssmad).items() if not inspect.ismodule(obj)}
    assert bound - _IMPORT_DUNDERS == set()


def _readme_section(heading: str) -> str:
    text = (ROOT / "README.md").read_text()
    level = len(heading.split(" ", 1)[0])
    # the section runs to the next heading of its level or above; a "# "
    # comment in a code block is none
    body = text.split(f"\n{heading}\n", 1)[1]
    return re.split(rf"\n#{{2,{level}}} ", body, maxsplit=1)[0]


def _code_block(section: str, lang: str) -> str:
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    namespace = {}
    exec(_code_block(_readme_section("## Library"), "python"), namespace)
    assert namespace["seq"].shape == (4, 64)
    assert namespace["y"].shape == (4, 64)


def test_readme_config_example_names_every_config_key():
    example = json.loads(_code_block(_readme_section("### forward"), "json"))
    fields = [f.name for f in dataclasses.fields(pipeline.DecoderConfig)]
    assert list(example) == list(cli._CONFIG_FIELDS) == fields


def test_readme_documents_exactly_the_subcommands():
    section = _readme_section("## Command line")
    headings = [line[4:] for line in section.splitlines() if line.startswith("### ")]
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert headings == list(subparsers.choices)
