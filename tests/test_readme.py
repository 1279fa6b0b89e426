"""The README's examples stay in step with the schema and the CLI."""
import re
import shlex
from pathlib import Path

import pytest

from conegen.cli import build_parser
from conegen.problemfile import parse_problem

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.S | re.M)
JSON_BLOCKS = [body for lang, body in BLOCKS if lang == "json"]
CLI_LINES = [line.split("#")[0].strip() for lang, body in BLOCKS
             for line in body.splitlines() if line.startswith("conegen ")]


def test_readme_has_examples():
    assert JSON_BLOCKS and len(CLI_LINES) >= 10


@pytest.mark.parametrize("body", JSON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(JSON_BLOCKS))])
def test_json_example_parses(tmp_path, body):
    path = tmp_path / "example.json"
    path.write_text(body)
    parse_problem(str(path))


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
