"""The README's examples, run as written: every command line of its
command-line block exits 0, and the library example prints what its
comments say."""

import contextlib
import io
import os
import re

import pytest

from pgl2poly import ProjMat
from pgl2poly.cli import main

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "README.md")) as fh:
    README = fh.read()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)

COMMANDS = [line.split()[1:] for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("pgl2poly ")]


def test_the_command_block_shows_every_command():
    assert {argv[0] for argv in COMMANDS} == {"classify", "qmap", "invariants",
                                              "count", "verify"}

@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_exits_zero(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue()

def test_library_example_matches_its_comments():
    block, = _blocks("python")
    names = {}
    exec(block, names)
    comments = dict(re.findall(r"^(\w+) = .*#\s*(.*)$", block, re.M))
    assert comments["A"] == f"order {ProjMat(names['A']).order()}" == "order 3"
    assert comments["Q"] == repr(names["Q"])
    assert comments["cubics"] == f"the {len(names['cubics'])} invariant cubics"
    assert len(names["cubics"]) == 4
