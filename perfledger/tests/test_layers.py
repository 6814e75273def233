"""The file -> layer map is total, and the boundary table names real code."""

import os
import re

import pytest

from perfledger.layers import BOUNDARIES, LAYERS, OTHER, UnmappedFile, layer_of

from .conftest import REPO

SRC = os.path.join(REPO, "src", "repro")


def _source_files():
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_every_source_file_has_exactly_one_layer():
    files = list(_source_files())
    assert len(files) > 90
    seen = {layer_of(path) for path in files}
    assert seen <= set(LAYERS) | {OTHER}
    # every layer owns at least one file, so no row of the table is dead
    assert set(LAYERS) <= seen


def test_relative_and_absolute_paths_agree():
    assert layer_of("core/rlnc.py") == "coder"
    assert layer_of(os.path.join(SRC, "core", "rlnc.py")) == "coder"
    assert layer_of("core/endpoint.py") == "xnc"
    assert layer_of("emulation/events.py") == "events"
    assert layer_of("sanitizer/core.py") == "obs"
    assert layer_of("cli.py") == OTHER


@pytest.mark.parametrize("path", [
    "newpkg/thing.py",            # a synthetic new package
    "core/new_module.py",         # a new file in a split package
    "emulation/sub/deep.py",      # a new sub-package of a split package
    "toplevel.py",                # a new top-level module
])
def test_unmapped_file_raises(path):
    with pytest.raises(UnmappedFile):
        layer_of(path)
    with pytest.raises(UnmappedFile):
        layer_of(os.path.join(SRC, *path.split("/")))


def test_boundaries_name_functions_that_exist():
    for name, (prefix, patterns) in BOUNDARIES.items():
        assert name.split(".")[0] in LAYERS, name
        target = os.path.join(SRC, *prefix.split("/"))
        files = ([target] if target.endswith(".py") else
                 [os.path.join(target, f) for f in os.listdir(target)
                  if f.endswith(".py")])
        text = "".join(open(f).read() for f in files)
        for pattern in patterns:
            leaf = pattern.split(".")[-1]
            if leaf == "*":
                continue
            assert re.search(r"def %s\(" % re.escape(leaf), text), (name, pattern)
