"""Mutated chain CSVs and network documents at the CLI boundary.

Whatever the mutation, ``bounds`` answers with an exit code: a malformed
input is a ToolError (exit code 2 or above), never an uncaught exception.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundchain.cli import main

NET = Path(__file__).resolve().parents[1] / "docs" / "examples" / "network.json"
GARBLE = st.text(alphabet="0123456789-+.,eEx #=", max_size=6)
NOT_A_NUMBER = st.sampled_from(["x", "", "nan", "inf", "-inf", "1e999", "--1",
                                "0x10", "1,2"])
WRONG_TYPE = st.sampled_from([None, "x", -1, 0, 1.5, True, [], {}, [1, "a"],
                              {"species": 0}])
BAD_SPECIES = st.sampled_from([-1, 3, 7, "X9"])


@pytest.fixture(scope="module")
def work(tmp_path_factory, upper211):
    path = tmp_path_factory.mktemp("fuzz")
    upper211.to_csv(path / "chain.csv")
    return path


def _field(draw, line):
    fields = line.split(",")
    return fields, draw(st.integers(0, len(fields) - 1))


def _mutate_lines(draw, lines):
    """Drop, duplicate or garble lines, flip signs, or make fields non-numeric."""
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "garble", "flip",
                                   "text"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "garble":
            a = draw(st.integers(0, len(lines[i])))
            b = draw(st.integers(a, len(lines[i])))
            lines[i] = lines[i][:a] + draw(GARBLE) + lines[i][b:]
        elif op == "flip":
            fields, j = _field(draw, lines[i])
            f = fields[j]
            fields[j] = f[1:] if f.startswith("-") else "-" + f
            lines[i] = ",".join(fields)
        else:
            fields, j = _field(draw, lines[i])
            fields[j] = draw(NOT_A_NUMBER)
            lines[i] = ",".join(fields)
    return lines


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classify_survives_mutated_chain_csv(work, data):
    lines = (work / "chain.csv").read_text().splitlines()
    bad = work / "mutated.csv"
    bad.write_text("\n".join(_mutate_lines(data.draw, lines)) + "\n")
    code = main(["classify", "--chain", str(bad)])
    assert isinstance(code, int)


def _paths(node, path=()):
    if path:
        yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_build_survives_mutated_network(work, data):
    doc = copy.deepcopy(json.loads(NET.read_text()))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = data.draw(st.sampled_from(["delete", "wrong-type", "species"]))
        if op == "delete":
            del parent[path[-1]]
        else:
            # a copy: the strategy hands out the same list and dict objects
            parent[path[-1]] = copy.deepcopy(data.draw(
                WRONG_TYPE if op == "wrong-type" else BAD_SPECIES))
    bad = work / "mutated.json"
    bad.write_text(json.dumps(doc))
    code = main(["build", "--network", str(bad), "--weights", "2,1,1",
                 "--direction", "upper", "--l-exact", "12",
                 "--out", str(work / "built.csv")])
    assert isinstance(code, int)
