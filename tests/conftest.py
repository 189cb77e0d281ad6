"""Shared fixtures: the three-species autocatalytic network and its chains."""

import copy
from pathlib import Path

import pytest
from hypothesis import settings

from boundchain import (ClassPartition, build_bounding_chain,
                        network_from_dict)

# CI runs with --hypothesis-profile=ci so every run draws the same examples
settings.register_profile("ci", derandomize=True, deadline=None)

NETWORK_PATH = Path(__file__).resolve().parents[1] / "docs" / "examples" / "network.json"

# birth with feedback from X2 and X3, an autocatalytic conversion, a pairing
# reaction, and linear decay of every species
NETWORK_DOC = {
    "species": ["X1", "X2", "X3"],
    "parameters": {"b1": 1.0, "b2": 2.5, "alpha": 2.5, "beta": 2.0,
                   "d1": 2.5, "d2": 2.5, "d3": 3.0},
    "reactions": [
        {"change": [1, 0, 0],
         "propensity": [{"coeff": "b1", "factors": [{"species": "X2"}]},
                        {"coeff": "b1", "factors": [{"species": "X3"}]},
                        {"coeff": "b2"}]},
        {"change": [-2, 3, 0],
         "propensity": [{"coeff": "alpha",
                         "factors": [{"species": "X1", "exponent": 2,
                                      "kind": "falling-factorial"}]}]},
        {"change": [-1, -1, 1],
         "propensity": [{"coeff": "beta",
                         "factors": [{"species": "X1"}, {"species": "X2"}]}]},
        {"change": [-1, 0, 0],
         "propensity": [{"coeff": "d1", "factors": [{"species": "X1"}]}]},
        {"change": [0, -1, 0],
         "propensity": [{"coeff": "d2", "factors": [{"species": "X2"}]}]},
        {"change": [0, 0, -1],
         "propensity": [{"coeff": "d3", "factors": [{"species": "X3"}]}]},
    ],
}

# X3 decays at rate 1 whatever its count, so reaction 5 fires from X3 = 0
# and would leave the orthant
LEAKY_NETWORK_DOC = copy.deepcopy(NETWORK_DOC)
LEAKY_NETWORK_DOC["reactions"][5]["propensity"] = [{"coeff": 1.0}]

BIRTH_DEATH_DOC = {
    "species": ["X"],
    "reactions": [
        {"change": [1], "propensity": [{"coeff": 1.5}]},
        {"change": [-1],
         "propensity": [{"coeff": 2.0, "factors": [{"species": "X"}]}]},
    ],
}

# X dies at 1e308 X^2 Y: at Y = 0 and X >= 2 the factors overflow to inf,
# and inf times 0 is NaN
NAN_DOC = {
    "species": ["X", "Y"],
    "reactions": [
        {"change": [1, 0], "propensity": [{"coeff": 1.0}]},
        {"change": [-1, 0], "propensity": [{"coeff": 1e308, "factors": [
            {"species": "X", "exponent": 2}, {"species": "Y"}]}]},
        {"change": [0, 1], "propensity": [{"coeff": 1.0}]},
        {"change": [0, -1],
         "propensity": [{"coeff": 1.0, "factors": [{"species": "Y"}]}]},
    ],
}

# A is born at 1e306 A^3 + 1: from A = 6 the cube's term overflows to +inf
INF_DOC = {
    "species": ["A", "B"],
    "reactions": [
        {"change": [1, 0], "propensity": [
            {"coeff": 1e306, "factors": [{"species": "A", "exponent": 3}]},
            {"coeff": 1.0}]},
        {"change": [-1, 0],
         "propensity": [{"coeff": 1.0, "factors": [{"species": "A"}]}]},
        {"change": [0, 1], "propensity": [{"coeff": 1.0}]},
        {"change": [0, -1],
         "propensity": [{"coeff": 1.0, "factors": [{"species": "B"}]}]},
    ],
}


@pytest.fixture(scope="session")
def network():
    return network_from_dict(NETWORK_DOC)


@pytest.fixture(scope="session")
def birth_death():
    return network_from_dict(BIRTH_DEATH_DOC)


@pytest.fixture(scope="session")
def part211():
    return ClassPartition((2, 1, 1))


@pytest.fixture(scope="session")
def part225():
    return ClassPartition((2, 2, 5))


@pytest.fixture(scope="session")
def part111():
    return ClassPartition((1, 1, 1))


@pytest.fixture(scope="session")
def upper211(network, part211):
    return build_bounding_chain(network, part211, "upper", l_exact=70,
                                l_total=3000)


@pytest.fixture(scope="session")
def lower225(network, part225):
    return build_bounding_chain(network, part225, "lower", l_exact=70,
                                l_total=3000)


@pytest.fixture(scope="session")
def naive111(network, part111):
    return build_bounding_chain(network, part111, "upper", l_exact=40,
                                l_total=400, tail_degree=2)
