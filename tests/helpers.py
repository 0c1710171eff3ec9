"""Shared fixtures: the worked example instances and small utilities."""

from __future__ import annotations

import importlib.util
import os
import random
from types import ModuleType

import symfair as sf

# The repository's root directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name: str) -> ModuleType:
    """``scripts/<name>.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# Items carry letter labels in the worked examples; indices are 0-based here.
LETTERS = "abcdefghij"


def lab(s: str, alphabet: str = LETTERS) -> frozenset[int]:
    """Item set from letter labels, e.g. lab('af') == {0, 5}."""
    return frozenset(alphabet.index(c) for c in s)


def partition_of(*bundles: str, alphabet: str = LETTERS) -> sf.Partition:
    return sf.Partition(tuple(lab(b, alphabet) for b in bundles))


# Three agents, four items; no symEF1 partition exists.
def three_agent_blocker() -> sf.Instance:
    return sf.Instance.from_rows(
        [
            [1, 1, 1, 0],
            [1, 1, 0, 1],
            [1, 0, 1, 1],
        ]
    )


# Three agents, six items; conflict graph has a 5-clique yet ({a,f},{c,e},{b,d})
# is symEF1, so n-colorability is not necessary.
def clique_but_solvable() -> sf.Instance:
    return sf.Instance.from_rows(
        [
            [1, 2, 3, 4, 5, 6],
            [1, 2, 4, 3, 5, 6],
            [1, 2, 4, 5, 3, 6],
        ]
    )


# Two agents, six items; the welfare-maximal split is not symEF1.
def welfare_vs_symmetry(eps_hundredths: int = 0) -> sf.Instance:
    e = eps_hundredths
    if e == 0:
        return sf.Instance.from_rows([[1, 2, 3, 4, 5, 6], [3, 1, 3, 1, 3, 1]])
    return sf.Instance.from_rows(
        [
            [100, 200, 300, 400, 500, 600],
            [300, 100 + e, 300, 100, 300, 100 + 2 * e],
        ]
    )


# Two agents, nine items a..h plus j; the greedy repairs cannot extend the
# partial split ({a,b,c,d}, {e,f,g,h}) with item j although a completion exists.
def single_swap_trap() -> sf.Instance:
    return sf.Instance.from_rows(
        [
            [40, 40, 40, 36, 33, 33, 33, 33, 32],
            [33, 33, 33, 33, 36, 40, 40, 40, 32],
        ]
    )


# Two agents, three items; ({a},{b,c}) is the only symEF1 partition.
def unique_partition_instance() -> sf.Instance:
    return sf.Instance.from_rows([[100, 50, 51], [100, 51, 50]])


# n agents, n+1 items, near-identity matrix: symEF1 exists but symEFX does not.
def no_symefx_instance(n: int = 3) -> sf.Instance:
    return sf.Instance.from_rows(
        [[100 if i == j else 1 for j in range(n + 1)] for i in range(n)]
    )


def rand_instance(rng: random.Random, n: int, m: int, M: int) -> sf.Instance:
    return sf.Instance.from_rows(
        [[rng.randint(0, M) for _ in range(m)] for _ in range(n)]
    )


def distinct_row(rng: random.Random, m: int, M: int) -> list[int]:
    return rng.sample(range(M), m)
