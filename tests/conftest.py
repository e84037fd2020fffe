import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import posetideals
from posetideals import Poset, from_up_rows, generate_corpus
from posetideals.poset import transitive_closure, validate_up_rows


def pytest_report_header(config):
    # pyproject's pythonpath wins over PYTHONPATH, so say which tree is tested
    return f"posetideals imported from {Path(posetideals.__file__).resolve().parent}"


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child Python process: the posetideals under test
    first on its path, so subprocess tests need no install or PYTHONPATH."""
    root = str(Path(posetideals.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""), **extra)


def chain(n: int) -> Poset:
    return from_up_rows([((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def antichain(n: int) -> Poset:
    return from_up_rows([1 << i for i in range(n)])


def diamond() -> Poset:
    # 0 < a, b < 1
    return from_up_rows((0b1111, 0b1010, 0b1100, 0b1000),
                        labels=("0", "a", "b", "1"))


def vee() -> Poset:
    # one bottom, two incomparable tops
    return from_up_rows((0b111, 0b010, 0b100), labels=("0", "a", "b"))


def wedge() -> Poset:
    # two incomparable bottoms under one top
    return from_up_rows((0b101, 0b110, 0b100), labels=("a", "b", "1"))


@pytest.fixture(scope="session")
def corpus4():
    return generate_corpus(4)


@pytest.fixture(scope="session")
def corpus5():
    return generate_corpus(5)


@pytest.fixture(scope="session")
def corpus6():
    return generate_corpus(6)


@st.composite
def posets(draw, max_n: int = 5) -> Poset:
    """Random poset: a relation on naturally ordered points, transitively
    closed and validated, so a wrong closure fails loudly.  Reaches every
    isomorphism class since every finite poset can be relabeled along a
    linear extension."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
    return validate_up_rows(transitive_closure(rows))


def relabel(P: Poset, perm) -> Poset:
    """Q with Q.leq(perm[i], perm[j]) == P.leq(i, j)."""
    rows = [0] * P.n
    for i in range(P.n):
        for j in range(P.n):
            if P.leq(i, j):
                rows[perm[i]] |= 1 << perm[j]
    return from_up_rows(rows)


def seeded_relabelings(corpus, copies: int, seed: int) -> list[Poset]:
    """Every class of the corpus under `copies` relabelings drawn from seed."""
    rng = random.Random(seed)
    out = []
    for _, P in corpus.items():
        for _ in range(copies):
            perm = list(range(P.n))
            rng.shuffle(perm)
            out.append(relabel(P, perm))
    return out


@st.composite
def relabelings(draw, max_n: int = 5):
    P = draw(posets(max_n))
    perm = tuple(draw(st.permutations(range(P.n))))
    return P, relabel(P, perm), perm
