"""Frozen stdout: the sha256 of CLI runs. The first three were taken before
the determinant kernel was tuned (lazy-scaled Bareiss, permutation-similar
matrix orders), the three family runs before K(n) and BQ(a) became the
k = 0 and n = 1 cases of Kl(n,k). A change that only makes the code faster
or smaller must leave every byte of the output as it is."""

from __future__ import annotations

import hashlib

import pytest

from iharazeta.cli import run
from iharazeta.families import family_spec, gen_family
from iharazeta.multigraph import format_edge_list

GOLDEN = {
    ("rank2", "--max-edges", "12", "--format", "json"):
        "a7167afb6d32eb44ed5a34ae295cee402e2fdf87c72c49c9d03f158ea3c828c4",
    ("verify", "--max-edges", "5", "--format", "json"):
        "ee6671379c974716a40aa1948739d0cfe1e80c3a5d7335c8e7b8af800f17456f",
    # K(5) has 20 directed edges, within the default enum cap; --enum-cap 20
    # stays because the hash was recorded with this argv
    ("zeta", "--graph", "K(5)", "--engine", "all", "--enum-cap", "20",
     "--format", "json"):
        "94b1c0243a8e816145e1af888fddf7e094e8081c7d31249252eeeedfd5a2af37",
    ("family", "--spec", "K(9)", "--format", "json"):
        "907a8d0aae8f7ac0e52c1384abe87779c8778ad20f4c523bfeed924e01198bd7",
    ("family", "--spec", "BQ(5)", "--format", "json"):
        "cd7a2c5bc70f0dc5dfc296d8eebdb544ab2f2d5a5541472f712d5d5427303d89",
    ("family", "--spec", "Kb(3,4)", "--format", "json"):
        "21d63def7042f5d245a35e392d7bfe55be6612f65f8722c27c9d89a41f26dcc5",
}


def _test_id(argv):
    return f"family-{argv[2]}" if argv[0] == "family" else argv[0]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=_test_id)
def test_stdout_is_frozen(argv, tmp_path, capsys):
    want = GOLDEN[argv]
    if "K(5)" in argv:
        path = tmp_path / "K5.txt"
        k5 = gen_family(family_spec("Complete", 5))
        path.write_text(format_edge_list(k5))
        argv = tuple(str(path) if a == "K(5)" else a for a in argv)
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
