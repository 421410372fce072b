"""Frozen stdout: the sha256 of three CLI runs, taken before the determinant
kernel was tuned (lazy-scaled Bareiss, permutation-similar matrix orders).
A change that only makes the code faster must leave every byte of the
output as it is."""

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
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
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
