"""Byte-for-byte comparison of CLI output against committed golden files.

Each case runs ``python -m bisimap.cli`` in a fresh process and compares its
exit code and standard output with ``tests/golden/<name>.out``.  The bisim-map
witness text is the repr of the witness square, which lists a frozenset whose
order follows string hashing, so every case runs with ``PYTHONHASHSEED=0``.

Regenerate the files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bisimap

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(bisimap.__file__).resolve().parent / "corpus_data"


def _corpus(name):
    return str(CORPUS / name)


# name -> (argv after the program name, expected exit code)
CASES = {
    "dump_strong_sys_comp": (["dump", "--semantics", "strong", "--depth", "3",
                              _corpus("sys_comp.aut")], 0),
    "dump_strong_sys_fair_rem": (["dump", "--semantics", "strong", "--depth", "3",
                                  _corpus("sys_fair_rem.aut")], 0),
    "dump_fair_sys_comp": (["dump", "--semantics", "fair", "--depth", "3",
                            _corpus("sys_comp.aut")], 0),
    "dump_fair_sys_union": (["dump", "--semantics", "fair", "--depth", "2",
                             "--stem-bound", "2", "--cycle-bound", "2",
                             _corpus("sys_union.aut")], 0),
    "dump_branching_chain": (["dump", "--semantics", "branching", "--depth", "3",
                              _corpus("chain.aut")], 0),
    "dump_branching_sys_branch": (["dump", "--semantics", "branching", "--depth", "3",
                                   _corpus("sys_branch.aut")], 0),
    "dump_branching_sys_comp": (["dump", "--semantics", "branching", "--depth", "3",
                                 _corpus("sys_comp.aut")], 0),
    "corpus_machine": (["corpus", "--format", "machine"], 0),
    # x3 maps onto p but has no a-step: the first failing square is an
    # extension square, so the witness exercises both sub-presheaves
    "check_bisim_map_extension_machine": (
        ["check", "--kind", "bisim-map", "--format", "machine", "--depth", "2",
         "--map", str(GOLDEN / "ext.map"),
         str(GOLDEN / "ext_src.aut"), str(GOLDEN / "ext_tgt.aut")], 1),
}


def run_cli(argv):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(Path(bisimap.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "bisimap.cli", *argv],
        capture_output=True, env=env, timeout=300, check=False,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv, code = CASES[name]
    got_code, out = run_cli(argv)
    assert got_code == code
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, (argv, code) in sorted(CASES.items()):
        got_code, out = run_cli(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
