"""Byte-for-byte comparison of CLI output against committed golden files.

Each case runs ``python -m bisimap.cli`` in a fresh process and compares its
exit code and standard output with ``tests/golden/<name>.out``.  A quotient
case writes into a temporary directory and compares the three written files
with ``tests/golden/<name>.quotient.{aut,names,map}`` instead (its standard
output names the temporary directory).

Regenerate the files of the named cases (only when an output change is
intended) with ``PYTHONPATH=src python tests/test_golden.py NAME...``.
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


def _golden(name):
    return str(GOLDEN / name)


def _check(kind, *models, map_file=None, machine=False, extra=()):
    argv = ["check", "--kind", kind, *extra]
    if map_file is not None:
        argv += ["--map", _golden(map_file)]
    if machine:
        argv += ["--format", "machine"]
    return argv + list(models)


EXT = (_golden("ext_src.aut"), _golden("ext_tgt.aut"))
BRANCH = (_golden("branch_src.aut"), _golden("branch_tgt.aut"))
COLLAPSE = (_golden("collapse_src.aut"), _golden("collapse_tgt.aut"))
REM = (_golden("rem_src.aut"), _golden("loop_tgt.aut"))
LOOP_STREETT = (_golden("loop_streett.aut"), _golden("loop_tgt.aut"))
LOOP_ALWAYS_AFTER = (_golden("loop_aa.aut"), _golden("loop_tgt.aut"))
BOUNDED = ("--mode-fair", "bounded")
UNION_MERGED = ("--relation", _golden("union_r1_r2.rel"), "--close", "equivalence")
COMP_MERGED = ("--relation", _golden("comp_t_tprime.rel"), "--close", "equivalence")
SMALL_FAIR = ("--depth", "2", "--stem-bound", "2", "--cycle-bound", "2")


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
    "dump_branching_failed_sys_branch": (["dump", "--semantics", "branching-failed",
                                          "--depth", "3", _corpus("sys_branch.aut")], 0),
    "corpus_machine": (["corpus", "--format", "machine"], 0),
    # x3 maps onto p but has no a-step: the first failing square is an
    # extension square, so the witness exercises both sub-presheaves
    "check_bisim_map_extension_machine": (
        ["check", "--kind", "bisim-map", "--format", "machine", "--depth", "2",
         "--map", str(GOLDEN / "ext.map"),
         str(GOLDEN / "ext_src.aut"), str(GOLDEN / "ext_tgt.aut")], 1),
    "dump_base_chain": (["dump", "--semantics", "base", "--depth", "3",
                         _corpus("chain.aut")], 0),
    "dump_base_sys_branch": (["dump", "--semantics", "base", "--depth", "3",
                              _corpus("sys_branch.aut")], 0),
    "dump_base_barred_chain": (["dump", "--semantics", "base-barred", "--depth", "3",
                                _corpus("chain.aut")], 0),
    "dump_base_barred_sys_branch": (["dump", "--semantics", "base-barred", "--depth", "3",
                                     _corpus("sys_branch.aut")], 0),
    # x1 maps onto p, whose b-step no source step reflects
    "check_simulation_text": (_check("simulation", *EXT, map_file="ext.map"), 0),
    "check_strong_bisim_fn_text": (_check("strong-bisim-fn", *EXT, map_file="ext.map"), 1),
    "check_strong_bisim_fn_machine": (
        _check("strong-bisim-fn", *EXT, map_file="ext.map", machine=True), 1),
    "check_branching_sim_text": (_check("branching-sim", *BRANCH, map_file="branch.map"), 0),
    "check_branching_bisim_fn_text": (
        _check("branching-bisim-fn", *BRANCH, map_file="branch.map"), 1),
    # the fair-remainder pair: the x self-loop is unfair but has a fair image
    "check_fair_reflection_text": (_check("fair-reflection", *REM, map_file="rem.map"), 1),
    "check_fair_reflection_machine": (
        _check("fair-reflection", *REM, map_file="rem.map", machine=True), 1),
    "check_fair_reflection_bounded_text": (
        _check("fair-reflection", *REM, map_file="rem.map", extra=BOUNDED), 1),
    "check_fair_reflection_always_after_text": (
        _check("fair-reflection", *LOOP_ALWAYS_AFTER, map_file="loop.map"), 1),
    "check_fair_reflection_always_after_bounded_machine": (
        _check("fair-reflection", *LOOP_ALWAYS_AFTER, map_file="loop.map", machine=True,
               extra=BOUNDED), 1),
    "check_fair_bisim_fn_text": (_check("fair-bisim-fn", *REM, map_file="rem.map"), 1),
    "check_fair_sim_unfair_image_text": (
        _check("fair-sim", _golden("rem_src.aut"), _golden("loop_streett.aut"),
               map_file="rem_onto_loop.map"), 1),
    # a source without fair runs cannot lift the target's fair loop
    "check_hildebrandt_open_text": (
        _check("hildebrandt-open", *LOOP_STREETT, map_file="loop.map"), 1),
    "check_hildebrandt_open_machine": (
        _check("hildebrandt-open", *LOOP_STREETT, map_file="loop.map", machine=True), 1),
    "check_hildebrandt_open_always_after_text": (
        _check("hildebrandt-open", *LOOP_ALWAYS_AFTER, map_file="loop.map"), 1),
    "check_hildebrandt_open_holds_text": (
        _check("hildebrandt-open", *REM, map_file="rem.map"), 0),
    "check_forall_fair_bisim_text": (
        _check("forall-fair-bisim", _corpus("sys_union.aut"), extra=UNION_MERGED), 1),
    "check_forall_fair_bisim_machine": (
        _check("forall-fair-bisim", _corpus("sys_union.aut"), machine=True,
               extra=UNION_MERGED), 1),
    # small bounds: at the default 4/4 this case alone takes about 13 s
    "check_forall_fair_bisim_bounded_text": (
        _check("forall-fair-bisim", _corpus("sys_union.aut"),
               extra=UNION_MERGED + BOUNDED + ("--stem-bound", "2", "--cycle-bound", "3")), 1),
    "check_forall_fair_bisim_always_after_text": (
        _check("forall-fair-bisim", _corpus("sys_comp.aut"), extra=COMP_MERGED), 1),
    "check_forall_fair_bisim_always_after_bounded_machine": (
        _check("forall-fair-bisim", _corpus("sys_comp.aut"), machine=True,
               extra=COMP_MERGED + BOUNDED), 1),
    "check_bisim_map_fair_text": (
        _check("bisim-map", *REM, map_file="rem.map", extra=("--mode", "fair") + SMALL_FAIR), 1),
    # the stretchable observation tau_bar has no preimage: a fiber square
    "check_bisim_map_branching_text": (
        _check("bisim-map", _golden("branch_src.aut"), _golden("branch_tgt.aut"),
               map_file="branch.map", extra=("--mode", "branching", "--depth", "2")), 1),
    # x0 -tau-> x1 -a-> x0 onto the a-loop at y0 collapses the silent step:
    # the map is a branching bisimulation, but its filler at the a-step from
    # x0 would be x0 -tau-> x1 -a-> x0, longer than the depth allows, so the
    # extension square over the empty word refuses (ROADMAP item 3); at depth
    # 3 the square's w walks a chain of two levels down to eps
    "check_bisim_map_branching_extension_text": (
        _check("bisim-map", *COLLAPSE, map_file="collapse.map",
               extra=("--mode", "branching", "--depth", "1")), 1),
    "check_bisim_map_branching_extension_depth3_text": (
        _check("bisim-map", *COLLAPSE, map_file="collapse.map",
               extra=("--mode", "branching", "--depth", "3")), 1),
    "check_bisim_map_branching_failed_text": (
        _check("bisim-map", _golden("branch_src.aut"), _golden("branch_tgt.aut"),
               map_file="branch.map", extra=("--mode", "branching_failed", "--depth", "2")), 0),
}

# name -> argv after the program name, without --output
QUOTIENT_CASES = {
    "quotient_branching_chain": ["quotient", "--kind", "branching", _corpus("chain.aut")],
    "quotient_branching_sys_branch": ["quotient", "--kind", "branching",
                                      _corpus("sys_branch.aut")],
    "quotient_forall_fair_sys_union": ["quotient", "--kind", "forall-fair",
                                       "--relation", _corpus("sys_union_r2.rel"),
                                       "--close", "equivalence", _corpus("sys_union.aut")],
    "quotient_forall_fair_sys_comp": ["quotient", "--kind", "forall-fair",
                                      "--relation", _corpus("sys_comp_t.rel"),
                                      "--close", "equivalence", _corpus("sys_comp.aut")],
}
QUOTIENT_SUFFIXES = (".quotient.aut", ".quotient.names", ".quotient.map")


def run_cli(argv):
    env = dict(os.environ)
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


def run_quotient(name, outdir):
    """Run a quotient case into outdir; returns the exit code and the prefix
    of the written files."""
    prefix = Path(outdir) / name
    got_code, _ = run_cli([*QUOTIENT_CASES[name], "--output", str(prefix)])
    return got_code, prefix


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_files_match_golden(name, tmp_path):
    got_code, prefix = run_quotient(name, tmp_path)
    assert got_code == 0
    for suffix in QUOTIENT_SUFFIXES:
        written = prefix.with_suffix(suffix).read_bytes()
        assert written == (GOLDEN / f"{name}{suffix}").read_bytes(), suffix


if __name__ == "__main__":
    import tempfile

    names = set(sys.argv[1:])
    if not names:
        sys.exit(f"usage: {sys.argv[0]} NAME...")
    unknown = names - set(CASES) - set(QUOTIENT_CASES)
    if unknown:
        sys.exit(f"unknown cases: {', '.join(sorted(unknown))}")
    for name in sorted(names & set(CASES)):
        argv, code = CASES[name]
        got_code, out = run_cli(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
    with tempfile.TemporaryDirectory() as outdir:
        for name in sorted(names & set(QUOTIENT_CASES)):
            got_code, prefix = run_quotient(name, outdir)
            if got_code != 0:
                sys.exit(f"{name}: exit {got_code}, expected 0")
            for suffix in QUOTIENT_SUFFIXES:
                (GOLDEN / f"{name}{suffix}").write_bytes(prefix.with_suffix(suffix).read_bytes())
            print(f"wrote {name}.quotient.*")
