import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bisimap
from bisimap.cli import run
from bisimap.equiv import check_branching_bisim_fn
from bisimap.lts import parse_aut, parse_names, parse_state_map, serialize_aut

from conftest import stutter_fan

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def branch_files(tmp_path, corpus):
    src = tmp_path / "branch_src.aut"
    tgt = tmp_path / "branch_tgt.aut"
    src.write_text(serialize_aut(corpus.branch.source))
    (tmp_path / "branch_src.names").write_text("\n".join(corpus.branch.source.states) + "\n")
    tgt.write_text(serialize_aut(corpus.branch.target))
    (tmp_path / "branch_tgt.names").write_text("\n".join(corpus.branch.target.states) + "\n")
    mp = tmp_path / "f.map"
    mp.write_text("".join(f"{a} -> {b}\n" for a, b in sorted(corpus.branch.mapping.items())))
    return str(src), str(tgt), str(mp)


@pytest.fixture()
def chain_file(tmp_path, corpus):
    path = tmp_path / "chain.aut"
    path.write_text(serialize_aut(corpus.chain))
    (tmp_path / "chain.names").write_text("\n".join(corpus.chain.states) + "\n")
    return str(path)


def test_check_branching_bisim_fn_exit_and_witness(branch_files, capsys):
    src, tgt, mp = branch_files
    code = run(["check", "--kind", "branching-bisim-fn", "--map", mp, src, tgt])
    out = capsys.readouterr().out
    assert code == 1
    assert "fails" in out
    assert "y1 -tau-> y3" in out


def test_check_branching_sim_holds(branch_files, capsys):
    src, tgt, mp = branch_files
    code = run(["check", "--kind", "branching-sim", "--map", mp, src, tgt])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_check_machine_format_is_stable(branch_files, capsys):
    src, tgt, mp = branch_files
    run(["check", "--kind", "branching-bisim-fn", "--map", mp, src, tgt,
         "--format", "machine"])
    first = capsys.readouterr().out
    run(["check", "--kind", "branching-bisim-fn", "--map", mp, src, tgt,
         "--format", "machine"])
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert list(record) == ["check", "holds", "witness", "certified_bounds"]


def test_quotient_branching_writes_two_state_system(chain_file, tmp_path, capsys):
    out = tmp_path / "result"
    code = run(["quotient", "--kind", "branching", "--output", str(out), chain_file])
    assert code == 0
    aut = (tmp_path / "result.quotient.aut").read_text()
    assert aut.splitlines()[0].endswith("2)")
    mapping = (tmp_path / "result.quotient.map").read_text()
    assert "x0 ->" in mapping and "x2 ->" in mapping


def test_fair_check_with_a_cycle_bound_past_the_recursion_limit(capsys):
    code = run(["check", "--kind", "fair-sim", "--map", str(GOLDEN / "loop.map"),
                "--cycle-bound", "2000", str(GOLDEN / "loop_aa.aut"), str(GOLDEN / "loop_tgt.aut")])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.startswith(f"fair-sim: {'holds' if code == 0 else 'fails'}\n")


@pytest.mark.parametrize("use_output", [False, True])
def test_quotient_keeps_a_dotted_prefix_whole(chain_file, tmp_path, use_output, capsys):
    written = []
    for version in ("v1", "v2"):
        model = tmp_path / f"sys.{version}.aut"
        model.write_text(Path(chain_file).read_text())
        argv = ["quotient", "--kind", "branching", str(model)]
        if use_output:
            argv += ["--output", str(tmp_path / f"out.{version}")]
        assert run(argv) == 0
        prefix = tmp_path / (f"out.{version}" if use_output else f"sys.{version}")
        written += [Path(f"{prefix}.quotient.{ext}") for ext in ("aut", "names", "map")]
    capsys.readouterr()
    assert all(p.exists() for p in written)
    assert not list(tmp_path.glob("sys.quotient.*")) and not list(tmp_path.glob("out.quotient.*"))


def test_dump_is_byte_stable(chain_file, capsys):
    run(["dump", "--semantics", "branching", "--depth", "2", chain_file])
    first = capsys.readouterr().out
    run(["dump", "--semantics", "branching", "--depth", "2", chain_file])
    second = capsys.readouterr().out
    assert first == second
    assert "stage tau_bar:" in first


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("not a header\n")
    code = run(["check", "--kind", "branching-sim", "--map", str(bad), str(bad), str(bad)])
    assert code == 2


def test_names_sidecar_repeating_a_name_is_a_parse_error(chain_file, capsys):
    names = Path(chain_file).with_suffix(".names")
    names.write_text("x0\nx1\nx0\n")
    code = run(["dump", "--semantics", "branching", chain_file])
    assert code == 2
    assert "state name 'x0' given twice" in capsys.readouterr().err


def test_precondition_exit_code(branch_files, tmp_path):
    src, tgt, _ = branch_files
    bad_map = tmp_path / "bad.map"
    bad_map.write_text("x1 -> y3\nx2 -> y2\nx3 -> y3\n")
    # not a simulation: the checker's contract is violated
    code = run(["check", "--kind", "strong-bisim-fn", "--map", str(bad_map), src, tgt])
    assert code == 3


@pytest.fixture()
def union_files(tmp_path, corpus):
    from importlib import resources

    data = resources.files("bisimap.corpus_data")
    aut = tmp_path / "union.aut"
    aut.write_text(data.joinpath("sys_union.aut").read_text())
    (tmp_path / "union.names").write_text(data.joinpath("sys_union.names").read_text())
    (tmp_path / "union.fair.json").write_text(data.joinpath("sys_union.fair.json").read_text())
    rel = tmp_path / "r2.rel"
    rel.write_text(data.joinpath("sys_union_r2.rel").read_text())
    return str(aut), str(rel)


def test_quotient_forall_fair_via_cli(union_files, tmp_path, capsys):
    aut, rel = union_files
    out = tmp_path / "unionq"
    code = run([
        "quotient", "--kind", "forall-fair", "--relation", rel,
        "--close", "reflexive", "--output", str(out), aut,
    ])
    assert code == 0
    text = (tmp_path / "unionq.quotient.aut").read_text()
    assert text.splitlines()[0].endswith("2)")
    mapping = (tmp_path / "unionq.quotient.map").read_text()
    assert "x1 -> x1+x2" in mapping


def test_check_forall_fair_via_cli(union_files, capsys):
    aut, rel = union_files
    code = run([
        "check", "--kind", "forall-fair-bisim", "--relation", rel,
        "--close", "reflexive", aut,
    ])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_dump_fair_semantics_via_cli(union_files, capsys):
    aut, _ = union_files
    code = run(["dump", "--semantics", "fair", "--depth", "2",
                "--stem-bound", "1", "--cycle-bound", "2", aut])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage (a)^w:" in out
    assert "res (a)^w -> a.a:" in out


def test_internal_error_exit_code(branch_files, monkeypatch):
    import bisimap.cli as cli_mod
    from bisimap.errors import InternalCheckError

    def boom(*args, **kwargs):
        raise InternalCheckError("synthetic")

    monkeypatch.setattr(cli_mod, "check_branching_sim", boom)
    src, tgt, mp = branch_files
    code = run(["check", "--kind", "branching-sim", "--map", mp, src, tgt])
    assert code == 4


def test_corpus_command_passes(capsys):
    code = run(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 15


def test_bisim_map_check_via_cli(branch_files, capsys):
    src, tgt, mp = branch_files
    code = run(["check", "--kind", "bisim-map", "--mode", "branching",
                "--map", mp, src, tgt])
    out = capsys.readouterr().out
    assert code == 1
    assert "bisim-map-branching: fails" in out
    assert "branching-bisim-fn: fails" in out
    assert "agreement: True" in out


@pytest.mark.parametrize("sidecar", [
    "[]",
    '{"kind": "always_after"}',
    '{"kind": "always_after", "offset": "1", "states": []}',
    '{"kind": "always_after", "offset": 1.5, "states": []}',
    '{"kind": "always_after", "offset": 1}',
    '{"kind": "always_after", "offset": 1, "states": [], "gate": "a"}',
    '{"kind": "streett", "pairs": [["0"]]}',
    '{"kind": "streett", "pairs": [[["x1"], [["y1"]]]]}',
    '{"kind": "streett", "pairs": [["x1", ["y1"]]]}',
    '{"kind": "streett", "names": "x1", "pairs": []}',
    '{"kind": "streett", "names": [["x1"]], "pairs": []}',
    pytest.param("[" * 100000, id="nested-too-deep"),
])
def test_malformed_fairness_sidecar_exits_2(union_files, tmp_path, sidecar, capsys):
    aut, _ = union_files
    (tmp_path / "union.fair.json").write_text(sidecar)
    mp = tmp_path / "id.map"
    mp.write_text("x1 -> x1\ny1 -> y1\nx2 -> x2\ny2 -> y2\n")
    code = run(["check", "--kind", "fair-sim", "--map", str(mp), aut, aut])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, culprit", [
    (["check", "--kind", "branching-sim", "--map", "{map}", "{tmp}/missing.aut", "{tgt}"],
     "{tmp}/missing.aut"),
    (["check", "--kind", "branching-sim", "--map", "{tmp}/missing.map", "{src}", "{tgt}"],
     "{tmp}/missing.map"),
    (["check", "--kind", "branching-sim", "--map", "{tmp}", "{src}", "{tgt}"], "{tmp}"),
    (["check", "--kind", "branching-sim", "--map", "{map}", "{latin1}", "{tgt}"], "{latin1}"),
    (["quotient", "--kind", "branching", "--output", "{tmp}/nowhere/out", "{chain}"],
     "{tmp}/nowhere/out"),
], ids=["missing-model", "missing-map", "directory-map", "non-utf8-model", "output-dir-missing"])
def test_unreadable_file_exits_2(argv, culprit, branch_files, chain_file, tmp_path, capsys):
    latin1 = tmp_path / "latin1.aut"
    latin1.write_bytes('des (0, 1, 2)\n(0, "\xe9", 1)\n'.encode("latin-1"))
    src, tgt, mp = branch_files
    paths = dict(src=src, tgt=tgt, map=mp, chain=chain_file, tmp=tmp_path, latin1=latin1)
    code = run([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert culprit.format(**paths) in err


# garbage model files near the Aldebaran grammar: a header that may miscount
# or be malformed, transition lines with bad indices or labels, a stray line
# of free text, names with duplicates and the quotient's block separator,
# and raw bytes; counts stay small, so no file announces a huge system
_label = st.sampled_from(['"a"', '"b"', '"tau"'] * 3 + ["tau", "a b", '"a,b"', '""', '"\u00e9"', '"'])
_index = st.sampled_from([0, 1, 2, 3] * 3 + [-1, 9])
_edge = st.builds("({},{},{})".format, _index, _label, _index)
_header = st.sampled_from(["des (0, {}, {})"] * 4 + ["des (0,{},{}) x", "des ({}, {})"])


@st.composite
def _model_files(draw):
    """(model bytes, names bytes or None); one file in five is raw bytes."""
    body = draw(st.lists(_edge, max_size=6))
    if draw(st.integers(0, 3)) == 3:
        body.append(draw(st.text(max_size=12)))
    count = len(body) + draw(st.sampled_from([0] * 8 + [1, -1]))
    header = draw(_header).format(count, draw(st.sampled_from([4] * 4 + [0, 1, 3])))
    names = draw(st.lists(
        st.sampled_from(["s0", "s1", "s2", "s3"] * 2 + ["s0+s1", "# c", "", "s 1", "\u00e9"]),
        min_size=3, max_size=5,
    ))
    files = ["\n".join([header] + body).encode(), "\n".join(names).encode()]
    files = [draw(st.binary(max_size=24)) if draw(st.integers(0, 4)) == 4 else f for f in files]
    return files[0], draw(st.sampled_from([None, files[1]]))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=_model_files())
def test_quotient_of_a_garbage_model_exits_0_2_or_3(files):
    aut, names = files
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.aut"
        model.write_bytes(aut)
        if names is not None:
            model.with_suffix(".names").write_bytes(names)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run(["quotient", "--kind", "branching", "--output", f"{tmp}/q", str(model)])
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# garbage --map, --relation and fairness sidecars over the states of
# sys_union (x1, y1, x2, y2): lines with stray, doubled or missing
# separators, unknown states and comments, raw text, and JSON documents near
# the sidecar grammar, cut short, replaced by text or nested too deep to parse
_union_state = st.sampled_from(["x1", "y1", "x2", "y2"] * 3 + ["z", "", "#", "x1 -> y1", "x1 ~ y1"])
_separator = st.sampled_from(["->", "~"] * 3 + ["-", "->->", "~~", " ", ""])
_line = st.one_of(
    st.builds("{} {} {}".format, _union_state, _separator, _union_state),
    st.sampled_from(["", "# comment", "   "]),
    st.text(max_size=10),
)
_json_scalar = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) \
    | st.sampled_from(["x1", "y1", "0", "3", "z", ""])
_json_states = st.lists(_union_state | _json_scalar, max_size=3)
_sidecar_fields = {
    "kind": st.sampled_from(["streett", "always_after"] * 3 + ["buchi"]) | _json_scalar,
    "names": st.lists(st.sampled_from(["x1", "y1", "x2", "y2", "z"]), max_size=4) | _json_scalar,
    "pairs": st.lists(st.lists(_json_states | _json_scalar, max_size=3), max_size=3) | _json_scalar,
    "offset": st.integers(-1, 3) | _json_scalar,
    "states": _json_states | _json_scalar,
    "gate": st.lists(st.sampled_from(["a", "b"]) | _json_scalar, max_size=2) | _json_scalar,
}


@st.composite
def _garbage_input(draw, which):
    if which != "fairness":
        return "\n".join(draw(st.lists(_line, max_size=6)))
    keys = draw(st.lists(st.sampled_from(sorted(_sidecar_fields)), unique=True))
    text = json.dumps({key: draw(_sidecar_fields[key]) for key in keys})
    damage = draw(st.integers(0, 9))
    if damage == 0:
        return text[:draw(st.integers(0, len(text)))]
    if damage == 1:
        return draw(st.text(max_size=12))
    if damage == 2:
        return "[" * draw(st.sampled_from([10, 999, 5000]))
    return text


@pytest.mark.parametrize("which", ["map", "relation", "fairness"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_check_with_a_garbage_input_exits_0_to_3(which, data):
    from importlib import resources

    garbage = data.draw(_garbage_input(which))
    corpus_data = resources.files("bisimap.corpus_data")
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "union.aut"
        model.write_text(corpus_data.joinpath("sys_union.aut").read_text())
        model.with_suffix(".names").write_text(corpus_data.joinpath("sys_union.names").read_text())
        sidecar = corpus_data.joinpath("sys_union.fair.json").read_text()
        mp = Path(tmp) / "f.map"
        mp.write_text("x1 -> x1\ny1 -> y1\nx2 -> x2\ny2 -> y2\n")
        if which == "map":
            mp.write_text(garbage)
            argv = ["check", "--kind", "branching-bisim-fn", "--map", str(mp), str(model), str(model)]
        elif which == "relation":
            rel = Path(tmp) / "r.rel"
            rel.write_text(garbage)
            argv = ["check", "--kind", "forall-fair-bisim", "--relation", str(rel),
                    "--close", data.draw(st.sampled_from(["none", "reflexive", "equivalence"])),
                    str(model)]
        else:
            sidecar = garbage
            argv = ["check", "--kind", "fair-sim", "--stem-bound", "2", "--cycle-bound", "2",
                    "--map", str(mp), str(model), str(model)]
        model.with_suffix(".fair.json").write_text(sidecar)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert (code in (2, 3)) == (err.getvalue() != ""), (code, err.getvalue())


def test_quotient_names_a_block_apart_from_a_state_of_that_name(tmp_path, capsys):
    model = tmp_path / "m.aut"
    model.write_text('des (0, 1, 3)\n(2,"a",2)\n')
    (tmp_path / "m.names").write_text("s0\ns1\ns0+s1\n")
    assert run(["quotient", "--kind", "branching", str(model)]) == 0
    quotient = tmp_path / "m.quotient.aut"
    source = parse_aut(model.read_text(), ("s0", "s1", "s0+s1"))
    target = parse_aut(quotient.read_text(), parse_names(quotient.with_suffix(".names").read_text()))
    f = parse_state_map(quotient.with_suffix(".map").read_text(), source, target)
    assert f["s0"] == f["s1"] != f["s0+s1"] == "s0+s1"
    assert check_branching_bisim_fn(f, source, target).holds


@pytest.mark.parametrize("argv", [
    ["corpus", "--depth", "3"],
    ["quotient", "--kind", "branching", "--format", "machine", "x.aut"],
    ["dump", "--semantics", "strong", "--mode-fair", "bounded", "x.aut"],
    ["check", "--kind", "bisim-map", "--mono-stage-bound", "2", "x.aut", "y.aut"],
])
def test_verb_rejects_an_option_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["bisim-map-branching", "fair-reflection-bounded"])
def test_refusals_print_the_same_bytes_under_any_hash_seed(case, branch_files):
    src, tgt, mp = branch_files
    argv, witness = {
        "bisim-map-branching": (
            ["--kind", "bisim-map", "--mode", "branching", "--depth", "2", "--map", mp, src, tgt],
            b"witness: fiber square [tau_bar, y1 -tau-> y3]"),
        # the first mismatching lasso in the order fair_lassos hands out
        "fair-reflection-bounded": (
            ["--kind", "fair-reflection", "--mode-fair", "bounded",
             "--map", str(GOLDEN / "rem.map"), str(GOLDEN / "rem_src.aut"),
             str(GOLDEN / "loop_tgt.aut")],
            b"witness: chain-with-fair-image-but-no-fair-limit: x (loop: -a-> x); y (loop: -a-> y)"),
    }[case]
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(bisimap.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "bisimap.cli", "check", *argv],
            capture_output=True, env=env, timeout=300, check=False,
        )
        assert proc.returncode == 1
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert witness in outs.pop()


@pytest.fixture()
def stutter_files(tmp_path):
    """``stutter_fan`` as files: the source, the target and the map."""
    f, *systems = stutter_fan()
    paths = []
    for name, lts in zip(("fan", "star"), systems):
        (tmp_path / f"{name}.aut").write_text(serialize_aut(lts))
        (tmp_path / f"{name}.names").write_text("\n".join(lts.states) + "\n")
        paths.append(str(tmp_path / f"{name}.aut"))
    mp = tmp_path / "fan.map"
    mp.write_text("".join(f"{x} -> {y}\n" for x, y in f.items()))
    return [*paths, str(mp)]


def _run_in_fresh_process(argvs, seed="0"):
    """Stdout, stderr and exit codes of ``run`` on each argv in turn, in one
    new interpreter under the given hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(bisimap.__file__).resolve().parents[1]))
    script = ("import sys; from bisimap.cli import run\n"
              f"for argv in {argvs!r}:\n"
              "    print('exit', run(argv), flush=True)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=300, check=True)
    return proc.stdout, proc.stderr


def test_stutter_witnesses_print_the_same_bytes_under_any_hash_seed(stutter_files):
    fan, star, mp = stutter_files
    argvs = [["check", "--kind", kind, "--map", mp, fan, star]
             for kind in ("branching-sim", "branching-bisim-fn")]
    argvs.append(["check", "--kind", "bisim-map", "--mode", "branching", "--map", mp, fan, star])
    # before the closures were walked in state order, seeds 0 and 1 named
    # different middle states
    runs = {_run_in_fresh_process(argvs, seed) for seed in ("0", "1")}
    assert len(runs) == 1
    out, err = runs.pop()
    assert out.decode() == (
        "branching-sim: fails\n  witness: stutter: silent run through p, q1, r\nexit 1\n"
        "branching-bisim-fn: fails\n  witness: stutter: silent run through p, q1, r\nexit 1\n"
        "exit 3\n"
    )
    assert err.decode() == "error: not a branching simulation: stutter: silent run through p, q1, r\n"


def test_runs_in_one_process_match_fresh_processes(stutter_files, chain_file, capsys):
    fan, star, mp = stutter_files
    argvs = [
        ["check", "--kind", "branching-sim", "--format", "machine", "--map", mp, fan, star],
        ["dump", "--semantics", "branching", "--depth", "2", chain_file],
        ["check", "--kind", "branching-bisim-fn", "--map", mp, fan, star],
    ]
    in_process = ""
    for argv in argvs:
        code = run(argv)
        in_process += capsys.readouterr().out + f"exit {code}\n"
    assert in_process == "".join(_run_in_fresh_process([argv])[0].decode() for argv in argvs)
