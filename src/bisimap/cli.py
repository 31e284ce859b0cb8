"""Command-line front end.

Four verbs: ``check`` runs any checker and exits 0 iff the verdict holds,
``quotient`` writes a quotient system and its map, ``dump`` prints a semantic
presheaf in the debug format, and ``corpus`` runs the bundled regression
suite.  Each verb takes only the options it reads.  Parse errors and files
that cannot be read or written exit 2, contract violations 3, internal
assertions 4.  A failing ``bisim-map`` check names its witness square by
family and generators: ``<family> square [<about items>]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .equiv import (
    PartitionRelation,
    Verdict,
    format_witness,
    branching_quotient,
    check_bisim_map,
    check_branching_bisim_fn,
    check_branching_sim,
    check_fair_bisim_fn,
    check_fair_reflection,
    check_fair_sim,
    check_forall_fair_bisim,
    check_hildebrandt_open,
    check_strong_bisim_fn,
    forall_fair_quotient,
)
from .errors import InternalCheckError, ParseError, PreconditionError, UnsupportedError
from .lts import (
    FairLts,
    is_simulation,
    parse_aut,
    parse_fairness,
    parse_names,
    parse_relation_pairs,
    parse_state_map,
    serialize_aut,
)
from .presheaf import dump_presheaf
from .semantics import base_presheaf, branching_sem, fair_sem, strong_sem

FAIR_KINDS = ("fair-sim", "fair-reflection", "fair-bisim-fn", "hildebrandt-open")
PLAIN_KINDS = ("simulation", "strong-bisim-fn", "branching-sim", "branching-bisim-fn")


def _read(path) -> str:
    """A file's text; a decoding error is a parse error naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_model(path: str, want_fair: bool):
    p = Path(path)
    names_path = p.with_suffix(".names")
    names = parse_names(_read(names_path)) if names_path.exists() else None
    lts = parse_aut(_read(p), names)
    if not want_fair:
        return lts
    fair_path = p.with_suffix(".fair.json")
    if not fair_path.exists():
        raise ParseError(f"no fairness sidecar {fair_path} for {path}")
    return FairLts(lts, parse_fairness(_read(fair_path), lts))


def load_relation(args, system: FairLts, what: str) -> PartitionRelation:
    """The --relation file over the system's states, closed as --close asks."""
    if not args.relation:
        raise PreconditionError(f"{what} needs --relation")
    pairs = parse_relation_pairs(_read(args.relation), system.lts)
    rel = PartitionRelation(system.lts.states, pairs)
    if args.close == "reflexive":
        return rel.reflexive_closure()
    if args.close == "equivalence":
        return rel.equivalence_closure()
    return rel


def _emit(verdict: Verdict, fmt: str):
    if fmt == "machine":
        print(verdict.to_json())
        return
    state = "holds" if verdict.holds else "fails"
    print(f"{verdict.check}: {state}")
    if verdict.witness is not None:
        print(f"  witness: {format_witness(verdict.witness)}")
    if verdict.certified_bounds:
        print(f"  certified bounds: {verdict.certified_bounds}")
    for note in verdict.notes:
        print(f"  note: {note}")


def cmd_check(args) -> int:
    fmt = args.format
    kind = args.kind
    if kind == "forall-fair-bisim":
        if len(args.models) != 1:
            raise PreconditionError("forall-fair-bisim takes one model")
        system = load_model(args.models[0], want_fair=True)
        rel = load_relation(args, system, "forall-fair-bisim")
        verdict = check_forall_fair_bisim(
            rel, system, mode=args.mode_fair,
            stem_bound=args.stem_bound, cycle_bound=args.cycle_bound,
        )
        _emit(verdict, fmt)
        return 0 if verdict.holds else 1

    if len(args.models) != 2:
        raise PreconditionError(f"{kind} takes a source and a target model")
    want_fair = kind in FAIR_KINDS or (kind == "bisim-map" and args.mode == "fair")
    source = load_model(args.models[0], want_fair)
    target = load_model(args.models[1], want_fair)
    if not args.map:
        raise PreconditionError(f"{kind} needs --map")
    src_lts = source.lts if isinstance(source, FairLts) else source
    tgt_lts = target.lts if isinstance(target, FairLts) else target
    f = parse_state_map(_read(args.map), src_lts, tgt_lts)

    if kind == "simulation":
        ok, witness = is_simulation(f, source, target)
        verdict = Verdict("simulation", ok, None if ok else witness)
    elif kind == "strong-bisim-fn":
        verdict = check_strong_bisim_fn(f, source, target)
    elif kind == "branching-sim":
        verdict = check_branching_sim(f, source, target)
    elif kind == "branching-bisim-fn":
        verdict = check_branching_bisim_fn(f, source, target)
    elif kind == "fair-sim":
        verdict = check_fair_sim(f, source, target, args.stem_bound, args.cycle_bound)
    elif kind == "fair-reflection":
        verdict = check_fair_reflection(
            f, source, target, args.mode_fair, args.stem_bound, args.cycle_bound
        )
    elif kind == "fair-bisim-fn":
        verdict = check_fair_bisim_fn(
            f, source, target, args.mode_fair, args.stem_bound, args.cycle_bound
        )
    elif kind == "hildebrandt-open":
        verdict = check_hildebrandt_open(f, source, target, args.stem_bound, args.cycle_bound)
    elif kind == "bisim-map":
        report = check_bisim_map(
            f, source, target, args.mode,
            depth=args.depth, stem_bound=args.stem_bound, cycle_bound=args.cycle_bound,
        )
        _emit(report.presheaf_verdict, fmt)
        _emit(report.concrete_verdict, fmt)
        if fmt == "text":
            print(f"  agreement: {report.agreement}")
        return 0 if report.presheaf_verdict.holds else 1
    else:
        raise PreconditionError(f"unknown check kind {kind!r}")
    _emit(verdict, fmt)
    return 0 if verdict.holds else 1


def cmd_quotient(args) -> int:
    out = Path(args.output) if args.output else Path(args.models[0]).with_suffix("")
    if args.kind == "branching":
        lts = load_model(args.models[0], want_fair=False)
        quotient, f = branching_quotient(lts)
    elif args.kind == "forall-fair":
        system = load_model(args.models[0], want_fair=True)
        rel = load_relation(args, system, "forall-fair quotient")
        fair_quotient, f = forall_fair_quotient(
            rel, system, mode=args.mode_fair,
            stem_bound=args.stem_bound, cycle_bound=args.cycle_bound,
        )
        quotient = fair_quotient.lts
    else:
        raise PreconditionError(f"unknown quotient kind {args.kind!r}")
    aut_path, names_path, map_path = (
        Path(f"{out}.quotient.{ext}") for ext in ("aut", "names", "map")
    )
    aut_path.write_text(serialize_aut(quotient))
    names_path.write_text("\n".join(quotient.states) + "\n")
    map_path.write_text("".join(f"{x} -> {y}\n" for (x, y) in sorted(f.items())))
    print(f"wrote {aut_path}, {names_path}, {map_path} ({len(quotient.states)} states)")
    return 0


def cmd_dump(args) -> int:
    which = args.semantics
    if which == "fair":
        system = load_model(args.models[0], want_fair=True)
        F = fair_sem(system, args.depth, args.stem_bound, args.cycle_bound)
    else:
        lts = load_model(args.models[0], want_fair=False)
        if which == "strong":
            F = strong_sem(lts, args.depth)
        elif which == "branching":
            F = branching_sem(lts, args.depth, with_stretch=True)
        elif which == "branching-failed":
            F = branching_sem(lts, args.depth, with_stretch=False)
        elif which == "base":
            F = base_presheaf(lts, args.depth, barred=False)
        elif which == "base-barred":
            F = base_presheaf(lts, args.depth, barred=True)
        else:
            raise PreconditionError(f"unknown semantics {which!r}")
    sys.stdout.write(dump_presheaf(F))
    return 0


def cmd_corpus(args) -> int:
    failed = 0
    for exp in corpus_mod.expectations():
        ok, detail = exp.run()
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        if args.format == "machine":
            print(json.dumps({"expectation": exp.name, "pass": ok, "detail": detail}))
        else:
            print(f"{tag} {exp.name}: {exp.detail} ({detail})")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later runs."""
    parser = argparse.ArgumentParser(
        prog="bisimap",
        description="Check, quotient, and inspect behavioural equivalences of transition systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    shared = {
        "models": dict(nargs="+", help="model files (.aut)"),
        "--depth": dict(type=int, default=4),
        "--stem-bound": dict(type=int, default=4),
        "--cycle-bound": dict(type=int, default=4),
        "--format": dict(choices=("text", "machine"), default="text"),
        "--mode-fair": dict(choices=("exact_streett", "bounded"), default="exact_streett",
                            help="fairness analysis mode"),
    }

    def common(p, *names):
        """Add the shared arguments that the verb reads."""
        for name in names:
            p.add_argument(name, **shared[name])

    p_check = sub.add_parser("check", help="run a checker on one or two models")
    p_check.add_argument("--kind", required=True,
                         choices=PLAIN_KINDS + FAIR_KINDS + ("forall-fair-bisim", "bisim-map"))
    p_check.add_argument("--map", help="state map file (source -> target lines)")
    p_check.add_argument("--relation", help="relation file (state ~ state lines)")
    p_check.add_argument("--close", choices=("none", "reflexive", "equivalence"), default="none")
    p_check.add_argument("--mode", choices=("strong", "fair", "branching", "branching_failed"),
                         default="strong", help="semantics for --kind bisim-map")
    common(p_check, *shared)
    p_check.set_defaults(fn=cmd_check)

    p_quot = sub.add_parser("quotient", help="write a quotient system and its map")
    p_quot.add_argument("--kind", choices=("branching", "forall-fair"), required=True)
    p_quot.add_argument("--relation")
    p_quot.add_argument("--close", choices=("none", "reflexive", "equivalence"), default="none")
    p_quot.add_argument("--output", help="output path prefix")
    common(p_quot, "models", "--stem-bound", "--cycle-bound", "--mode-fair")
    p_quot.set_defaults(fn=cmd_quotient)

    p_dump = sub.add_parser("dump", help="print a semantic presheaf")
    p_dump.add_argument("--semantics", required=True,
                        choices=("strong", "fair", "branching", "branching-failed",
                                 "base", "base-barred"))
    common(p_dump, "models", "--depth", "--stem-bound", "--cycle-bound")
    p_dump.set_defaults(fn=cmd_dump)

    p_corpus = sub.add_parser("corpus", help="run the bundled regression suite")
    common(p_corpus, "--format")
    p_corpus.set_defaults(fn=cmd_corpus)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
