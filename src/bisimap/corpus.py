"""The bundled systems and their expected verdicts.

Five systems ship with the package: a three-state silent-then-visible chain,
the silent-step reflection counterexample (a combined file holding both sides
of the morphism), the fair-simulation-but-not-fair-bisimulation pair, the
union-closure counterexample with its Streett condition, and the composition
counterexample with its positional fairness.  ``load_corpus`` materializes
them; ``expectations`` packages every documented outcome as a runnable check.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .equiv import (
    PartitionRelation,
    branching_quotient,
    check_bisim_map,
    check_branching_bisim_fn,
    check_branching_sim,
    check_fair_bisim_fn,
    check_fair_reflection,
    check_fair_sim,
    check_forall_fair_bisim,
    check_hildebrandt_open,
    forall_fair_quotient,
)
from .errors import ParseError
from .lts import (
    FairLts,
    Lts,
    parse_aut,
    parse_fairness,
    parse_names,
    parse_relation_pairs,
    parse_state_map,
    serialize_aut,
)
from .words import TAU


def _read(name: str) -> str:
    return resources.files("bisimap.corpus_data").joinpath(name).read_text()


def induced_sublts(lts: Lts, keep) -> Lts:
    keep = set(keep)
    transitions = {
        (x, a, y) for (x, a, y) in lts.transitions if x in keep and y in keep
    }
    alphabet = {a for (_, a, _) in transitions if a is not TAU}
    return Lts.make(
        tuple(s for s in lts.states if s in keep), alphabet, transitions
    )


def split_by_map(combined: Lts, mapping: dict):
    """Split a combined system into the morphism's source (the map's domain)
    and target (the remaining states), with induced transitions."""
    domain = set(mapping)
    rest = [s for s in combined.states if s not in domain]
    bad = set(mapping.values()) - set(rest)
    if bad:
        raise ParseError(f"map images must lie outside its domain: {sorted(bad)}")
    return induced_sublts(combined, domain), induced_sublts(combined, rest)


@dataclass(frozen=True)
class MorphismEntry:
    combined: Lts
    source: object
    target: object
    mapping: dict


@dataclass(frozen=True)
class RelationEntry:
    system: FairLts
    relations: dict


@dataclass(frozen=True)
class Corpus:
    chain: Lts
    branch: MorphismEntry
    fair_rem: MorphismEntry
    union_sys: RelationEntry
    comp: RelationEntry


def load_corpus() -> Corpus:
    chain = parse_aut(_read("chain.aut"), parse_names(_read("chain.names")))

    branch_all = parse_aut(_read("sys_branch.aut"), parse_names(_read("sys_branch.names")))
    branch_map = parse_state_map(_read("sys_branch.map"), branch_all, branch_all, total=False)
    b_src, b_tgt = split_by_map(branch_all, branch_map)
    branch = MorphismEntry(branch_all, b_src, b_tgt, branch_map)

    rem_all = parse_aut(_read("sys_fair_rem.aut"), parse_names(_read("sys_fair_rem.names")))
    rem_map = parse_state_map(_read("sys_fair_rem.map"), rem_all, rem_all, total=False)
    r_src, r_tgt = split_by_map(rem_all, rem_map)
    fair_rem = MorphismEntry(
        rem_all,
        FairLts(r_src, parse_fairness(_read("sys_fair_rem_src.fair.json"), r_src)),
        FairLts(r_tgt, parse_fairness(_read("sys_fair_rem_tgt.fair.json"), r_tgt)),
        rem_map,
    )

    union_lts = parse_aut(_read("sys_union.aut"), parse_names(_read("sys_union.names")))
    union_fair = FairLts(union_lts, parse_fairness(_read("sys_union.fair.json"), union_lts))
    union_rel = {
        "R1": PartitionRelation(union_lts.states, parse_relation_pairs(_read("sys_union_r1.rel"), union_lts)),
        "R2": PartitionRelation(union_lts.states, parse_relation_pairs(_read("sys_union_r2.rel"), union_lts)),
    }
    union_sys = RelationEntry(union_fair, union_rel)

    comp_lts = parse_aut(_read("sys_comp.aut"), parse_names(_read("sys_comp.names")))
    comp_fair = FairLts(comp_lts, parse_fairness(_read("sys_comp.fair.json"), comp_lts))
    comp_rel = {
        "T": PartitionRelation(comp_lts.states, parse_relation_pairs(_read("sys_comp_t.rel"), comp_lts)),
        "TPRIME": PartitionRelation(comp_lts.states, parse_relation_pairs(_read("sys_comp_tprime.rel"), comp_lts)),
    }
    comp = RelationEntry(comp_fair, comp_rel)

    return Corpus(chain, branch, fair_rem, union_sys, comp)


# ---------------------------------------------------------------------------
# Expectations (run by the ``corpus`` command and the regression tests)


@dataclass(frozen=True)
class Expectation:
    name: str
    detail: str
    run: object  # () -> (bool, str)


def _verdict_is(verdict, holds, describe):
    ok = verdict.holds == holds
    return ok, f"{describe}: got holds={verdict.holds}" + ("" if ok else f", wanted {holds}")


def expectations(corpus: Corpus = None) -> list:
    if corpus is None:
        corpus = load_corpus()
    c = corpus
    out = []

    def add(name, detail, fn):
        out.append(Expectation(name, detail, fn))

    add("chain-roundtrip", "parse then serialize is the identity on the chain file",
        lambda: (serialize_aut(c.chain) == _read("chain.aut"), "byte comparison"))

    add("branch-parse", "combined reflection example: 6 states, 3 transitions, silent step present",
        lambda: (
            (len(c.branch.combined.states), len(c.branch.combined.transitions),
             c.branch.combined.has_tau) == (6, 3, True),
            f"{len(c.branch.combined.states)} states, {len(c.branch.combined.transitions)} transitions",
        ))

    add("branch-simulation", "the mapping is a branching simulation",
        lambda: _verdict_is(check_branching_sim(c.branch.mapping, c.branch.source, c.branch.target),
                            True, "branching-sim"))

    def branch_fn():
        v = check_branching_bisim_fn(c.branch.mapping, c.branch.source, c.branch.target)
        ok = (not v.holds) and v.witness[0] == "no-weak-reflection" and v.witness[1][1] is TAU
        return ok, f"witness {v.witness}"

    add("branch-not-bisim-fn", "it fails to reflect the silent target step", branch_fn)

    def branch_failed_mode():
        report = check_bisim_map(c.branch.mapping, c.branch.source, c.branch.target, "branching_failed")
        ok = report.presheaf_verdict.holds and not report.concrete_verdict.holds and not report.agreement
        return ok, ("presheaf accepts over visible words while the concrete check refuses"
                    if ok else f"presheaf={report.presheaf_verdict.holds} concrete={report.concrete_verdict.holds}")

    add("branch-visible-words-mismatch",
        "over visible words alone the square-filler check accepts the non-bisimulation", branch_failed_mode)

    def branch_stretch_mode():
        report = check_bisim_map(c.branch.mapping, c.branch.source, c.branch.target, "branching")
        square = report.presheaf_verdict.witness
        ok = (not report.presheaf_verdict.holds and not report.concrete_verdict.holds
              and report.agreement and square is not None
              and "tau_bar" in str(square.about[0]))
        return ok, f"witness square at stage {square.about[0] if square else None}"

    add("branch-stretch-detects",
        "with the stretchable observation the filler check refuses, witnessed at its stage",
        branch_stretch_mode)

    add("fair-rem-simulation", "collapsing both states is a fair simulation",
        lambda: _verdict_is(check_fair_sim(c.fair_rem.mapping, c.fair_rem.source, c.fair_rem.target),
                            True, "fair-sim"))

    add("fair-rem-open", "it lifts fair runs anchored at image states",
        lambda: _verdict_is(check_hildebrandt_open(c.fair_rem.mapping, c.fair_rem.source, c.fair_rem.target),
                            True, "hildebrandt-open"))

    def rem_reflection():
        v = check_fair_bisim_fn(c.fair_rem.mapping, c.fair_rem.source, c.fair_rem.target)
        if v.holds:
            return False, "unexpectedly holds"
        lasso = v.witness[1][0]
        ok = (v.witness[0] == "chain-with-fair-image-but-no-fair-limit"
              and set(lasso.cycle_states) == {"x"})
        return ok, f"witness {v.witness[0]} with cycle on {sorted(lasso.cycle_states)}"

    add("fair-rem-not-bisim-fn",
        "the self-loop chain has a fair image limit but no fair limit", rem_reflection)

    def rem_map_mode():
        report = check_bisim_map(c.fair_rem.mapping, c.fair_rem.source, c.fair_rem.target, "fair")
        ok = (not report.presheaf_verdict.holds and not report.concrete_verdict.holds
              and report.agreement)
        return ok, f"presheaf={report.presheaf_verdict.holds} concrete={report.concrete_verdict.holds}"

    add("fair-rem-map-mode", "both the filler check and the concrete check refuse", rem_map_mode)

    r1 = c.union_sys.relations["R1"].reflexive_closure()
    r2 = c.union_sys.relations["R2"].reflexive_closure()

    add("union-r1", "first exchange relation respects fairness",
        lambda: _verdict_is(check_forall_fair_bisim(r1, c.union_sys.system), True, "forall-fair"))
    add("union-r2", "second exchange relation respects fairness",
        lambda: _verdict_is(check_forall_fair_bisim(r2, c.union_sys.system), True, "forall-fair"))

    def union_closure():
        merged = PartitionRelation(
            r1.universe, r1.pairs | r2.pairs
        ).equivalence_closure()
        v = check_forall_fair_bisim(merged, c.union_sys.system)
        if v.holds:
            return False, "unexpectedly holds"
        left, right = v.witness[1]
        ok = (v.witness[0] == "fairness-not-transferred"
              and c.union_sys.system.fairness.is_fair(left)
              and not c.union_sys.system.fairness.is_fair(right))
        return ok, f"left cycle {sorted(left.cycle_states)}, right cycle {sorted(right.cycle_states)}"

    add("union-closure-fails",
        "the closed union admits a fair run pointwise-related to an unfair one", union_closure)

    def union_quotient():
        quotient, f = forall_fair_quotient(r2, c.union_sys.system)
        kernel = PartitionRelation.kernel_of(f, c.union_sys.system.lts.states)
        v = check_fair_bisim_fn(f, c.union_sys.system, quotient)
        ok = (len(quotient.lts.states) == 2 and kernel.pairs == r2.pairs and v.holds)
        return ok, f"{len(quotient.lts.states)} blocks, quotient map holds={v.holds}"

    add("union-quotient", "quotienting by the second relation yields a fair bisimulation function",
        union_quotient)

    t = c.comp.relations["T"].reflexive_closure()
    tp = c.comp.relations["TPRIME"].reflexive_closure()

    add("comp-t", "first composition relation respects fairness",
        lambda: _verdict_is(check_forall_fair_bisim(t, c.comp.system), True, "forall-fair"))
    add("comp-tprime", "second composition relation respects fairness",
        lambda: _verdict_is(check_forall_fair_bisim(tp, c.comp.system), True, "forall-fair"))

    def comp_composed():
        composed = t.after(tp)
        if composed.kind == "equivalence":
            return False, "composition is unexpectedly an equivalence"
        v = check_forall_fair_bisim(composed, c.comp.system)
        ok = (not v.holds) and v.witness[0] == "not-equivalence"
        return ok, f"kind={composed.kind}, witness={v.witness[0]}"

    add("comp-composed-not-equivalence",
        "composing the two relations breaks transitivity, failing the precondition", comp_composed)

    def chain_quotient():
        quotient, f = branching_quotient(c.chain)
        v = check_branching_bisim_fn(f, c.chain, quotient)
        ok = len(quotient.states) == 2 and v.holds
        return ok, f"{len(quotient.states)} blocks, map holds={v.holds}"

    add("chain-branching-quotient", "the silent-then-visible chain collapses to two blocks",
        chain_quotient)

    def cross_mode():
        union, comp = c.union_sys.system, c.comp.system
        for (name, rel, system) in (("R1", r1, union), ("R2", r2, union),
                                    ("T", t, comp), ("TPRIME", tp, comp)):
            a = check_forall_fair_bisim(rel, system, mode="exact_streett")
            b = check_forall_fair_bisim(rel, system, mode="bounded")
            if a.holds != b.holds:
                return False, f"disagreement on {name}"
        a = check_fair_reflection(c.fair_rem.mapping, c.fair_rem.source, c.fair_rem.target, "exact_streett")
        b = check_fair_reflection(c.fair_rem.mapping, c.fair_rem.source, c.fair_rem.target, "bounded")
        if a.holds != b.holds:
            return False, "disagreement on the reflection counterexample"
        return True, "exact and bounded agree everywhere"

    add("cross-mode-agreement", "exact and bounded fairness analyses agree on the corpus",
        cross_mode)

    return out
