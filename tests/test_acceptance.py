"""Acceptance gate: one test per documented criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random

import pytest

from bisimap.equiv import (
    PartitionRelation,
    branching_bisimilarity,
    branching_quotient,
    check_bisim_map,
    check_branching_bisim_fn,
    check_fair_bisim_fn,
    check_fair_reflection,
    check_fair_sim,
    check_forall_fair_bisim,
    check_hildebrandt_open,
    check_strong_bisim_fn,
    forall_fair_quotient,
    quotient_lts,
)
from bisimap.lts import executions_up_to, is_simulation
from bisimap.presheaf import branching_target_poset, word_poset
from bisimap.semantics import base_presheaf, strong_sem_map
from bisimap.words import EPSILON, TAU, TAU_BAR

from conftest import block_map, fair_systems, plain_systems, random_lts, random_total_map
from oracles import (
    brute_force_largest, hide, hiding_map, is_minimal_execution, left_kan, map_pf,
    minimal_executions, mpast,
)

SEED = 20250809
DEPTH = 4


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {tag} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def strong_sample():
    """200 random systems, morphism candidates sampled 20 per pair; records
    every simulation with both verdicts."""
    rng = random.Random(SEED)
    systems = [random_lts(rng, 5, ("a", "b"), density=1.4) for _ in range(200)]
    records = []
    for i in range(100):
        X = systems[(2 * i) % 200]
        qmap = None
        if i % 4 == 0:
            Y = X
        elif i % 4 == 1:
            Y, qmap = quotient_lts(X, PartitionRelation.kernel_of(block_map(rng, X.states), X.states))
        else:
            Y = systems[(2 * i + 1) % 200]
        maps = [random_total_map(rng, X, Y) for _ in range(20)]
        if set(X.states) <= set(Y.states):
            maps[0] = {s: s for s in X.states}
        if qmap is not None:
            maps[1] = qmap
        for f in maps:
            try:
                ok, _ = is_simulation(f, X, Y)
            except Exception:
                continue
            if not ok:
                continue
            concrete = check_strong_bisim_fn(f, X, Y).holds
            presheaf = check_bisim_map(f, X, Y, "strong", depth=DEPTH).presheaf_verdict.holds
            records.append((X, Y, f, concrete, presheaf))
    return records


def test_criterion_01_strong_characterization_agreement(strong_sample):
    disagreements = [r for r in strong_sample if r[3] != r[4]]
    holds = sum(1 for r in strong_sample if r[3])
    fails = len(strong_sample) - holds
    ok = not disagreements and holds > 0 and fails > 0
    report(
        1,
        "concrete strong-bisimulation verdict equals the presheaf filler verdict",
        ok,
        f"{len(strong_sample)} simulations, {holds} hold / {fails} fail, "
        f"{len(disagreements)} disagreements",
    )


def test_criterion_02_accepted_maps_are_stage_surjective(strong_sample):
    violations = 0
    accepted = 0
    for (X, Y, f, _, presheaf) in strong_sample:
        if not presheaf:
            continue
        accepted += 1
        lifted = strong_sem_map(f, X, Y, DEPTH)
        for e in lifted.target.base.elements:
            image = {lifted.at(e, x) for x in lifted.source.stage(e)}
            if image != set(lifted.target.stage(e)):
                violations += 1
    report(
        2,
        "every accepted morphism is surjective on all stages",
        accepted > 0 and violations == 0,
        f"{accepted} accepted morphisms, {violations} violations",
    )


def test_criterion_03_kan_extension_matches_minimal_executions(corpus):
    mismatches = []
    for name, X in plain_systems(corpus).items():
        F = base_presheaf(X, DEPTH)
        tgt = word_poset(sorted(X.alphabet), DEPTH)
        K = left_kan(hiding_map(F.base, tgt), F)
        for rho in tgt.elements:
            if len(rho) > 3:
                continue
            kan_stage = {v for (_, v) in K.stage(rho)}
            if kan_stage != set(minimal_executions(X, rho, DEPTH)):
                mismatches.append((name, rho, "stage"))
            for rho2 in rho.prefixes():
                for el in K.stage(rho):
                    if K.restrict(el, rho, rho2)[1] != mpast(el[1], rho2):
                        mismatches.append((name, rho, rho2, "action"))
    report(
        3,
        "the silent-hiding Kan extension equals the minimal-execution stages "
        "and its action is past-restriction",
        not mismatches,
        f"corpus systems checked, {len(mismatches)} mismatches",
    )


def test_criterion_04_barred_kan_extension_stretch_stage(corpus):
    mismatches = []
    for name, X in plain_systems(corpus).items():
        F = base_presheaf(X, DEPTH, barred=True)
        tgt = branching_target_poset(sorted(X.alphabet), DEPTH)
        K = left_kan(hiding_map(F.base, tgt), F)
        silent = {
            p
            for w, ps in executions_up_to(X, DEPTH).items()
            if not w.visible()
            for p in ps
        }
        stage = {v for (_, v) in K.stage(TAU_BAR)}
        if stage != silent:
            mismatches.append((name, "stage"))
        for el in K.stage(TAU_BAR):
            img = K.restrict(el, TAU_BAR, EPSILON)[1]
            if img.states != (el[1].start,) or len(img.trace) != 0:
                mismatches.append((name, "action"))
    report(
        4,
        "the stretch stage of the barred Kan extension collects all silent "
        "executions and restricts to their start states",
        not mismatches,
        f"{len(mismatches)} mismatches",
    )


def test_criterion_05_visible_words_mismatch_and_stretch_detection(corpus):
    entry = corpus.branch
    failed = check_bisim_map(entry.mapping, entry.source, entry.target, "branching_failed")
    stretch = check_bisim_map(entry.mapping, entry.source, entry.target, "branching")
    witness = stretch.presheaf_verdict.witness
    ok = (
        failed.presheaf_verdict.holds
        and not failed.concrete_verdict.holds
        and not stretch.presheaf_verdict.holds
        and not stretch.concrete_verdict.holds
        and witness is not None
        and witness.about[0] is TAU_BAR
    )
    report(
        5,
        "over visible words the filler check accepts the failed attempt; with "
        "the stretch observation it refuses at that stage",
        ok,
        f"failed-mode presheaf={failed.presheaf_verdict.holds}, "
        f"stretch witness stage={witness.about[0] if witness else None}",
    )


def test_criterion_06_fair_remark_triple(corpus):
    entry = corpus.fair_rem
    sim = check_fair_sim(entry.mapping, entry.source, entry.target)
    open_v = check_hildebrandt_open(entry.mapping, entry.source, entry.target)
    bisim = check_fair_bisim_fn(entry.mapping, entry.source, entry.target)
    witness_ok = (
        not bisim.holds
        and bisim.witness[0] == "chain-with-fair-image-but-no-fair-limit"
        and set(bisim.witness[1][0].cycle_states) == {"x"}
    )
    report(
        6,
        "the collapse map is a fair simulation and open, yet fails limit "
        "reflection on the self-loop chain",
        sim.holds and open_v.holds and witness_ok,
        f"sim={sim.holds} open={open_v.holds} reflection witness cycle="
        f"{sorted(bisim.witness[1][0].cycle_states) if bisim.witness else None}",
    )


def test_criterion_07_quotient_round_trip(corpus):
    sys = corpus.union_sys.system
    problems = []
    quotient_maps = []
    for name in ("R1", "R2"):
        rel = corpus.union_sys.relations[name].reflexive_closure()
        quotient, f = forall_fair_quotient(rel, sys)
        quotient_maps.append((sys, quotient, f))
        kernel = PartitionRelation.kernel_of(f, sys.lts.states)
        if kernel.pairs != rel.pairs:
            problems.append((name, "kernel"))
        if not check_fair_bisim_fn(f, sys, quotient).holds:
            problems.append((name, "bisim-fn"))
    # converse: kernels of fair-bisimulation functions are valid relations
    for system in fair_systems(corpus).values():
        ident = {s: s for s in system.lts.states}
        quotient_maps.append((system, system, ident))
    for (src, _, f) in quotient_maps:
        kernel = PartitionRelation.kernel_of(f, src.lts.states)
        if not check_forall_fair_bisim(kernel, src).holds:
            problems.append(("converse", f))
    report(
        7,
        "quotients by fairness-respecting equivalences give fair bisimulation "
        "functions with the right kernels, and such kernels pass the relation check",
        not problems,
        f"{len(quotient_maps)} morphisms checked, problems={problems}",
    )


def test_criterion_08_closure_failures(corpus):
    sys = corpus.union_sys.system
    r1 = corpus.union_sys.relations["R1"].reflexive_closure()
    r2 = corpus.union_sys.relations["R2"].reflexive_closure()
    merged = PartitionRelation(r1.universe, r1.pairs | r2.pairs).equivalence_closure()
    union_v = check_forall_fair_bisim(merged, sys)
    union_ok = (
        not union_v.holds
        and union_v.witness[0] == "fairness-not-transferred"
        and sys.fairness.is_fair(union_v.witness[1][0])
        and not sys.fairness.is_fair(union_v.witness[1][1])
    )
    t = corpus.comp.relations["T"].reflexive_closure()
    tp = corpus.comp.relations["TPRIME"].reflexive_closure()
    t_ok = check_forall_fair_bisim(t, corpus.comp.system).holds
    tp_ok = check_forall_fair_bisim(tp, corpus.comp.system).holds
    composed = t.after(tp)
    comp_v = check_forall_fair_bisim(composed, corpus.comp.system)
    comp_ok = not comp_v.holds and comp_v.witness[0] == "not-equivalence"
    report(
        8,
        "the closed union fails fairness transfer with a fair/unfair lasso "
        "pair; the composed relations fail the equivalence precondition",
        union_ok and t_ok and tp_ok and comp_ok,
        f"union witness ok={union_ok}, composition kind={composed.kind}",
    )


def test_criterion_09_branching_round_trip_and_oracle(corpus):
    rng = random.Random(SEED + 9)
    systems = [corpus.chain, corpus.branch.combined, corpus.branch.source,
               corpus.branch.target]
    systems += [
        random_lts(rng, 6, ("a", "b"), tau_prob=0.35, density=1.6)
        for _ in range(100)
    ]
    problems = 0
    for X in systems:
        R = branching_bisimilarity(X)
        quotient, f = branching_quotient(X)
        kernel = PartitionRelation.kernel_of(f, X.states)
        if kernel.pairs != R.pairs:
            problems += 1
        if not check_branching_bisim_fn(f, X, quotient).holds:
            problems += 1
        if len(X.states) <= 7 and brute_force_largest(X, "branching").pairs != R.pairs:
            problems += 1
    report(
        9,
        "branching quotients round-trip and the fixpoint matches the "
        "backtracking oracle on corpus plus 100 random systems",
        problems == 0,
        f"{len(systems)} systems, {problems} problems",
    )


def test_criterion_10_execution_images_stay_minimal(corpus):
    sims = [
        (corpus.branch.mapping, corpus.branch.source, corpus.branch.target),
    ]
    for X in plain_systems(corpus).values():
        sims.append(({s: s for s in X.states}, X, X))
        quotient, f = branching_quotient(X)
        sims.append((f, X, quotient))
    violations = 0
    checked = 0
    for (f, X, Y) in sims:
        rhos = {
            hide(w)
            for w in word_poset(sorted(X.alphabet), DEPTH).elements
        }
        for rho in sorted(rhos, key=lambda w: (len(w), str(w))):
            for p in minimal_executions(X, rho, DEPTH):
                image = map_pf(f, p, Y)
                checked += 1
                if not is_minimal_execution(image) or hide(image.trace) != rho:
                    violations += 1
    report(
        10,
        "images of minimal executions under branching simulations are minimal "
        "with the same observable trace",
        checked > 0 and violations == 0,
        f"{checked} executions checked, {violations} violations",
    )


def test_criterion_11_exact_and_bounded_fairness_agree(corpus):
    disagreements = []
    union = corpus.union_sys.system
    comp = corpus.comp.system
    rels = [
        (union, corpus.union_sys.relations["R1"].reflexive_closure()),
        (union, corpus.union_sys.relations["R2"].reflexive_closure()),
        (comp, corpus.comp.relations["T"].reflexive_closure()),
        (comp, corpus.comp.relations["TPRIME"].reflexive_closure()),
    ]
    r1 = rels[0][1]
    r2 = rels[1][1]
    merged = PartitionRelation(r1.universe, r1.pairs | r2.pairs).equivalence_closure()
    rels.append((union, merged))
    for (system, rel) in rels:
        a = check_forall_fair_bisim(rel, system, mode="exact_streett",
                                    stem_bound=4, cycle_bound=4)
        b = check_forall_fair_bisim(rel, system, mode="bounded",
                                    stem_bound=4, cycle_bound=4)
        if a.holds != b.holds:
            disagreements.append(("forall-fair", rel.pairs))
    morphisms = [
        (corpus.fair_rem.mapping, corpus.fair_rem.source, corpus.fair_rem.target),
    ]
    for system in fair_systems(corpus).values():
        morphisms.append(({s: s for s in system.lts.states}, system, system))
    for (f, src, tgt) in morphisms:
        a = check_fair_reflection(f, src, tgt, "exact_streett", 4, 4)
        b = check_fair_reflection(f, src, tgt, "bounded", 4, 4)
        if a.holds != b.holds:
            disagreements.append(("reflection", f))
    report(
        11,
        "exact end-component and bounded lasso analyses agree on every corpus "
        "relation and morphism",
        not disagreements,
        f"{len(rels)} relations and {len(morphisms)} morphisms compared, "
        f"{len(disagreements)} disagreements",
    )
