from bisimap.corpus import expectations, load_corpus


def test_every_expectation_passes(corpus):
    failures = []
    for exp in expectations(corpus):
        ok, detail = exp.run()
        if not ok:
            failures.append((exp.name, detail))
    assert not failures, failures


def test_corpus_shapes(corpus):
    assert len(corpus.chain.states) == 3
    assert len(corpus.branch.source.states) == 3
    assert len(corpus.branch.target.states) == 3
    assert corpus.branch.target.has_tau
    assert not corpus.branch.source.has_tau
    assert len(corpus.fair_rem.source.lts.states) == 2
    assert len(corpus.fair_rem.target.lts.states) == 1
    assert len(corpus.union_sys.system.lts.states) == 4
    assert len(corpus.comp.system.lts.states) == 10
    assert len(corpus.comp.system.lts.transitions) == 13


def test_corpus_loads_fresh_each_call():
    a, b = load_corpus(), load_corpus()
    assert a.chain == b.chain


def test_all_corpus_files_roundtrip_bytewise(corpus):
    from importlib import resources

    from bisimap.lts import serialize_aut

    files = {
        "chain.aut": corpus.chain,
        "sys_branch.aut": corpus.branch.combined,
        "sys_fair_rem.aut": corpus.fair_rem.combined,
        "sys_union.aut": corpus.union_sys.system.lts,
        "sys_comp.aut": corpus.comp.system.lts,
    }
    for name, lts in files.items():
        text = resources.files("bisimap.corpus_data").joinpath(name).read_text()
        assert serialize_aut(lts) == text, name
