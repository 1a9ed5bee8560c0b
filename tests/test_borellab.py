import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from gl2borel import compactind as ci
from gl2borel import exactfield as xf
from gl2borel import principalseries as ps
from gl2borel.exactfield import Field
from gl2borel.fqweights import (
    TorusCharacter,
    Weight,
    intertwiner_dimension,
    is_irreducible,
)
from gl2borel.borellab import (
    CindModel,
    PSModel,
    compress,
    default_asymmetric_character,
    hom_case_char_rigidity,
    hom_case_princ_endo,
    hom_case_sp_to_ind,
    hom_case_supersingular,
    hom_transfer_suite,
    i1_fixed_check,
    k_span_module,
    lemma_next,
    lemma_s_check,
    m_lambda_matrices,
    p_generation_evidence,
    prop_give,
    proportionality,
    recursion,
)
from gl2borel.padicmat import diag, s_mat, t_mat, upper_u


def cind_T_model(p=3, r=1, m=0, spec="T"):
    w = Weight(p, r, m)
    return CindModel(w, ci.HeckeIdeal.parse(w.field, spec))


def test_model_descriptions():
    m = cind_T_model()
    assert "supersingular model" in m.describe()
    m0 = cind_T_model(r=0)
    assert "supersingular" not in m0.describe()
    assert PSModel(TorusCharacter.trivial(Field(3))).describe().startswith("Ind_P^G")


def test_compress_roundtrip():
    chi = TorusCharacter.trivial(Field(3))
    phi2 = ps.make_phi2(chi)
    fine = phi2.refine(3)
    assert compress(fine) == phi2
    assert compress(fine).level == phi2.level


@pytest.mark.parametrize("p", [2, 3, 5])
def test_compress_lowers_exactly_the_pullbacks(p):
    chi = TorusCharacter.trivial(Field(p))
    rng = random.Random(f"compress:{p}")
    for level in (1, 2):
        f = ps.random_ps_function(chi, level, rng)
        for to_level in (level, level + 1, 3):
            fine = f.refine(to_level)
            assert np.array_equal(compress(fine).table, compress(f).table)
        # one changed entry on the finest level is no pullback
        table = f.refine(3).table.copy()
        table[-1] = (table[-1] + 1) % p
        broken = ps.PSFunction(chi, 3, table)
        assert compress(broken) is broken


def test_recursion_quotient_n1_and_n2():
    model = cind_T_model()
    rep = recursion(model, model.generator(), bound=10)
    assert rep["terminated"] and rep["n"] == 1
    assert all(c["status"] == "pass" for c in rep["checks"])

    model2 = cind_T_model(spec="T^2")
    rep2 = recursion(model2, model2.generator(), bound=10)
    assert rep2["terminated"] and rep2["n"] == 2


def test_recursion_nonzero_eigen_quotient_does_not_terminate():
    """In c-Ind/(T - 1) the iterates stay equal to the class of phi, the
    quotient-side mirror of the principal-series non-termination."""
    model = cind_T_model(spec="T-1")
    rep = recursion(model, model.generator(), bound=3)
    assert rep["terminated"] is False
    phi = model.generator()
    assert all(model.equal(v, phi) for v in rep.get("sequence", [phi]))


def test_recursion_ps_does_not_terminate():
    psm = PSModel(TorusCharacter.trivial(Field(3)))
    rep = recursion(psm, psm.phi2(), bound=6)
    assert rep["terminated"] is False and rep["n"] is None
    # each iterate is lambda^i phi2 (lambda = 1 here): constant sequence
    assert all((v - psm.phi2()).is_zero() for v in rep["sequence"])


def test_recursion_ps_stops_at_level_cap():
    """From a vector at the level cap the first unipotent sum needs one level
    more, so the recursion stops on the budget with the iterates so far."""
    psm = PSModel(TorusCharacter.trivial(Field(2)))
    v0 = ps.random_ps_function(psm.chi, ps.N_MAX, random.Random(4))
    assert not v0.is_zero() and v0.level == 4
    rep = recursion(psm, v0, bound=6)
    assert rep["reason"] == "budget: level overflow: need level 5 > N_max=4"
    assert rep["terminated"] is False and rep["n"] is None
    assert rep["sequence"] == [v0] and rep["checks"] == []


def test_lemma_s_on_recursion_endpoints():
    model = cind_T_model()
    res = lemma_s_check(model, model.generator())
    assert res["status"] == "pass"

    # guard: hypothesis violation raises
    model_amb = CindModel(Weight(3, 1, 0))
    with pytest.raises(ValueError, match="hypothesis violated"):
        lemma_s_check(model_amb, model_amb.generator())


def test_lemma_s_trivial_weight_quotient():
    model = cind_T_model(r=0, m=0)
    rep = recursion(model, model.generator(), bound=5)
    assert rep["terminated"] and rep["n"] == 2
    vp = rep["sequence"][rep["n"] - 1]
    assert lemma_s_check(model, vp)["status"] == "pass"


def test_lemma_s_ps_model():
    psm = PSModel(TorusCharacter.trivial(Field(2)))
    inv = ps.i1_invariants(psm.chi, 1)
    # solve for a kernel vector of the unipotent-sum operator on invariants
    import numpy as np
    from gl2borel import exactfield as xf
    sums = [psm.hecke_sum(v) for v in inv]
    frame = psm.frame(inv + sums)
    A1 = frame.matrix(sums)
    kern = xf.kernel_codes(psm.field, A1.T)
    assert kern.shape[0] >= 1
    v = None
    for c, b in zip(kern[0], inv):
        if c:
            term = psm.scale(psm.field.from_code(int(c)), b)
            v = term if v is None else v + term
    assert v is not None and not v.is_zero()
    assert lemma_s_check(psm, v)["status"] == "pass"


def test_m_lambda_matrices_shape():
    mats = m_lambda_matrices(5)
    assert len(mats) == 4
    for mat in mats:
        assert mat.det().valuation == 0


def test_lemma_next_on_phi2():
    """The plain unipotent sum of phi2 is its eigenvalue multiple, and the
    Steinberg span certifies j = 0."""
    psm = PSModel(TorusCharacter.trivial(Field(3)))
    phi2 = psm.phi2()
    j, wj, branch = lemma_next(psm, phi2, (0, 0))
    assert j == 0 and branch == "w0!=0"
    c = proportionality(psm, phi2, wj)
    assert c is not None and not c.is_zero()
    # scalar sanity: scaling the input does not change j
    j2, _, _ = lemma_next(psm, psm.scale(psm.field.el(2), phi2), (0, 0))
    assert j2 == j


def test_lemma_next_quotient_branch():
    model = cind_T_model()
    phi = model.generator()
    j, wj, branch = lemma_next(model, phi, (1, 0))
    assert branch == "w0=0"  # T phi maps to zero in the quotient
    assert j >= 1 and not model.is_zero(wj)
    mod, _ = k_span_module(model, wj)
    assert is_irreducible(mod).status == "irreducible"


def test_lemma_next_guards():
    model = cind_T_model()
    with pytest.raises(ValueError):
        lemma_next(model, model.zero_vector(), (0, 0))
    psm = PSModel(TorusCharacter.trivial(Field(3)))
    f = psm.phi1() + psm.phi2()
    # phi1 + phi2 is I1-fixed but the Iwahori character check is what matters:
    # trivial character holds here, so this should not raise
    lemma_next(psm, f, (0, 0))


def test_k_span_of_phi_is_weight():
    model = cind_T_model(p=3, r=1, m=0)
    mod, span = k_span_module(model, model.generator())
    assert mod.dim == 2  # Sym^1
    assert is_irreducible(mod).status == "irreducible"


def test_k_span_of_phi2_is_steinberg_dim():
    p = 3
    psm = PSModel(TorusCharacter.trivial(Field(p)))
    mod, span = k_span_module(psm, psm.phi2())
    assert mod.dim == p
    assert is_irreducible(mod).status == "irreducible"


@pytest.mark.parametrize("model_kind", ["cind", "ps"])
def test_prop_give_certified(model_kind):
    p = 3
    if model_kind == "cind":
        model = cind_T_model(p)
    else:
        model = PSModel(TorusCharacter.trivial(Field(p)))
    rng = random.Random(31)
    for _ in range(2):
        w = model.random_vector(rng)
        rep = prop_give(model, w)
        assert rep["status"] == "pass", rep
        v = rep["vector"]
        assert not model.is_zero(v)
        assert i1_fixed_check(model, v)
        assert rep["certificate"]["valid"]
        assert rep["certificate"]["translates"]


# SHA-256 of the JSON certificate (sorted keys) of prop_give on a random
# vector drawn with random.Random(34), with its number of translates
CERTIFICATE_DIGESTS = {
    "cind": (168, "722e8e89ef51bf8a8e947ec11a3f2388d750aefc1c88c38213d6de83a35254f7"),
    "ps": (324, "0075d11ec2d06aebe296d94431b1bc13e6ce25e5c276aa876addbe3c12f051a1"),
}


@pytest.mark.parametrize("model_kind", ["cind", "ps"])
def test_prop_give_certificate_bytes_pinned(model_kind):
    """The translates keep their matrices and their order, however the
    products u(lam) t d word t^k are grouped."""
    model = cind_T_model(3) if model_kind == "cind" else PSModel(TorusCharacter.trivial(Field(3)))
    cert = prop_give(model, model.random_vector(random.Random(34)))["certificate"]
    digest = hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
    assert (len(cert["translates"]), digest) == CERTIFICATE_DIGESTS[model_kind]


def test_prop_give_fixed_point_path():
    """A starting vector that is already I1-fixed with irreducible K-span is
    returned as-is: for [phi] the K-span is the weight itself."""
    model = cind_T_model()
    rep = prop_give(model, model.generator())
    assert rep["status"] == "pass"
    assert rep["k"] == 0 and rep["branch"] == "fixed-point"
    assert rep["k_span_dim"] == 2
    mod, _ = k_span_module(model, rep["vector"])
    w = model.weight
    assert intertwiner_dimension(w.field, w.k_module().gens, mod.gens,
                                 w.dim, mod.dim) == 1


def test_prop_give_from_phi1_in_principal_series():
    psm = PSModel(TorusCharacter.trivial(Field(3)))
    rep = prop_give(psm, ps.make_phi1(psm.chi))
    assert rep["status"] == "pass"
    assert not psm.is_zero(rep["vector"])
    assert i1_fixed_check(psm, rep["vector"])


def test_lemma_next_trivial_weight_reaches_steinberg():
    """In the trivial-weight quotient the plain sum is nonzero and its
    K-span is the Steinberg inflation."""
    w0 = Weight(3, 0, 0)
    model0 = CindModel(w0, ci.HeckeIdeal.parse(w0.field, "T"))
    j, wj, branch = lemma_next(model0, model0.generator(), (0, 0))
    assert branch == "w0!=0" and j == 0
    mod, _ = k_span_module(model0, wj)
    st = Weight(3, 2, 0)
    assert mod.dim == 3
    assert intertwiner_dimension(w0.field, st.k_module().gens, mod.gens,
                                 st.dim, mod.dim) == 1


def test_generation_small():
    w = Weight(2, 1, 0)
    model = CindModel(w, ci.HeckeIdeal.parse(w.field, "T"), r_max=12)
    rng = random.Random(5)
    rep = p_generation_evidence(model, trials=3, r_target=1, word_length=4, rng=rng)
    assert rep["status"] == "pass"
    assert rep["oracle_stable"]
    assert all(t["covers_ball"] for t in rep["per_trial"])
    assert all(t["start_support"] == ["V(d=0, a=0)"] for t in rep["per_trial"])
    # word length 0 reports insufficient depth instead of failing
    rep0 = p_generation_evidence(model, trials=1, r_target=1, word_length=0, rng=rng)
    assert rep0["status"] == "insufficient depth"


def test_generation_requires_quotient():
    model = CindModel(Weight(2, 1, 0))
    with pytest.raises(ValueError):
        p_generation_evidence(model, 1, 1, 1, random.Random(0))


def _generation_by_all_words(model, trials, word_length, rng, sample_radius):
    """The reference: every P-word up to the word length applied to each
    start vector, all of them ranked in one frame.  Per trial, (span_dim,
    depth, covers_ball) at each word length L <= word_length, and whether
    the start vector is a multiple of the canonical generator phi."""
    p = model.p
    gens = [upper_u(p, 1), upper_u(p, Fraction(1, p)), t_mat(p), t_mat(p).inv()]
    gens += [diag(p, u, 1) for u in range(2, p)]
    targets = list(ci.BallIndex(model.weight, 1).basis_elements())
    out = []
    for _ in range(trials):
        w = model.random_vector(rng, radius=sample_radius)
        words, frontier, sizes = [w], [w], [1]
        for _ in range(word_length):
            frontier = [model.act(g, f) for g in gens for f in frontier]
            words += frontier
            sizes.append(len(words))
        frame = model.frame(words + targets)
        rows, target_rows = frame.matrix(words), frame.matrix(targets)
        ranks = [xf.rank_codes(model.field, rows[:n]) for n in sizes]
        covers = [xf.rank_codes(model.field, np.concatenate([rows[:n], target_rows])) == r
                  for n, r in zip(sizes, ranks)]
        by_length = {}
        for L in range(1, word_length + 1):
            d = next((d for d in range(L + 1) if covers[d]), L)
            by_length[L] = (ranks[d], d, covers[d])
        out.append((by_length, proportionality(model, model.generator(), w) is not None))
    return out


@pytest.mark.parametrize("p,max_length,trials", [(2, 4, 5), (3, 3, 6)])
@pytest.mark.parametrize("sample_radius", [0, 1])
def test_generation_spin_up_matches_all_words(p, max_length, trials, sample_radius):
    # the spin-up acts only on each depth's new span directions; its span
    # dims, depths and verdicts must be those of all words up to each length
    w = Weight(p, 1, 0)
    model = CindModel(w, ci.HeckeIdeal.parse(w.field, "T"), r_max=12)
    seed = f"spin-up:{p}:{sample_radius}"
    ref = _generation_by_all_words(model, trials, max_length, random.Random(seed),
                                   sample_radius)
    if sample_radius == 0:
        # start vectors on the phi line need the deepest words
        assert {on_phi for _, on_phi in ref} == {True, False}
    for L in range(1, max_length + 1):
        rep = p_generation_evidence(model, trials, 1, L, random.Random(seed),
                                    sample_radius=sample_radius)
        got = [(t["span_dim"], t["depth"], t["covers_ball"]) for t in rep["per_trial"]]
        assert got == [by_length[L] for by_length, _ in ref], L


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("spec", ["T", "T^2"])
def test_quotient_frame_rank_is_exact(p, spec):
    # a quotient frame at radius R loses nothing on vectors of radius <= R:
    # widening it to R + 1 or R + 2 leaves every rank unchanged, also for
    # sets holding elements of the ideal
    w = Weight(p, 1, 0)
    ideal = ci.HeckeIdeal.parse(w.field, spec)
    model = CindModel(w, ideal)
    rng = random.Random(f"frame:{p}:{spec}")
    size = w.field.size
    for R in range(ideal.degree + 2):
        ball = ci.BallIndex(w, R)
        vectors = [ball.elem([rng.randrange(size) for _ in range(ball.dim)])
                   for _ in range(3)]
        if R >= ideal.degree:
            inner = ci.BallIndex(w, R - ideal.degree)
            images = [ideal.apply(inner.elem([rng.randrange(size) for _ in range(inner.dim)]))
                      for _ in range(2)]
            vectors += images + [images[0] + vectors[0], images[1] - vectors[0] - vectors[1]]
        for subset in (vectors, vectors[3:], vectors[:2] + vectors[-1:]):
            ranks = [xf.rank_codes(w.field, model._frame_at(R + k).matrix(subset))
                     for k in range(3)]
            assert ranks[0] == ranks[1] == ranks[2], (R, ranks)


def test_hom_cases_pass():
    assert hom_case_supersingular(3)["status"] == "pass"
    rep = hom_case_sp_to_ind(3)
    assert rep["status"] == "pass"
    assert rep["extension_scalar"] == "1"
    assert hom_case_char_rigidity(2)["status"] == "pass"
    assert hom_case_princ_endo(default_asymmetric_character(2))["status"] == "pass"


def test_princ_endo_at_p5():
    rep = hom_case_princ_endo(default_asymmetric_character(5))
    assert rep["status"] == "pass"
    assert [c["detail"] for c in rep["checks"]] == ["dim 12", "dim 1", ""]


def test_hom_suite_dispatch():
    assert hom_transfer_suite("char_rigidity", 3)["case"] == "char_rigidity"
    with pytest.raises(ValueError):
        hom_transfer_suite("bogus", 3)
    with pytest.raises(ValueError):
        hom_case_princ_endo(TorusCharacter.trivial(Field(3)))


def test_princinj_evidence_level2():
    """No level-2 chi-eigenvector of P lies inside the evaluation kernel when
    chi differs from its conjugate."""
    from gl2borel.borellab import p_eigenvector_space
    chi = default_asymmetric_character(3)
    eig = p_eigenvector_space(chi, lambda g: chi.value_upper(g))
    bad = [f for f in eig if ps.eval_at_identity(f).is_zero() and not f.is_zero()]
    assert not bad


def test_char_rigidity_constants_only():
    """The trivial-character P-eigenvectors at level 2 are the constants, and
    the t-descent conclusion (fixedness under the opposite unipotent) holds."""
    from gl2borel.borellab import p_eigenvector_space
    from gl2borel.padicmat import lower_u
    for p in (2, 3):
        chi = TorusCharacter.trivial(Field(p))
        sols = p_eigenvector_space(chi, lambda g: chi.field.one())
        assert len(sols) == 1
        f = sols[0]
        model = PSModel(chi)
        assert model.equal(model.act(lower_u(p, 1), f), f)
        assert model.equal(model.act(s_mat(p), f), f)


def test_proportionality():
    model = cind_T_model()
    phi = model.generator()
    assert proportionality(model, phi, model.scale(model.field.el(2), phi)) == model.field.el(2)
    other = model.act(t_mat(3), phi)
    assert proportionality(model, phi, other) is None
