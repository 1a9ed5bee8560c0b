"""Experiment drivers that execute the constructive arguments end-to-end on
the concrete models and re-verify every claimed postcondition from scratch.

CindModel (compact-induction quotients) and PSModel (finite-level principal
series) share one vector interface: p, field, describe(), act(g, v),
scale(c, v), zero_vector(), random_vector(rng, size), is_zero(v) and
equal(v1, v2) (exact, in the quotient for an ideal), hecke_sum(v) (the sum
of u(lam) t v over lam in F_p), frame(vectors) (a coordinate chart) and
level_hint(vectors).  The drivers build their sums with combine,
torus_average and twisted_sum.  Each driver returns a plain report dict
listing per-step outcomes; any exact comparison that fails flips the step to
"fail" rather than raising, so reports stay honest under truncation limits.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import compactind as ci
from . import exactfield as xf
from . import principalseries as ps
from .fqweights import (
    FiniteKModule,
    TorusCharacter,
    Weight,
    is_irreducible,
    primitive_root,
    standard_k_residue_gens,
)
from .padicmat import Mat2, diag, in_subgroup, lower_u, pi_mat, s_mat, t_mat, upper_u


# ---------------------------------------------------------------------------
# model handles
# ---------------------------------------------------------------------------

class CindModel:
    """c-Ind in a weight, optionally modulo a polynomial in the Hecke
    operator; vectors are CindElement representatives."""

    def __init__(self, weight: Weight, ideal: ci.HeckeIdeal | None = None,
                 r_max: int = ci.DEFAULT_R_MAX):
        self.weight = weight
        self.ideal = ideal
        self.r_max = r_max

    @property
    def p(self):
        return self.weight.p

    @property
    def field(self):
        return self.weight.field

    def describe(self) -> str:
        base = f"c-Ind({self.weight!r})"
        if self.ideal is None:
            return base
        label = ("supersingular model" if not self.weight.is_character()
                 and repr(self.ideal) == "T" else "quotient")
        return f"{base}/({self.ideal!r}) [{label}]"

    def act(self, g: Mat2, v):
        return ci.act(g, v)

    def scale(self, c, v):
        return v.scale(c)

    def zero_vector(self):
        return ci.CindElement(self.weight)

    def generator(self):
        return ci.phi_element(self.weight)

    def is_zero(self, v) -> bool:
        if v.is_zero():
            return True
        if self.ideal is None:
            return False
        return ci.quotient_membership(
            v, self.ideal, v.radius(), self.r_max).status == "zero"

    def equal(self, v1, v2) -> bool:
        return self.is_zero(v1 - v2)

    def random_vector(self, rng, radius: int = 1):
        ball = ci.BallIndex(self.weight, radius)
        for _ in range(64):
            codes = np.array([rng.randrange(self.field.size) for _ in range(ball.dim)],
                             dtype=np.int64)
            v = ball.elem(codes)
            if not self.is_zero(v):
                return v
        raise RuntimeError("could not sample a nonzero vector")

    def hecke_sum(self, v):
        out = self.zero_vector()
        for lam in range(self.p):
            out = out + self.act(upper_u(self.p, lam) * t_mat(self.p), v)
        return out

    def frame(self, vectors):
        return self._frame_at(self.level_hint(vectors) - 1)

    def _frame_at(self, radius: int):
        ball = ci.BallIndex(self.weight, radius)

        def rows(vectors):
            M = np.stack([ball.coords(v) for v in vectors])
            return M if self.ideal is None else ci.normal_form_rows(self.ideal, ball, M)
        return _Frame(ball.dim, rows)

    def level_hint(self, vectors) -> int:
        return max([v.radius() for v in vectors if not v.is_zero()] + [0]) + 1


class PSModel:
    """Principal series attached to a tame character; vectors are level
    tables, recompressed to their minimal level after every action."""

    def __init__(self, chi: TorusCharacter):
        self.chi = chi

    @property
    def p(self):
        return self.chi.p

    @property
    def field(self):
        return self.chi.field

    def describe(self) -> str:
        return f"Ind_P^G{self.chi!r}"

    def act(self, g: Mat2, v):
        return compress(ps.ps_act(g, v))

    def scale(self, c, v):
        return v.scale(c)

    def zero_vector(self):
        return ps.PSFunction.zero(self.chi, 1)

    def phi1(self):
        return ps.make_phi1(self.chi)

    def phi2(self):
        return ps.make_phi2(self.chi)

    def is_zero(self, v) -> bool:
        return v.is_zero()

    def equal(self, v1, v2) -> bool:
        return v1 == v2

    def random_vector(self, rng, level: int = 2):
        for _ in range(64):
            v = ps.random_ps_function(self.chi, level, rng)
            if not v.is_zero():
                return v
        raise RuntimeError("could not sample a nonzero vector")

    def hecke_sum(self, v):
        out = None
        for lam in range(self.p):
            term = ps.ps_act(upper_u(self.p, lam) * t_mat(self.p), v)
            out = term if out is None else out + term
        return compress(out)

    def frame(self, vectors):
        level = max([v.level for v in vectors] + [1])
        dim = self.p**level + self.p ** (level - 1)
        return _Frame(dim, lambda vectors: np.stack([v.refine(level).table for v in vectors]))

    def level_hint(self, vectors) -> int:
        return max([v.level for v in vectors] + [1])


def compress(f: ps.PSFunction) -> ps.PSFunction:
    """Lower the level of a table whenever it is a pullback from a coarser
    one; exact inverse of refine, used to keep orbits inside the level cap."""
    while f.level > 1:
        p = f.p
        idx = ps._refine_index(p, f.level - 1, f.level)
        coarse = np.empty(p ** (f.level - 1) + p ** (f.level - 2), dtype=np.int64)
        # one value from each fibre of idx: a pullback is constant on fibres
        coarse[idx] = f.table
        if not np.array_equal(coarse[idx], f.table):
            return f
        f = ps.PSFunction(f.chi, f.level - 1, coarse)
    return f


class _Frame:
    """Fixed coordinate chart for a batch of model vectors: `rows` maps a
    nonempty list of vectors to their stacked coordinates, exact in the
    model (normal forms, for a quotient)."""

    def __init__(self, dim, rows):
        self.dim = dim
        self.rows = rows

    def matrix(self, vectors) -> np.ndarray:
        if not vectors:
            return np.zeros((0, self.dim), dtype=np.int64)
        return self.rows(vectors)


# ---------------------------------------------------------------------------
# span utilities
# ---------------------------------------------------------------------------

def combine(model, terms):
    """The sum of c v over the (code, vector) pairs with c nonzero, in order;
    the zero vector when there is none."""
    out = None
    for c, v in terms:
        if c:
            term = model.scale(model.field.from_code(int(c)), v)
            out = term if out is None else out + term
    return model.zero_vector() if out is None else out


def torus_average(model, v, exps):
    """Sum over lam, mu in F_p^x of (lam^e1 mu^e2)^-1 diag(lam, mu) v: the
    component of v on which the Iwahori torus acts by the character with
    exponents exps = (e1, e2) ((p - 1)^2 = 1 mod p, so no normalizing
    factor).  At p = 2 the torus residue is trivial and the average is v."""
    p, field = model.p, model.field
    if p == 2:
        return v
    e1, e2 = exps
    return combine(model, (
        ((field.from_int(lam) ** e1 * field.from_int(mu) ** e2).inv().code,
         model.act(diag(p, lam, mu), v))
        for lam in range(1, p) for mu in range(1, p)))


def twisted_sum(model, v, j):
    """Sum over lam in F_p of lam^j u(lam) t v, with 0^0 = 1: the plain
    unipotent sum model.hecke_sum(v) at j = 0."""
    if j == 0:
        return model.hecke_sum(v)
    p, field = model.p, model.field
    return combine(model, (((field.from_int(lam) ** j).code,
                            model.act(upper_u(p, lam) * t_mat(p), v))
                           for lam in range(1, p)))


def span_closure(model, v, gens):
    """(basis, words): a basis of the smallest subspace containing v and
    closed under the given group elements (which must preserve v's
    radius/level), each basis vector with the group word carrying v onto it."""
    if model.is_zero(v):
        return [], []
    frame = model.frame([v])
    span = xf.IncrementalSpan(model.field, frame.dim)
    span.add(frame.matrix([v]))
    found = frontier = [(v, Mat2.identity(model.p))]
    for _ in range(40):  # safety bound on the rounds of growth
        new = [(model.act(g, u), g * word) for g in gens for u, word in frontier]
        frontier = [new[i] for i in span.add(frame.matrix([u for u, _ in new]))]
        if not frontier:
            return [u for u, _ in found], [word for _, word in found]
        found = found + frontier
    raise RuntimeError("span closure did not stabilize")


def solve_fixed_in_span(model, span_vectors, gens):
    """Vectors of the span fixed by every generator, as (model vector, code
    row of its coefficients on span_vectors) pairs."""
    if not span_vectors:
        return []
    A0, *images = np.split(model.frame(span_vectors).matrix(
        span_vectors + [model.act(g, v) for g in gens for v in span_vectors]), len(gens) + 1)
    kern = xf.kernel_codes(model.field, np.concatenate(
        [xf.sub(model.field, Ag, A0).T for Ag in images]))
    out = []
    for row in kern:
        v = combine(model, zip(row, span_vectors))
        if not model.is_zero(v):
            out.append((v, row))
    return out


def proportionality(model, v, w):
    """Scalar c with w = c v, if one exists (v nonzero in the model)."""
    av, aw = model.frame([v, w]).matrix([v, w])
    nz = np.nonzero(av)[0]
    if nz.size == 0:
        return None
    field = model.field
    c = field.mul_codes(int(aw[nz[0]]), field.inv_code(int(av[nz[0]])))
    if np.array_equal(aw, xf.mul(field, av, c)):
        return field.from_code(c)
    return None


# ---------------------------------------------------------------------------
# K-spans as finite modules
# ---------------------------------------------------------------------------

def k_span_module(model, v):
    """The K-span of a vector as a finite module over the mod-p generators.

    Requires (and verifies) that the principal congruence subgroup acts
    trivially on the span, which holds whenever v is pro-p-Iwahori fixed."""
    p = model.p
    named = {name: Mat2(p, a, b, c, d)
             for name, ((a, b), (c, d)) in standard_k_residue_gens(p).items()}
    span, _ = span_closure(model, v, list(named.values()))
    for k1g in ci.k1_check_gens(p):
        for b in span:
            if not model.equal(model.act(k1g, b), b):
                raise RuntimeError("K-span is not trivial under K_1")
    rows, *images = np.split(model.frame(span).matrix(
        span + [model.act(g, b) for g in named.values() for b in span]), len(named) + 1)
    try:
        mats = xf.basis_coordinates(model.field, rows, images)
    except ValueError:
        raise RuntimeError("K-span closure failure") from None
    mod = FiniteKModule(model.field, len(span), dict(zip(named, mats)))
    return mod, span


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def m_lambda_matrices(p: int):
    """The matrices [[-p/l, 1], [0, l/p]] over the nonzero integer lifts."""
    return [
        Mat2(p, Fraction(-p, lam), 1, 0, Fraction(lam, p)) for lam in range(1, p)
    ]


def i1_fixed_check(model, v) -> bool:
    gens = ci.i1_generators(model.p, model.level_hint([v]) + 1)
    return all(model.equal(model.act(g, v), v) for g in gens)


def prop_give(model, w):
    """Produce a nonzero I1-fixed vector with irreducible K-span inside the
    P-span of w, following the constructive steps; the report carries the
    P-translates whose span certifiably contains the output."""
    p = model.p
    max_k = 6  # the largest smoothing exponent tried
    report = {"model": model.describe(), "steps": [], "status": "pass"}

    def step(name, ok, detail=""):
        report["steps"].append({"name": name, "status": "pass" if ok else "fail",
                                "detail": detail})
        if not ok:
            report["status"] = "fail"
        return ok

    if model.is_zero(w):
        raise ValueError("starting vector is zero")

    # 0. the algorithm's fixed point: an input that is already I1-fixed with
    # irreducible K-span is its own certified output
    if i1_fixed_check(model, w):
        try:
            mod0, _ = k_span_module(model, w)
            verdict0 = is_irreducible(mod0)
        except RuntimeError:
            verdict0 = None
        if verdict0 is not None and verdict0.status == "irreducible":
            step("input already qualifies", True,
                 f"I1-fixed with irreducible K-span (dim {mod0.dim})")
            report.update({
                "k": 0, "character": None, "j": None, "branch": "fixed-point",
                "vector": w, "k_span_dim": mod0.dim,
                "certificate": {"valid": True,
                                "translates": [Mat2.identity(p).serialize()],
                                "stages": {"k": 0}},
            })
            return report

    # 1. smoothing exponent: least k with lower-u(p^(k+1)) fixing w
    k = None
    for kk in range(max_k + 1):
        if model.equal(model.act(lower_u(p, p ** (kk + 1)), w), w):
            k = kk
            break
    if k is None:
        raise RuntimeError(f"no smoothing exponent up to {max_k}")
    step("smoothing-exponent", True, f"k = {k}")

    w1 = model.act(t_mat(p) ** k, w)
    step("t-shift fixes lower-u(p)",
         model.equal(model.act(lower_u(p, p), w1), w1))

    # 2. I1-fixed vector inside the (I1 cap P)-span of w1
    level = model.level_hint([w1]) + 1
    span_gens = [g for g in ci.i1_generators(p, level) if in_subgroup(g, "P")]
    span, span_words = span_closure(model, w1, span_gens)
    fixed = solve_fixed_in_span(model, span, ci.i1_generators(p, level))
    if not step("I1-fixed vector in span", bool(fixed), f"span dim {len(span)}"):
        return report
    w2, w2_coeffs = fixed[0]

    # 3. torus averaging over tame Iwahori characters, lexicographic order
    n = max(p - 1, 1)
    w3 = None
    char = None
    for i1 in range(n):
        for i2 in range(n):
            cand = torus_average(model, w2, (i1, i2))
            if not model.is_zero(cand):
                w3 = cand
                char = (i1, i2)
                break
        if w3 is not None:
            break
    if w3 is None:
        raise RuntimeError("averaging failed")
    step("torus average nonzero", True, f"character exponents {char}")

    ok_char = _acts_by_character(model, w3, char)
    step("Iwahori acts by the chosen character", ok_char)
    if not ok_char:
        return report

    # 4. the twisted sum with irreducible K-span
    j, wj, branch = lemma_next(model, w3, char)
    step("lemma-next", True, f"j = {j}, branch {branch}")

    step("output nonzero", not model.is_zero(wj))
    step("output I1-fixed", i1_fixed_check(model, wj))
    mod, span_k = k_span_module(model, wj)
    verdict = is_irreducible(mod)
    if verdict.status == "inconclusive":
        report["status"] = "inconclusive"
        report["steps"].append({"name": "K-span irreducible", "status": "inconclusive",
                                "detail": verdict.detail})
        return report
    step("K-span irreducible", verdict.status == "irreducible",
         f"dim {mod.dim}: {verdict.detail}")

    # 5. certificate: the recorded upper-triangular words rebuild the output
    cert = _verify_translate_certificate(
        model, w, k, span_words, w2_coeffs, w2, char, w3, j, wj)
    step("P-translate certificate", cert["valid"],
         f"{len(cert['translates'])} recorded translates")

    report.update({"k": k, "character": char, "j": j, "branch": branch,
                   "vector": wj, "k_span_dim": mod.dim, "certificate": cert})
    return report


def _verify_translate_certificate(model, w, k, span_words, w2_coeffs, w2,
                                  char, w3, j, wj):
    """Certify that wj lies in the span of the recorded P-translates
    u(lam) t d word t^k of w: w2 is rebuilt from the recorded words and
    coefficients alone, and w3 and wj are re-evaluated with the same
    torus_average and twisted_sum as the pipeline; each stage must match."""
    p = model.p
    tk = t_mat(p) ** k
    w1 = model.act(tk, w)

    rebuilt_w2 = combine(model, ((c, model.act(word, w1))
                                 for c, word in zip(w2_coeffs, span_words) if c))
    ok = (model.equal(rebuilt_w2, w2)
          and model.equal(torus_average(model, w2, char), w3)
          and model.equal(twisted_sum(model, w3, j), wj))

    # u(lam) t d word t^k, as one product of a prefix u(lam) t d and a
    # suffix word t^k
    torus = ([diag(p, lam, mu) for lam in range(1, p) for mu in range(1, p)]
             if p > 2 else [Mat2.identity(p)])
    prefixes = [upper_u(p, lam) * t_mat(p) * d for lam in range(p) for d in torus]
    suffixes = [word * tk for word in span_words]
    translates = [pre * suf for pre in prefixes for suf in suffixes]
    return {
        "valid": bool(ok),
        "translates": [g.serialize() for g in translates],
        "stages": {"k": k, "span_coeffs": [int(c) for c in w2_coeffs],
                   "character": list(char), "j": j},
    }


def _acts_by_character(model, v, exps) -> bool:
    p = model.p
    if p == 2:
        return True
    g0 = primitive_root(p)
    f = model.field
    c1 = f.from_int(g0) ** exps[0]
    c2 = f.from_int(g0) ** exps[1]
    return (model.equal(model.act(diag(p, g0, 1), v), model.scale(c1, v))
            and model.equal(model.act(diag(p, 1, g0), v), model.scale(c2, v)))


def lemma_next(model, v, char_exps):
    """First j in 0..p-1 whose twisted sum is nonzero with irreducible
    K-span; mirrors the proof's case split on the plain sum."""
    p = model.p
    if model.is_zero(v):
        raise ValueError("vector is zero")
    if not _acts_by_character(model, v, char_exps):
        raise ValueError("Iwahori does not act by a character")
    w0 = model.hecke_sum(v)
    branch = "w0=0" if model.is_zero(w0) else "w0!=0"
    for j in range(p):
        wj = w0 if j == 0 else twisted_sum(model, v, j)
        if model.is_zero(wj):
            continue
        mod, _ = k_span_module(model, wj)
        verdict = is_irreducible(mod)
        if verdict.status == "irreducible":
            return j, wj, branch
    raise RuntimeError("lemma-next failure")


def recursion(model, v0, bound: int = 10):
    """Iterate v_{i+1} = sum_lambda u(lift) t v_i until zero (or the bound);
    every iterate is re-verified I1-fixed and the whole sequence is
    recomputed independently for the report.  When an iterate or its zero
    test outgrows the truncation budget, the report carries the reason and
    the iterates computed so far."""
    report = {"model": model.describe(), "bound": bound, "checks": []}
    if model.is_zero(v0):
        raise ValueError("v0 is zero")
    seq = [v0]
    n = None
    for i in range(bound):
        try:
            nxt = model.hecke_sum(seq[-1])
            seq.append(nxt)
            zero = model.is_zero(nxt)
        except (ci.TruncationError, ps.LevelOverflowError) as exc:
            report["sequence"] = seq
            report["terminated"] = False
            report["reason"] = f"budget: {exc}"
            report["n"] = None
            return report
        if zero:
            n = i + 1
            break
    report["sequence"] = seq
    report["n"] = n
    report["terminated"] = n is not None
    fixed_ok = all(i1_fixed_check(model, v) for v in seq[:-1] if not model.is_zero(v))
    report["checks"].append({"name": "iterates I1-fixed",
                             "status": "pass" if fixed_ok else "fail"})
    recheck = all(
        model.equal(model.hecke_sum(seq[i]), seq[i + 1]) for i in range(len(seq) - 1)
    )
    report["checks"].append({"name": "sequence recomputed independently",
                             "status": "pass" if recheck else "fail"})
    return report


def lemma_s_check(model, v):
    """Exact comparison of s v with the P-combination that the unipotent-sum
    hypothesis forces."""
    p = model.p
    if not i1_fixed_check(model, v):
        raise ValueError("hypothesis violated: vector is not I1-fixed")
    if not model.is_zero(model.hecke_sum(v)):
        raise ValueError("hypothesis violated: unipotent sum is nonzero")
    lhs = model.act(s_mat(p), v)
    minus_one = model.field.from_int(-1).code
    rhs = combine(model, ((minus_one, model.act(mat, v)) for mat in m_lambda_matrices(p)))
    ok = model.equal(lhs, rhs)
    return {"model": model.describe(), "status": "pass" if ok else "fail",
            "detail": "s v equals the negated sum of [[-p/l,1],[0,l/p]] translates"
                      if ok else "exact comparison failed"}


# ---------------------------------------------------------------------------
# truncated P-generation evidence
# ---------------------------------------------------------------------------

def p_generation_evidence(model: CindModel, trials: int, r_target: int,
                          word_length: int, rng, sample_radius: int = 0):
    """Whether length-bounded P-words applied to random starting vectors span
    the image of the target ball in the quotient; the target dimension is the
    rank of the ball's basis in the quotient frames of two radii, which agree.

    The span W_d of the words of length <= d is grown by spin-up (R. A.
    Parker, "The computer calculation of modular characters", 1984), level by
    level: W_{d+1} = W_d + sum_g g B_d, where B_d holds the vectors that were
    new at depth d.  This is the span of all words, because g W_{d-1} lies in
    W_d, so only the span's new directions are acted on, not |gens|^d words.
    A depth keeps the new vectors whose frame rows form the row rank profile
    modulo W_d (Dumas, Pernet and Sultan, "Simultaneous computation of the
    row and column rank profiles", ISSAC 2013), as IncrementalSpan.add does.
    Each depth's frame has the largest radius among the basis, the vectors
    just generated and the targets, which is often smaller than the largest
    radius over all words; ranks are still exact, since a frame's rows are
    the vectors' normal forms modulo P(T), zero exactly on the image at any
    radius R >= every vector's radius: P(T) h has radius radius(h) + deg P,
    so an ideal element inside the ball of radius R is the image of one
    inside the ball of radius R - deg P.

    A trial fails only when its span stops growing uncovered, since the span
    is then P-stable; one that reaches the word length still growing is
    inconclusive, a truncation outcome.

    Starting vectors are sampled at the base vertex by default (the class the
    canonical generator lives in); vectors seeded deeper on the contracting
    spine are documented to need longer words."""
    if model.ideal is None:
        raise ValueError("generation evidence runs on a quotient model")
    p = model.p
    gens = [upper_u(p, 1), upper_u(p, Fraction(1, p)), t_mat(p), t_mat(p).inv()]
    for u in range(2, p):
        gens.append(diag(p, u, 1))

    target_dim, target_dim_again = _quotient_ball_dim(model, r_target)
    report = {
        "model": model.describe(), "trials": trials, "r_target": r_target,
        "word_length": word_length, "sample_radius": sample_radius,
        "target_dim": target_dim,
        "oracle_stable": target_dim == target_dim_again, "per_trial": [],
    }

    ball = ci.BallIndex(model.weight, r_target)
    targets = list(ball.basis_elements())
    for _ in range(trials):
        w = model.random_vector(rng, radius=sample_radius)
        basis, new = [], [w]
        for depth in range(word_length + 1):
            frame = model.frame(basis + new + targets)
            rows = frame.matrix(basis + new)
            span = xf.IncrementalSpan(model.field, frame.dim)
            span.add(rows[:len(basis)])
            fresh = [new[i] for i in span.add(rows[len(basis):])]
            basis += fresh
            covered = word_length > 0 and not np.any(span.reduce(frame.matrix(targets)))
            if covered or depth == word_length:
                break
            new = [model.act(g, f) for g in gens for f in fresh]
        report["per_trial"].append({
            "span_dim": len(basis), "covers_ball": covered, "depth": depth,
            "status": "pass" if covered else "inconclusive" if fresh else "fail",
            "start_support": [repr(v) for v in sorted(w.support, key=lambda v: v.sort_key())],
        })
    found = {t["status"] for t in report["per_trial"]} | {
        "pass" if report["oracle_stable"] else "fail"}
    report["status"] = ("insufficient depth" if word_length == 0 else
                        next(s for s in ("fail", "inconclusive", "pass") if s in found))
    return report


def _quotient_ball_dim(model, r_target):
    out = []
    for window in (r_target + 1, r_target + 2):
        frame = model._frame_at(window)
        basis = list(ci.BallIndex(model.weight, r_target).basis_elements())
        out.append(xf.rank_codes(model.field, frame.matrix(basis)))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# hom-transfer suite
# ---------------------------------------------------------------------------

def g_sample_words(p: int):
    s, t, u1 = s_mat(p), t_mat(p), upper_u(p, 1)
    lp, pi = lower_u(p, p), pi_mat(p)
    return [s, t, u1, lp, pi, s * u1, t * s, u1 * t * s, pi * u1]


class _Checks(list):
    """The named pass/fail checks of one hom-transfer case, in report form."""

    def add(self, name, ok, detail=""):
        self.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})

    def status(self) -> str:
        return "pass" if all(c["status"] == "pass" for c in self) else "fail"


def hom_case_supersingular(p: int = 3):
    """Run the restriction-transfer pipeline for the identity P-map of the
    supersingular model c-Ind(Sym^1)/(T) and confirm G-equivariance on
    generators."""
    w = Weight(p, 1, 0)
    model = CindModel(w, ci.HeckeIdeal.parse(w.field, "T"))
    checks = _Checks()
    phi_map = lambda x: x  # the identity of the model, viewed as a P-map
    v = model.generator()
    checks.add("v is I1-fixed", i1_fixed_check(model, v))
    mod, _ = k_span_module(model, v)
    checks.add("K-span of v irreducible", is_irreducible(mod).status == "irreducible",
               f"dim {mod.dim}")
    rec = recursion(model, v, bound=6)
    checks.add("recursion terminates", rec["terminated"], f"n = {rec['n']}")
    vp = rec["sequence"][rec["n"] - 1]
    checks.add("hypothesis sum vanishes for v'", model.is_zero(model.hecke_sum(vp)))
    checks.add("hypothesis sum vanishes for phi(v')",
               model.is_zero(model.hecke_sum(phi_map(vp))))
    ls = lemma_s_check(model, vp)
    checks.add("lemma-s equality for v'", ls["status"] == "pass")
    svp = model.act(s_mat(p), vp)
    checks.add("phi(s v') = s phi(v')",
               model.equal(phi_map(svp), model.act(s_mat(p), phi_map(vp))))
    eq = all(
        model.equal(phi_map(model.act(g, x)), model.act(g, phi_map(x)))
        for g in g_sample_words(p)
        for x in (v, vp)
    )
    checks.add("G-equivariance on generator samples", eq)
    return {"case": "supersingular", "model": model.describe(),
            "checks": checks, "status": checks.status()}


def hom_case_sp_to_ind(p: int = 3):
    """The Steinberg-model inclusion as a P-map, extended to the scalar
    G-endomorphism of the full series; agreement checked on orbit samples."""
    field_chi = TorusCharacter.trivial(Weight(p, 0, 0).field)
    model = PSModel(field_chi)
    checks = _Checks()
    phi2 = model.phi2()
    checks.add("phi2 lies in the evaluation kernel", ps.eval_at_identity(phi2).is_zero())
    lam = ps.eigen_relation(model.chi)
    checks.add("eigen-relation scalar nonzero", not lam.is_zero(), f"lambda = {lam}")
    checks.add("relation: unipotent sum = lambda phi2",
               model.equal(model.hecke_sum(phi2), model.scale(lam, phi2)))
    checks.add("psi(phi2) is I1-fixed", i1_fixed_check(model, phi2))
    mod, _ = k_span_module(model, phi2)
    verdict = is_irreducible(mod)
    checks.add("K-span of psi(phi2) irreducible, not a character",
               verdict.status == "irreducible" and mod.dim > 1, f"dim {mod.dim}")
    # the G-extension of the inclusion is the scalar c with psi(phi2) = c phi2
    c = proportionality(model, phi2, phi2)
    checks.add("extension scalar determined", c is not None, f"c = {c}")
    ext = lambda x: model.scale(c, x)
    samples = [model.act(g, phi2) for g in g_sample_words(p)]
    checks.add("extension agrees with the P-map on kappa samples",
               all(model.equal(ext(x), x) for x in samples if ps.eval_at_identity(x).is_zero()))
    checks.add("extension is G-equivariant on orbit samples",
               all(model.equal(ext(model.act(g, phi2)), model.act(g, ext(phi2)))
                   for g in g_sample_words(p)))
    return {"case": "sp_to_ind", "model": model.describe(), "checks": checks,
            "status": checks.status(), "extension_scalar": repr(c)}


def _ps_p_gen_shifts(p):
    """P-generators with their level shifts for eigenvector solving."""
    return [
        (upper_u(p, 1), 0),
        (upper_u(p, Fraction(1, p)), 2),
        (t_mat(p), 1),
        (t_mat(p).inv(), 1),
        (diag(p, p, p), 0),
    ] + [(diag(p, u, 1), 0) for u in range(2, p)] + [
        (diag(p, 1, u), 0) for u in range(2, p)
    ]


def p_eigenvector_space(chi: TorusCharacter, value_of):
    """Solve for level-2 tables with b . f = value_of(b) f for the P-generator
    set, including the level-raising generators."""
    field = chi.field
    blocks = []
    for g, shift in _ps_p_gen_shifts(chi.p):
        A = ps.action_matrix(chi, g, 2)
        R = ps.refine_matrix(chi, 2, 2 + shift)
        blocks.append(xf.sub(field, A, xf.mul(field, R, value_of(g).code)))
    kern = xf.kernel_codes(field, np.concatenate(blocks))
    return [ps.PSFunction(chi, 2, row) for row in kern]


def hom_case_char_rigidity(p: int = 2):
    """The only level-2 P-eigenvectors of the trivial character inside the
    trivial principal series are the constants, which are genuinely G-fixed."""
    chi = TorusCharacter.trivial(Weight(p, 0, 0).field)
    checks = _Checks()
    sols = p_eigenvector_space(chi, lambda g: chi.field.one())
    checks.add("eigenvector space is one line", len(sols) == 1, f"dim {len(sols)}")
    if sols:
        f = sols[0]
        spl = ps.DetSplitting(chi)
        const = spl.det_function(f.level)
        cc = proportionality(PSModel(chi), const, f)
        checks.add("the line is the constants", cc is not None)
        model = PSModel(chi)
        checks.add("solution fixed by the opposite unipotent (t-descent conclusion)",
                   model.equal(model.act(lower_u(p, 1), f), f))
        checks.add("solution fixed by s", model.equal(model.act(s_mat(p), f), f))
    return {"case": "char_rigidity", "model": f"Ind_P^G(1), p={p}", "checks": checks,
            "status": checks.status()}


def hom_case_princ_endo(chi: TorusCharacter):
    """Level-2 P-intertwiners of Ind(chi) that extend compatibly to level 3
    (through refinement and both t-translations) form exactly the scalars.

    The level-preserving generators act monomially, so both commutants come
    from monomial_commutant: the level-2 basis M2_k and the level-3 basis C_j.
    M2 = sum c_k M2_k extends when some M3 commuting with the level-3 actions
    satisfies M3 S = sum c_k R_k, with S = [Ref | At | Ati] and R_k =
    [Ref M2_k | At M2_k | Ati M2_k].  Every such M3 is sum d_j C_j, so the
    extendable c are the c-parts of the kernel of sum d_j C_j S - sum c_k R_k:
    dim3 x 3 dim2 equations in s_dim + dim C unknowns.  proj_dim is the rank
    of the c-parts, the dimension of the space of extendable M2."""
    if chi.is_symmetric():
        raise ValueError("case requires chi different from its conjugate")
    p = chi.p
    field = chi.field
    checks = _Checks()
    lvl2_gens = [upper_u(p, 1)] + [diag(p, u, 1) for u in range(2, p)] + [
        diag(p, 1, u) for u in range(2, p)]
    Ref = ps.refine_matrix(chi, 2, 3)
    S = np.concatenate([Ref, ps.action_matrix(chi, t_mat(p), 2),
                        ps.action_matrix(chi, t_mat(p).inv(), 2)], axis=1)
    dim3, dim2 = Ref.shape

    M2_basis = xf.monomial_commutant(
        field, [ps.action_table(chi, g, 2) for g in lvl2_gens], dim2)
    s_dim = len(M2_basis)
    checks.add("level-2 commutant computed", True, f"dim {s_dim}")

    C_basis = xf.monomial_commutant(
        field, [ps.action_table(chi, g, 3) for g in lvl2_gens], dim3)
    eye3 = np.eye(3, dtype=np.int64)
    cols = [xf.sub(field, 0, xf.mat_mul_codes(field, S, np.kron(eye3, M2))).ravel()
            for M2 in M2_basis]
    cols += [xf.mat_mul_codes(field, C, S).ravel() for C in C_basis]
    kern = xf.kernel_codes(field, np.stack(cols, axis=1))
    cvecs = kern[:, :s_dim]
    proj_dim = xf.rank_codes(field, cvecs) if cvecs.size else 0
    checks.add("constructed-map space is one line", proj_dim == 1, f"dim {proj_dim}")
    scalar_ok = False
    if proj_dim >= 1:
        lead = next(row for row in cvecs if np.any(row))
        M = xf.mat_mul_codes(field, lead[None, :], np.reshape(M2_basis, (s_dim, -1)))
        scalar_ok = M[0, 0] != 0 and np.array_equal(
            M.reshape(dim2, dim2), xf.mul(field, np.eye(dim2, dtype=np.int64), M[0, 0]))
    checks.add("the line is the identity scalar", scalar_ok)
    return {"case": "princ_endo", "model": f"Ind_P^G{chi!r}", "checks": checks,
            "status": checks.status()}


def hom_transfer_suite(case: str, p: int = 3):
    if case == "supersingular":
        return hom_case_supersingular(p)
    if case == "sp_to_ind":
        return hom_case_sp_to_ind(p)
    if case == "char_rigidity":
        return hom_case_char_rigidity(p)
    if case == "princ_endo":
        return hom_case_princ_endo(default_asymmetric_character(p))
    raise ValueError(f"unknown case {case!r}")


def default_asymmetric_character(p: int) -> TorusCharacter:
    """A chi different from its conjugate: exponents at p>2, scalars over F4
    at p=2 (where the prime field has no room)."""
    from .exactfield import Field

    if p == 2:
        f4 = Field(2, 2)
        return TorusCharacter(f4, 0, 0, f4.gen(), 1)
    field = Field(p)
    return TorusCharacter(field, 1, 0, 1, 1)
