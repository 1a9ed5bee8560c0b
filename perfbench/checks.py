"""Independent checks of the program's outputs, run after the timed pass.

Each check returns a list of error strings (empty when the output passes).
Checks compare against a property of the method (a dimension formula, a
recursion depth, an identity such as b k = g) or against an independent
computation in oracle.py or sympy; none compares against stored output.
selftest.py shows that each one rejects a corrupted output.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import numpy as np

import oracle as orc

S_MAT = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))


def fracs(m) -> tuple:
    """Entries of a program Mat2 as plain Fractions."""
    return tuple(Fraction(e.frac) for e in m.entries())


def code_field(field) -> orc.CodeField:
    return orc.CodeField(field.p, field.k)


def char_codes(chi) -> tuple:
    return (chi.i1, chi.i2, chi.s1.code, chi.s2.code)


def i1_gens(p: int, level: int) -> list:
    """u(1), lower-u(p), and diag(u, 1), diag(1, u) for generators u of the
    units = 1 mod p modulo p^level."""
    one, zero = Fraction(1), Fraction(0)
    gens = [(one, one, zero, one), (one, zero, Fraction(p), one)]
    if level > 1:
        units = [1 + p] if p > 2 else ([3] if level == 2 else [2 ** level - 1, 5])
        for u in units:
            gens.append((Fraction(u), zero, zero, one))
            gens.append((one, zero, zero, Fraction(u)))
    return gens


# ---------------------------------------------------------------------------
# suite reports
# ---------------------------------------------------------------------------


def suite_passes(name, out) -> list:
    """Exit code 0 and every check of the report passing."""
    errs = []
    if out["exit"] != 0:
        errs.append(f"{name}: exit {out['exit']}")
    bad = [c["name"] for c in json.loads(out["stdout"])["checks"] if c["status"] != "pass"]
    if bad:
        errs.append(f"{name}: checks not passing {bad}")
    return errs


def recursion_depth(name, out, n_expected) -> list:
    """The recursion from the generator of Sym^1 reaches 0 after exactly
    n steps in c-Ind / (T^n)."""
    n = json.loads(out["stdout"])["checks"][0]["certification"].get("n")
    if n != n_expected:
        return [f"{name}: recursion reached 0 at n={n}, expected {n_expected}"]
    return []


def generation_target(out) -> list:
    """The radius-R ball of c-Ind(Sym^r)/(T) has dimension (r+1)(p+1)p^(R-1)."""
    doc = json.loads(out["stdout"])
    cfg = doc["config"]
    r, R, p = cfg["weight"][0], cfg["r_target"], cfg["p"]
    target = doc["checks"][0]["certification"]["target_dim"]
    want = (r + 1) * (p + 1) * p ** (R - 1)
    return [] if target == want else [f"generation target dim {target} != {want}"]


def eigen_record(name, out) -> list:
    """Each recorded 'chi->lambda' pair has lambda = chi(diag(1, p)) = s2."""
    errs = []
    for c in json.loads(out["stdout"])["checks"]:
        if c["name"] != "pseries-eigen-relation":
            continue
        items = c["details"].split("; ")[1:]
        if not items:
            errs.append(f"{name}: no eigenvalues recorded")
        for item in items:
            chi_s, lam = item.split("->")
            s2 = chi_s.strip("()").split(";")[1].split(",")[1]
            if lam != s2:
                errs.append(f"{name}: eigenvalue {lam} != chi(diag(1,p)) = {s2}")
    return errs


def hom_cases(name, out) -> list:
    cases = [c["name"] for c in json.loads(out["stdout"])["checks"]]
    want = ["hom-supersingular", "hom-sp-to-ind", "hom-char-rigidity", "hom-princ-endo"]
    return [] if cases == want else [f"{name}: cases {cases}, expected {want}"]


# ---------------------------------------------------------------------------
# the P-span driver
# ---------------------------------------------------------------------------


def prop_give(model, mat2, rep) -> list:
    """Postconditions of prop_give: status pass, output nonzero and fixed by
    the I1 generators, K-span dimension in 1..p, certificate translates
    upper-triangular (read as plain Fractions).  `mat2` builds a program
    matrix from four Fractions."""
    p = model.p
    errs = []
    if rep["status"] != "pass":
        errs.append(f"prop_give status {rep['status']}")
    v = rep["vector"]
    if model.is_zero(v):
        errs.append("prop_give output is zero")
    else:
        level = model.level_hint([v]) + 1
        for g in i1_gens(p, level):
            if not model.equal(model.act(mat2(p, g), v), v):
                errs.append(f"prop_give output not fixed by {g}")
                break
    if not 1 <= rep["k_span_dim"] <= p:
        errs.append(f"K-span dimension {rep['k_span_dim']} outside 1..{p}")
    cert = rep["certificate"]
    if not cert["valid"]:
        errs.append("certificate flagged invalid")
    for t in cert["translates"]:
        if not orc.in_P(orc.frac_entries(t)):
            errs.append(f"certificate translate {t} is not upper-triangular")
            break
    return errs


# ---------------------------------------------------------------------------
# principal-series tables
# ---------------------------------------------------------------------------


def ps_table(chi, f_table, f_level, g, out, rng, samples) -> list:
    """Recompute `samples` entries of out = g . f as chi(b) f(rep)."""
    F = code_field(chi.field)
    char = char_codes(chi)
    pts = orc.ps_points(chi.p, out.level)
    for idx in rng.sample(range(len(pts)), min(samples, len(pts))):
        want = orc.ps_act_entry(F, chi.p, char, f_table, f_level, g, pts[idx])
        if int(out.table[idx]) != want:
            return [f"ps_act entry {pts[idx]}: got {int(out.table[idx])}, expected {want}"]
    return []


def ps_invariants(chi, level, inv) -> list:
    """Dimension 2, each vector fixed by the I1 generators (every entry
    recomputed), the two independent."""
    if len(inv) != 2:
        return [f"I1-invariants of {chi!r} at level {level}: dim {len(inv)}"]
    F = code_field(chi.field)
    char = char_codes(chi)
    pts = orc.ps_points(chi.p, level)
    for f in inv:
        for g in i1_gens(chi.p, level):
            for i, pt in enumerate(pts):
                if orc.ps_act_entry(F, chi.p, char, f.table, level, g, pt) != int(f.table[i]):
                    return [f"I1-invariant of {chi!r} not fixed by {g} at {pt}"]
    if orc.rank(F, [f.table for f in inv]) != 2:
        return [f"I1-invariants of {chi!r} at level {level} are dependent"]
    return []


def eigenvalue(chi, lam) -> list:
    F = code_field(chi.field)
    want = orc.char_value(F, chi.p, char_codes(chi), Fraction(1), Fraction(chi.p))
    if lam.code != want:
        return [f"eigenvalue of {chi!r}: code {lam.code}, chi(diag(1,p)) = {want}"]
    return []


# ---------------------------------------------------------------------------
# linear algebra over GF(p) (sympy) and F_4 (oracle tables)
# ---------------------------------------------------------------------------


def rank(q: int, M) -> int:
    """Rank over GF(q) by the oracle's elimination (q = 4 means F_4)."""
    F = orc.CodeField(2, 2) if q == 4 else orc.CodeField(q)
    return orc.rank(F, np.asarray(M).tolist())


@functools.lru_cache(maxsize=None)
def _sympy_rank_nullity(q: int, shape, data: bytes):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    K = GF(q)
    rows = np.frombuffer(data, dtype=np.int64).reshape(shape).tolist()
    dM = DomainMatrix([[K(int(x)) for x in row] for row in rows], shape, K)
    return dM.rank(), dM.nullspace().shape[0]


def sympy_rank_nullity(q: int, A):
    """Rank and nullspace dimension of A over the prime field GF(q), by sympy."""
    A = np.ascontiguousarray(A, dtype=np.int64)
    return _sympy_rank_nullity(q, A.shape, A.tobytes())


def rref(q: int, A, R, piv) -> list:
    """Reduced echelon shape, rank equal to sympy's (the oracle's over F_4),
    and the row space of A."""
    errs = []
    r = len(piv)
    if any(R[i, c] != 1 or np.count_nonzero(R[:, c]) != 1 for i, c in enumerate(piv)):
        errs.append("rref: pivot columns are not unit vectors")
    if np.any(R[r:]):
        errs.append("rref: nonzero rows below the rank")
    if list(piv) != sorted(piv):
        errs.append("rref: pivots out of order")
    ra = rank(q, A) if q == 4 else sympy_rank_nullity(q, A)[0]
    if ra != r:
        errs.append(f"rref: rank {r}, independent rank {ra}")
    elif rank(q, np.concatenate([A, R[:r]])) != r:
        errs.append("rref: row space differs from the input's")
    return errs


def kernel(q: int, A, K) -> list:
    """A k = 0 for every row k, independent rows, as many as the nullspace
    dimension (sympy's over GF(p), rank-nullity with the oracle over F_4)."""
    errs = []
    n = A.shape[1]
    if q == 4:
        F = orc.CodeField(2, 2)
        zero = all(not any(orc.mat_vec(F, A, k)) for k in K)
        nullity = n - rank(q, A)
    else:
        zero = not np.any((A @ K.T) % q)
        nullity = sympy_rank_nullity(q, A)[1]
    if not zero:
        errs.append("kernel: A k != 0 for some kernel row")
    if K.shape[0] != nullity:
        errs.append(f"kernel: {K.shape[0]} rows, nullspace dimension {nullity}")
    if K.shape[0] and rank(q, K) != K.shape[0]:
        errs.append("kernel: rows are dependent")
    return errs


def f4_mat_vec(A, x, Ax) -> list:
    """A x over F_4 against the oracle's table arithmetic."""
    if [int(c) for c in Ax] != orc.mat_vec(orc.CodeField(2, 2), A, x):
        return ["mat_vec_codes over F4 disagrees with the table product"]
    return []


def f4_mat_mul(A, B, AB) -> list:
    """A B over F_4, column by column against the oracle's tables."""
    F = orc.CodeField(2, 2)
    if np.asarray(AB).T.tolist() != [orc.mat_vec(F, A, col) for col in np.asarray(B).T]:
        return ["mat_mul_codes over F4 disagrees with the table product"]
    return []


# ---------------------------------------------------------------------------
# coset decompositions
# ---------------------------------------------------------------------------


def iwasawa(p, g, out) -> list:
    b, k = (fracs(x) for x in out)
    if orc.mul(b, k) != g:
        return [f"iwasawa: b k != g for g = {g}"]
    if not orc.in_P(b):
        return [f"iwasawa: b not upper-triangular for g = {g}"]
    if not orc.in_K(k, p):
        return [f"iwasawa: k not integral with unit determinant for g = {g}"]
    return []


def bruhat(p, g, out) -> list:
    side, b, u = out
    b, u = fracs(b), fracs(u)
    rebuilt = orc.mul(b, u) if side == "PI1" else orc.mul(orc.mul(b, S_MAT), u)
    if rebuilt != g or not orc.in_P(b) or not orc.in_I1(u, p):
        return [f"bruhat: witnesses do not rebuild g = {g} ({side})"]
    return []


def vertex(p, g, out) -> list:
    """g = rep(v) kz with rep(v) = [[p^d, a], [0, 1]] and kz in F^x K."""
    v, kz = out
    rep = (Fraction(p) ** v.d, Fraction(v.a.frac), Fraction(0), Fraction(1))
    kz = fracs(kz)
    if orc.mul(rep, kz) != g or not orc.in_FxK(kz, p):
        return [f"vertex: rep(v) kz != g or kz outside F^x K for g = {g}"]
    return []


def action_axiom(label, lhs, rhs) -> list:
    """act(g, act(h, f)) = act(gh, f)."""
    return [] if lhs == rhs else [f"{label}: action axiom fails"]
