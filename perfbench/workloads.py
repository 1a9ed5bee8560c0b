"""The benchmark's four workloads: inputs drawn from the seed, the operations
that run inside the timed pass, and the checks run after it.

An operation is one suite call (``clireport.run_command`` with a captured
stdout) or one library call; it takes no arguments and reads no other
operation's output.  Operations reach the program only through module
attributes looked up at call time, so a traced pass sees every call.
Inputs that need the program's types (group elements, start vectors) are
built before the timed pass from integers and Fractions drawn here.

A check has a label, the names of the operations whose outputs it reads,
and a function of the outputs by operation name that returns a list of
error strings.  A check that only does arithmetic of its own runs right
after the last operation it reads, outside the timed intervals, and those
outputs are then dropped.  A check marked `after` calls the program or
sympy, so it runs after the pass, where it cannot warm the program's
caches or add to the pass's peak memory; the few outputs it reads are
kept until then.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

import numpy as np

from gl2borel import borellab as bl
from gl2borel import clireport as cli
from gl2borel import compactind as ci
from gl2borel import exactfield as xf
from gl2borel import padicmat as pm
from gl2borel import principalseries as ps
from gl2borel.exactfield import Field
from gl2borel.fqweights import TorusCharacter, Weight

import checks as chk
import oracle as orc


class Workload:
    """Operations in execution order, and checks over their outputs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rng = random.Random(f"{name}:{seed}")
        self.check_rng = random.Random(f"check:{name}:{seed}")
        self.ops = []      # (op name, fn() -> output)
        self.checks = []   # (label, op names read, fn(outputs) -> error strings, after)

    def op(self, name, fn):
        self.ops.append((name, fn))

    def check(self, label, reads, fn, after=False):
        self.checks.append((label, tuple(reads), fn, after))

    def suite(self, name, *argv):
        """A suite call, and the check that it exits 0 with every check
        of its report passing."""
        self.op(name, lambda: run_suite(list(argv)))
        self.check(name, [name], lambda res: chk.suite_passes(name, res[name]))

    def sub_seed(self) -> str:
        return str(self.rng.randrange(1, 10**6))


def run_suite(argv):
    out = io.BytesIO()
    code = cli.run_command(argv, stdout=out, stderr=io.StringIO())
    return {"exit": code, "stdout": out.getvalue()}


def build(name: str, seed: int) -> Workload:
    wl = Workload(name, seed)
    BUILDERS[name](wl)
    return wl


def mat2(p, m) -> "pm.Mat2":
    return pm.Mat2(p, *m)


def random_unimodular(rng, p: int, bound: int) -> tuple:
    """An element of GL2(Z) with entries up to `bound` and det prime to p."""
    while True:
        a, b, c, d = (Fraction(rng.randint(-bound, bound)) for _ in range(4))
        dt = a * d - b * c
        if dt != 0 and dt.numerator % p:
            return (a, b, c, d)


def random_word(rng, p: int, length: int, num_bound: int) -> tuple:
    """Product of `length` generators u(a), lower-u(p a), diag(units), s, t,
    Pi with a = n / p^e drawn widely.  One position, chosen at random, always
    holds a unipotent, so that two words almost never coincide."""
    g = orc.IDENTITY
    one, zero = Fraction(1), Fraction(0)
    wide = rng.randrange(length)
    for pos in range(length):
        kind = rng.randrange(2) if pos == wide else rng.randrange(6)
        if kind in (0, 1):
            n = 0
            while n == 0:
                n = rng.randint(-num_bound, num_bound)
            a = Fraction(n, p ** rng.randint(0, 3))
            gen = (one, a, zero, one) if kind == 0 else (one, zero, p * a, one)
        elif kind == 2:
            gen = (Fraction(rng.randint(1, p - 1)), zero, zero, Fraction(rng.randint(1, p - 1)))
        elif kind == 3:
            gen = (zero, one, one, zero)
        elif kind == 4:
            gen = (Fraction(p), zero, zero, one)
        else:
            gen = (zero, one, Fraction(p), zero)
        g = orc.mul(g, gen)
    return g


def shift_word(rng, p: int, e: int) -> tuple:
    """k1 diag(p^e, 1) k2 with k1, k2 in GL2(Z): a principal-series action
    raising the level by exactly e."""
    k1 = random_unimodular(rng, p, 10**4)
    k2 = random_unimodular(rng, p, 10**4)
    return orc.mul(orc.mul(k1, (Fraction(p) ** e, Fraction(0), Fraction(0), Fraction(1))), k2)


# ---------------------------------------------------------------------------
# cind-quotient: compact induction and its Hecke quotients
# ---------------------------------------------------------------------------


def _cind_quotient(wl: Workload):
    wl.suite("hecke-p3", "hecke", "--p", "3", "--trials", "10", "--seed", wl.sub_seed())
    wl.suite("recursion-p3-T", "recursion", "--p", "3", "--ideal", "T")
    wl.suite("recursion-p3-T2", "recursion", "--p", "3", "--ideal", "T^2")
    wl.suite("lemma-s-p3", "lemma-s", "--p", "3")
    # generation keeps the CLI's default seed: its cost swings by a factor
    # of three with the seed (trials that need depth 4), which would swamp
    # the run-to-run spread
    wl.suite("generation-p2", "generation", "--p", "2", "--trials", "10")
    for ideal, n in (("T", 1), ("T2", 2)):
        name = f"recursion-p3-{ideal}"
        wl.check(f"{name} depth", [name],
                 lambda res, name=name, n=n: chk.recursion_depth(name, res[name], n))
    wl.check("generation-p2 target", ["generation-p2"],
             lambda res: chk.generation_target(res["generation-p2"]))

    p = 3
    w = Weight(p, 1, 0)
    model = bl.CindModel(w, ci.HeckeIdeal.parse(w.field, "T"))
    wl.op("i1-fixed-ball-R1", lambda: ci.i1_fixed_ball(w, 1, model.ideal))
    wl.check("i1-fixed-ball-R1", ["i1-fixed-ball-R1"], lambda res: [] if res["i1-fixed-ball-R1"]
             else ["no I1-fixed class in the radius-1 ball"])

    # start vectors: random radius-1 coefficient vectors that are nonzero in
    # the quotient, screened on a separate weight instance so that the timed
    # model starts with cold caches, as a fresh CLI process does.  The first
    # prop_give call builds the quotient solver and costs most of the time.
    screen = bl.CindModel(Weight(p, 1, 0), ci.HeckeIdeal.parse(w.field, "T"))
    screen_ball = ci.BallIndex(screen.weight, 1)
    ball = ci.BallIndex(w, 1)
    starts = []
    while len(starts) < 2:
        codes = [wl.rng.randrange(p) for _ in range(ball.dim)]
        if not screen.is_zero(screen_ball.elem(codes)):
            starts.append(ball.elem(codes))
    for i, v in enumerate(starts):
        name = f"prop-give-cind-{i}"
        wl.op(name, lambda v=v: bl.prop_give(model, v))
        wl.check(name, [name], lambda res, name=name: chk.prop_give(model, mat2, res[name]),
                 after=True)


# ---------------------------------------------------------------------------
# pseries-tables: finite-level principal series
# ---------------------------------------------------------------------------


def _pseries_tables(wl: Workload):
    # --trials 20 keeps the det-twist sampling at its floor of five samples
    # per character
    for p in ("3", "2"):
        name = f"pseries-p{p}"
        wl.suite(name, "pseries", "--p", p, "--trials", "20", "--seed", wl.sub_seed())
        wl.check(f"{name} eigenvalues", [name],
                 lambda res, name=name: chk.eigen_record(name, res[name]))

    p = 3
    chi1 = TorusCharacter.trivial(Field(p))
    model = bl.PSModel(chi1)
    while True:
        table = np.array([wl.rng.randrange(p) for _ in range(p * p + p)], dtype=np.int64)
        if table.any():
            break
    v = ps.PSFunction(chi1, 2, table)
    wl.op("prop-give-ps", lambda: bl.prop_give(model, v))
    wl.check("prop-give-ps", ["prop-give-ps"],
             lambda res: chk.prop_give(model, mat2, res["prop-give-ps"]), after=True)

    # repeated table actions, as the suites use them: u(lam) t and u(lam) s
    # on random level-1 and level-2 tables, at p = 3 and at p = 2 over F_4
    actions = []
    zero, one = Fraction(0), Fraction(1)
    for field in (Field(3), Field(2, 2)):
        q = field.p
        n = max(q - 1, 1)
        chi = TorusCharacter(field, wl.rng.randrange(n), wl.rng.randrange(n),
                             field.from_code(wl.rng.randrange(1, field.size)),
                             field.from_code(wl.rng.randrange(1, field.size)))
        for level in (1, 2):
            size = q ** level + q ** (level - 1)
            f = ps.PSFunction(chi, level, np.array(
                [wl.rng.randrange(field.size) for _ in range(size)], dtype=np.int64))
            for lam in range(q):
                for second in ((Fraction(q), zero, zero, one), (zero, one, one, zero)):
                    actions.append((chi, f, orc.mul((one, Fraction(lam), zero, one), second)))
    for i, (chi, f, g) in enumerate(actions):
        name, gm = f"ps-act-{i}", mat2(chi.p, g)
        wl.op(name, lambda f=f, gm=gm: ps.ps_act(gm, f))
        wl.check(name, [name], lambda res, chi=chi, f=f, g=g, name=name: chk.ps_table(
            chi, f.table, f.level, g, res[name], wl.check_rng, 12))

    # the invariants and eigenvalue, recomputed after the pass for the
    # trivial character at p = 3 and the drawn one over F_4
    def invariants(res):
        errs = []
        for chi in (chi1, actions[-1][0]):
            for level in (1, 2):
                errs += chk.ps_invariants(chi, level, ps.i1_invariants(chi, level))
            errs += chk.eigenvalue(chi, ps.eigen_relation(chi))
        return errs

    wl.check("invariants and eigenvalue", [], invariants, after=True)


# ---------------------------------------------------------------------------
# hom-solve: exact linear algebra of the restriction-transfer cases
# ---------------------------------------------------------------------------


def _low_rank(rng, q: int, m: int, n: int, r: int) -> np.ndarray:
    """A random m x n code matrix of rank at most r: the product of random
    m x r and r x n factors in oracle arithmetic (q = 4 means F_4)."""
    F = orc.CodeField(2, 2) if q == 4 else orc.CodeField(q)
    left = [[rng.randrange(q) for _ in range(r)] for _ in range(m)]
    right_t = [[rng.randrange(q) for _ in range(r)] for _ in range(n)]
    return np.array([orc.mat_vec(F, right_t, row) for row in left], dtype=np.int64)


def _hom_solve(wl: Workload):
    for p in ("3", "2"):
        name = f"hom-transfer-p{p}"
        wl.suite(name, "hom-transfer", "--p", p)
        wl.check(f"{name} cases", [name], lambda res, name=name: chk.hom_cases(name, res[name]))

    # echelon and kernel calls at fixed shapes (rows, cols, rank bound)
    f3, f4 = Field(3), Field(2, 2)
    mats = []
    for q, field, shapes in ((3, f3, [(70, 60, 50), (50, 70, 40), (40, 40, 30)]),
                             (4, f4, [(70, 70, 55), (40, 60, 35)])):
        for (m, n, r) in shapes:
            mats.append((q, field, _low_rank(wl.rng, q, m, n, r)))
    for i, (q, field, A) in enumerate(mats):
        wl.op(f"rref-{i}", lambda field=field, A=A: xf.rref(field, A))
        wl.op(f"kernel-{i}", lambda field=field, A=A: xf.kernel_codes(field, A))
        wl.check(f"rref-{i}", [f"rref-{i}"], lambda res, q=q, A=A, i=i:
                 chk.rref(q, A, *res[f"rref-{i}"]), after=True)
        wl.check(f"kernel-{i}", [f"kernel-{i}"], lambda res, q=q, A=A, i=i:
                 chk.kernel(q, A, res[f"kernel-{i}"]), after=True)
    sq = mats[3][2]
    vec = np.array([wl.rng.randrange(4) for _ in range(sq.shape[1])], dtype=np.int64)
    left, right = sq[:30, :30], sq[30:60, :30]
    wl.op("mat-vec-f4", lambda: xf.mat_vec_codes(f4, sq, vec))
    wl.op("mat-mul-f4", lambda: xf.mat_mul_codes(f4, left, right))
    wl.check("mat-vec-f4", ["mat-vec-f4"],
             lambda res: chk.f4_mat_vec(sq, vec, res["mat-vec-f4"]))
    wl.check("mat-mul-f4", ["mat-mul-f4"],
             lambda res: chk.f4_mat_mul(left, right, res["mat-mul-f4"]))


# ---------------------------------------------------------------------------
# fresh-words: the same layers on group elements that rarely repeat
# ---------------------------------------------------------------------------


def _fresh_words(wl: Workload):
    # word lengths and level shifts cycle through their ranges instead of
    # being drawn, so that the cost of a pass hardly depends on the seed;
    # the generators and their entries are drawn
    rng = wl.rng
    decomps = [(p, random_word(rng, p, 3 + i % 6, 10**5))
               for p in (3, 5, 13) for i in range(78)]
    for i, (p, g) in enumerate(decomps):
        gm = mat2(p, g)
        for kind, attr, test in (("iwasawa", "iwasawa", chk.iwasawa),
                                 ("bruhat", "bruhat_side", chk.bruhat),
                                 ("vertex", "vertex_normalize", chk.vertex)):
            name = f"{kind}-{i}"
            wl.op(name, lambda attr=attr, gm=gm: getattr(pm, attr)(gm))
            wl.check(name, [name],
                     lambda res, test=test, p=p, g=g, name=name: test(p, g, res[name]))

    # the action axiom act(g, act(h, f)) = act(gh, f), with gh multiplied
    # here, in both models at p = 3: c-Ind(Sym^1) on radius-1 vectors, and
    # Ind(chi) on level-2 tables with words raising the level by <= 1
    p = 3
    cmodel = bl.CindModel(Weight(p, 1, 0))
    ball = ci.BallIndex(cmodel.weight, 1)
    field = Field(p)
    chi = TorusCharacter(field, rng.randrange(p - 1), rng.randrange(p - 1),
                         rng.randint(1, p - 1), rng.randint(1, p - 1))
    pmodel = bl.PSModel(chi)
    cases = []
    for i in range(45):
        f = ball.elem([rng.randrange(p) for _ in range(ball.dim)])
        cases.append(("cind", cmodel, f, random_word(rng, p, 2 + i % 3, 10**5),
                      random_word(rng, p, 2 + i // 3 % 3, 10**5)))
        if i % 3 == 0:
            j = i // 3
            f = ps.PSFunction(chi, 2, np.array([rng.randrange(p) for _ in range(p * p + p)],
                                               dtype=np.int64))
            cases.append(("ps", pmodel, f, shift_word(rng, p, j % 2),
                          shift_word(rng, p, j // 2 % 2)))
    for i, (kind, model, f, g, h) in enumerate(cases):
        gm, hm, ghm = mat2(p, g), mat2(p, h), mat2(p, orc.mul(g, h))
        lhs, rhs = f"{kind}-g-h-{i}", f"{kind}-gh-{i}"
        wl.op(lhs, lambda model=model, f=f, gm=gm, hm=hm: model.act(gm, model.act(hm, f)))
        wl.op(rhs, lambda model=model, f=f, ghm=ghm: model.act(ghm, f))
        wl.check(f"{kind} case {i}", [lhs, rhs], lambda res, label=f"{kind} case {i}", lhs=lhs,
                 rhs=rhs:
                 chk.action_axiom(label, res[lhs], res[rhs]))
        if kind == "ps":
            # the inner action is compressed by the model; recompute
            # sampled entries of the raw table
            wl.check(f"ps case {i} inner table", [], lambda res, f=f, h=h: chk.ps_table(
                chi, f.table, f.level, h, ps.ps_act(mat2(p, h), f), wl.check_rng, 6),
                after=True)


BUILDERS = {"cind-quotient": _cind_quotient, "pseries-tables": _pseries_tables,
            "hom-solve": _hom_solve, "fresh-words": _fresh_words}
