"""Show that every check in checks.py accepts a genuine output and rejects a
deliberately corrupted one.

    python3 perfbench/selftest.py

Genuine outputs come from small calls into the program; each corruption
changes one thing (a factor off by a unit, one table entry, one dropped
kernel vector, ...).  Prints one line per case and exits 1 if a check
rejects a genuine output or accepts a corrupted one.
"""

import copy
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from gl2borel import borellab as bl  # noqa: E402
from gl2borel import compactind as ci  # noqa: E402
from gl2borel import exactfield as xf  # noqa: E402
from gl2borel import padicmat as pm  # noqa: E402
from gl2borel import principalseries as ps  # noqa: E402
from gl2borel.exactfield import Field  # noqa: E402
from gl2borel.fqweights import TorusCharacter, Weight  # noqa: E402

import checks as chk  # noqa: E402
import worker  # noqa: E402
import workloads as wk  # noqa: E402

CASES = []


def case(name):
    def register(fn):
        CASES.append((name, fn))
        return fn
    return register


def edit_report(out, fn):
    """A suite output with its JSON report edited by fn(doc)."""
    doc = json.loads(out["stdout"])
    fn(doc)
    return {"exit": out["exit"], "stdout": json.dumps(doc).encode()}


def with_entry(m, i, value):
    e = list(chk.fracs(m))
    e[i] = value
    return pm.Mat2(m.p, *e)


rng = random.Random(2024)
P = 3
G = wk.random_word(rng, P, 6, 10**4)
GM = wk.mat2(P, G)


@case("iwasawa: b off by a unit")
def _():
    b, k = pm.iwasawa(GM)
    bad = (with_entry(b, 0, chk.fracs(b)[0] * 2), k)
    return chk.iwasawa(P, G, (b, k)), chk.iwasawa(P, G, bad)


@case("iwasawa: k off by a unit, b compensating")
def _():
    b, k = pm.iwasawa(GM)
    # b diag(1, p) . diag(1, 1/p) k = g, but diag(1, 1/p) k is not integral
    bad = (b * pm.diag(P, 1, P), pm.diag(P, 1, Fraction(1, P)) * k)
    return chk.iwasawa(P, G, (b, k)), chk.iwasawa(P, G, bad)


@case("bruhat: u changed in one entry")
def _():
    side, b, u = pm.bruhat_side(GM)
    bad = (side, b, with_entry(u, 1, chk.fracs(u)[1] + 1))
    return chk.bruhat(P, G, (side, b, u)), chk.bruhat(P, G, bad)


@case("vertex: kz off by a unit")
def _():
    v, kz = pm.vertex_normalize(GM)
    return chk.vertex(P, G, (v, kz)), chk.vertex(P, G, (v, kz.scale(2)))


W = Weight(P, 1, 0)
BALL = ci.BallIndex(W, 1)
F_CIND = BALL.elem([rng.randrange(P) for _ in range(BALL.dim)])
H = wk.random_word(rng, P, 3, 10**4)


@case("action axiom, c-Ind: one coefficient changed")
def _():
    lhs = ci.act(GM, ci.act(wk.mat2(P, H), F_CIND))
    rhs = ci.act(wk.mat2(P, chk.orc.mul(G, H)), F_CIND)
    vert = next(iter(rhs.support))
    support = dict(rhs.support)
    support[vert] = (support[vert][0] + 1,) + support[vert][1:]
    bad = ci.CindElement(W, support)
    return chk.action_axiom("c-Ind", lhs, rhs), chk.action_axiom("c-Ind", lhs, bad)


CHI = TorusCharacter(Field(P), 1, 0, 2, 1)
F_PS = ps.PSFunction(CHI, 2, np.array([rng.randrange(P) for _ in range(P * P + P)]))
SW = wk.shift_word(rng, P, 1)


def changed_entry(f, i):
    table = f.table.copy()
    table[i] = (table[i] + 1) % f.field.size
    return ps.PSFunction(f.chi, f.level, table)


@case("ps_act: one table entry changed")
def _():
    out = ps.ps_act(wk.mat2(P, SW), F_PS)
    every = len(out.table)
    ok = chk.ps_table(CHI, F_PS.table, 2, SW, out, random.Random(1), every)
    bad = chk.ps_table(CHI, F_PS.table, 2, SW, changed_entry(out, 7), random.Random(1), every)
    return ok, bad


@case("ps_act over F4: one table entry changed")
def _():
    f4 = Field(2, 2)
    chi = TorusCharacter(f4, 0, 0, f4.from_code(2), f4.from_code(3))
    f = ps.PSFunction(chi, 2, np.array([rng.randrange(4) for _ in range(6)]))
    g = wk.shift_word(rng, 2, 1)
    out = ps.ps_act(wk.mat2(2, g), f)
    every = len(out.table)
    ok = chk.ps_table(chi, f.table, 2, g, out, random.Random(1), every)
    bad = chk.ps_table(chi, f.table, 2, g, changed_entry(out, 3), random.Random(1), every)
    return ok, bad


K_WORD = wk.shift_word(rng, P, 1)
GM_K = wk.mat2(P, K_WORD)


@case("action axiom, principal series: one table entry changed")
def _():
    model = bl.PSModel(CHI)
    h = wk.shift_word(rng, P, 0)
    lhs = model.act(GM_K, model.act(wk.mat2(P, h), F_PS))
    rhs = model.act(wk.mat2(P, chk.orc.mul(K_WORD, h)), F_PS)
    return (chk.action_axiom("Ind", lhs, rhs),
            chk.action_axiom("Ind", lhs, changed_entry(rhs, 0)))



@case("I1-invariants: one entry changed")
def _():
    inv = ps.i1_invariants(CHI, 2)
    return (chk.ps_invariants(CHI, 2, inv),
            chk.ps_invariants(CHI, 2, [inv[0], changed_entry(inv[1], 4)]))


@case("I1-invariants: a vector repeated")
def _():
    inv = ps.i1_invariants(CHI, 1)
    return chk.ps_invariants(CHI, 1, inv), chk.ps_invariants(CHI, 1, [inv[0], inv[0]])


@case("eigenvalue: another unit")
def _():
    lam = ps.eigen_relation(CHI)
    return chk.eigenvalue(CHI, lam), chk.eigenvalue(CHI, lam * 2)


def low_rank(q, m, n, r):
    return wk._low_rank(rng, q, m, n, r)


@case("rref over F3: one entry changed")
def _():
    A = low_rank(3, 30, 25, 18)
    R, piv = xf.rref(Field(3), A)
    bad = R.copy()
    free = next(c for c in range(A.shape[1]) if c not in piv)
    bad[0, free] = (bad[0, free] + 1) % 3
    return chk.rref(3, A, R, piv), chk.rref(3, A, bad, piv)


@case("rref over F4: last pivot row dropped")
def _():
    A = low_rank(4, 20, 24, 15)
    R, piv = xf.rref(Field(2, 2), A)
    bad = R.copy()
    bad[len(piv) - 1] = 0
    return chk.rref(4, A, R, piv), chk.rref(4, A, bad, piv[:-1])


@case("kernel over F3: one kernel vector dropped")
def _():
    A = low_rank(3, 30, 25, 18)
    K = xf.kernel_codes(Field(3), A)
    return chk.kernel(3, A, K), chk.kernel(3, A, K[1:])


@case("kernel over F4: one kernel vector dropped")
def _():
    A = low_rank(4, 20, 24, 15)
    K = xf.kernel_codes(Field(2, 2), A)
    return chk.kernel(4, A, K), chk.kernel(4, A, K[1:])


@case("kernel over F3: a vector outside the kernel")
def _():
    A = low_rank(3, 30, 25, 18)
    K = xf.kernel_codes(Field(3), A)
    bad = K.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 3
    return chk.kernel(3, A, K), chk.kernel(3, A, bad)


@case("mat_vec over F4: one entry changed")
def _():
    A = low_rank(4, 12, 12, 12)
    x = np.array([rng.randrange(4) for _ in range(12)])
    out = xf.mat_vec_codes(Field(2, 2), A, x)
    bad = out.copy()
    bad[5] ^= 1
    return chk.f4_mat_vec(A, x, out), chk.f4_mat_vec(A, x, bad)


@case("mat_mul over F4: one entry changed")
def _():
    A, B = low_rank(4, 8, 9, 8), low_rank(4, 9, 7, 7)
    out = xf.mat_mul_codes(Field(2, 2), A, B)
    bad = out.copy()
    bad[2, 3] ^= 2
    return chk.f4_mat_mul(A, B, out), chk.f4_mat_mul(A, B, bad)


RECURSION = wk.run_suite(["recursion", "--p", "3", "--ideal", "T"])


@case("suite report: one check failing")
def _():
    def fail_one(doc):
        doc["checks"][-1]["status"] = "fail"
    return (chk.suite_passes("recursion", RECURSION),
            chk.suite_passes("recursion", edit_report(RECURSION, fail_one)))


@case("suite report: exit code 2")
def _():
    bad = dict(RECURSION, exit=2)
    return chk.suite_passes("recursion", RECURSION), chk.suite_passes("recursion", bad)


@case("recursion: terminated one step late")
def _():
    def later(doc):
        doc["checks"][0]["certification"]["n"] += 1
    return (chk.recursion_depth("recursion", RECURSION, 1),
            chk.recursion_depth("recursion", edit_report(RECURSION, later), 1))


GENERATION = wk.run_suite(["generation", "--p", "2", "--trials", "1"])


@case("generation: target dimension off by one")
def _():
    def off(doc):
        doc["checks"][0]["certification"]["target_dim"] -= 1
    return (chk.generation_target(GENERATION),
            chk.generation_target(edit_report(GENERATION, off)))


@case("pseries: one recorded eigenvalue changed")
def _():
    out = wk.run_suite(["pseries", "--p", "3", "--trials", "4"])

    def change(doc):
        c = next(c for c in doc["checks"] if c["name"] == "pseries-eigen-relation")
        head, lam = c["details"].rsplit("->", 1)
        c["details"] = head + "->" + ("1" if lam != "1" else "2")
    return chk.eigen_record("pseries", out), chk.eigen_record("pseries", edit_report(out, change))


@case("hom-transfer: a case missing")
def _():
    out = wk.run_suite(["hom-transfer", "--p", "2"])

    def drop(doc):
        doc["checks"].pop()
    return chk.hom_cases("hom", out), chk.hom_cases("hom", edit_report(out, drop))


GEN_CHECK = [("generation target", ("gen",), lambda res: chk.generation_target(res["gen"]))]


@case("worker: a report lacking the key a check reads")
def _():
    def drop(doc):
        del doc["checks"][0]["certification"]["target_dim"]
    return (worker.run_checks(GEN_CHECK, {"gen": GENERATION}, set()),
            worker.run_checks(GEN_CHECK, {"gen": edit_report(GENERATION, drop)}, set()))


@case("worker: the operation a check reads failed")
def _():
    return (worker.run_checks(GEN_CHECK, {"gen": GENERATION}, set()),
            worker.run_checks(GEN_CHECK, {}, {"gen"}))


PS_MODEL = bl.PSModel(TorusCharacter.trivial(Field(P)))
PS_GIVE = bl.prop_give(PS_MODEL, ps.PSFunction(PS_MODEL.chi, 2, F_PS.table))


@case("prop_give: a certificate translate not upper-triangular")
def _():
    bad = copy.deepcopy(PS_GIVE)
    bad["certificate"]["translates"][-1][2] = "1"
    return chk.prop_give(PS_MODEL, wk.mat2, PS_GIVE), chk.prop_give(PS_MODEL, wk.mat2, bad)


@case("prop_give: output replaced by a vector that is not I1-fixed")
def _():
    bad = dict(PS_GIVE, vector=changed_entry(PS_GIVE["vector"].refine(2), 1))
    return chk.prop_give(PS_MODEL, wk.mat2, PS_GIVE), chk.prop_give(PS_MODEL, wk.mat2, bad)


@case("prop_give: output zero")
def _():
    bad = dict(PS_GIVE, vector=ps.PSFunction.zero(PS_MODEL.chi))
    return chk.prop_give(PS_MODEL, wk.mat2, PS_GIVE), chk.prop_give(PS_MODEL, wk.mat2, bad)


@case("prop_give: K-span dimension above p")
def _():
    bad = dict(PS_GIVE, k_span_dim=P + 1)
    return chk.prop_give(PS_MODEL, wk.mat2, PS_GIVE), chk.prop_give(PS_MODEL, wk.mat2, bad)


def main() -> int:
    broken = 0
    for name, fn in CASES:
        genuine, corrupted = fn()
        ok = not genuine and bool(corrupted)
        broken += not ok
        why = (f"genuine output rejected: {genuine}" if genuine else
               "corrupted output accepted" if not corrupted else corrupted[0])
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {why}")
    print(f"{len(CASES) - broken} of {len(CASES)} checks reject their corruption")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
