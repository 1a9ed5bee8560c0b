"""Command-line front end: configuration parsing, verification suites, and
bit-stable report emission.

Reports are deterministic functions of (config, seed): JSON output uses
sorted keys and fixed separators, carries no timing, and serializes
identically across runs.  Exit codes: 0 all checks pass, 2 any check failed,
3 inconclusive outcomes only, 64 usage or configuration error.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import borellab as bl
from . import compactind as ci
from . import exactfield as xf
from . import principalseries as ps
from .exactfield import Field
from .fqweights import (
    TorusCharacter,
    Weight,
    all_stable_subspaces,
    induce_from_iwahori,
    intertwiner_dimension,
    is_irreducible,
    restrict_module,
)
from .padicmat import (
    Mat2,
    PadicRational,
    bruhat_side,
    diag,
    in_subgroup,
    iwasawa,
    lower_u,
    pi_mat,
    random_group_word,
    random_in_subgroup,
    random_scalar,
    s_mat,
    t_mat,
    unit_lift,
    upper_u,
    vertex_normalize,
)

COMMANDS = ("identities", "weights", "hecke", "recursion", "lemma-s",
            "pseries", "generation", "hom-transfer", "all")

USAGE = """usage: gl2borel COMMAND [options]

commands:
  identities    exact matrix identities and decomposition round-trips
  weights       finite weights, Iwahori induction, irreducibility
  hecke         the Hecke operator: pinned values, equivariance, injectivity
  recursion     the unipotent-sum recursion in Hecke quotients
  lemma-s       the s-reconstruction identity in both models
  pseries       principal-series invariants, eigenvalue, det-splitting
  generation    truncated P-generation evidence in a supersingular model
  hom-transfer  the four restriction-transfer cases
  all           every suite at the configured prime

options:
  --p N           prime (2..13; default 3)
  --fieldk N      coefficient field extension degree (only the default 1)
  --weight R,M    weight parameters (default 1,0)
  --char A,B,C,D  torus character i1,i2,s1,s2 (only the default 0,0,1,1)
  --ideal SPEC    Hecke ideal: T, T^n, or T-c (default T)
  --radius N      ball radius (default 2)
  --level N       principal-series level (only the default 2)
  --trials N      sample count for randomized checks (default 100)
  --bound N       recursion bound (default 10)
  --word-length N P-word length for generation (default 4)
  --r-target N    target ball radius for generation (default 1)
  --sample-radius N  starting-vector support radius for generation (default 0)
  --seed N        RNG seed (default: env WORKBENCH_SEED or 0)
  --format F      json or text (default json)
  --config PATH   read options from a JSON file (flags override)
"""


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = ""
    p: int = 3
    fieldk: int = 1
    weight: tuple = (1, 0)
    char: tuple = (0, 0, 1, 1)
    ideal: str = "T"
    radius: int = 2
    level: int = 2
    trials: int = 100
    bound: int = 10
    word_length: int = 4
    r_target: int = 1
    sample_radius: int = 0
    seed: int = 0
    format: str = "json"

    def validate(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.p not in xf.SUPPORTED_PRIMES:
            raise UsageError(f"p must be a prime in {xf.SUPPORTED_PRIMES}")
        # no suite reads these yet; they stay in the echoed config
        for name in ("fieldk", "char", "level"):
            if getattr(self, name) != getattr(RunConfig, name):
                raise UsageError(f"--{name} is not used by any suite; "
                                 "only its default is accepted")
        r, m = self.weight
        if not 0 <= r <= self.p - 1:
            raise UsageError(f"weight r out of range 0..{self.p - 1}")
        if not 0 <= m < max(self.p - 1, 1):
            raise UsageError(f"weight m out of range 0..{max(self.p - 2, 0)}")
        try:
            ci.HeckeIdeal.parse(Field(self.p), self.ideal)
        except ValueError as exc:
            raise UsageError(str(exc))
        if not 0 <= self.radius <= 6:
            raise UsageError("radius must be in 0..6")
        for name in ("trials", "bound", "word_length", "r_target", "sample_radius"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        if self.format not in ("json", "text"):
            raise UsageError("format must be json or text")
        return self

    def the_weight(self) -> Weight:
        return Weight(self.p, *self.weight)

    def echo(self) -> dict:
        d = asdict(self)
        d["weight"] = list(self.weight)
        d["char"] = list(self.char)
        return d


def _as_int(val) -> int:
    """A JSON integer (not a bool) or a string of one; 2.7 is never truncated."""
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        raise ValueError(f"not an integer: {val!r}")
    return int(val)


def parse_argv(argv) -> RunConfig:
    if not argv:
        raise UsageError("missing command")
    command, rest = argv[0], list(argv[1:])
    values = {}
    file_values = {}
    i = 0
    while i < len(rest):
        flag = rest[i]
        if not flag.startswith("--"):
            raise UsageError(f"unexpected argument {flag!r}")
        key = flag[2:].replace("-", "_")
        if i + 1 >= len(rest):
            raise UsageError(f"flag {flag} needs a value")
        val = rest[i + 1]
        i += 2
        if key == "config":
            try:
                with open(val) as fh:
                    file_values = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config file: {exc}")
            if not isinstance(file_values, dict):
                raise UsageError("config file must hold a JSON object")
            continue
        values[key] = val

    # flags override the file, and the file the environment's seed; every
    # value is parsed, so a malformed file value is refused even if overridden
    items = [(key.replace("-", "_"), val) for src in (file_values, values)
             for key, val in src.items()]
    cfg = RunConfig(command=command)
    if "seed" not in dict(items) and os.environ.get("WORKBENCH_SEED"):
        items.insert(0, ("seed", os.environ["WORKBENCH_SEED"]))
    for key, val in items:
        if key in ("weight", "char"):
            try:  # a str "r,m" or a JSON list; anything else is one bad part
                parts = [_as_int(x) for x in (val.split(",") if isinstance(val, str)
                                              else val if isinstance(val, list) else [val])]
            except ValueError:
                raise UsageError(f"cannot parse --{key} value {val!r}")
            need = 2 if key == "weight" else 4
            if len(parts) != need:
                raise UsageError(f"--{key} needs {need} comma-separated integers")
            setattr(cfg, key, tuple(parts))
        elif key in ("ideal", "format"):
            setattr(cfg, key, str(val))
        elif hasattr(cfg, key) and key != "command":
            try:
                setattr(cfg, key, _as_int(val))
            except ValueError:
                raise UsageError(f"--{key} needs an integer, got {val!r}")
        else:
            raise UsageError(f"unknown flag --{key}")
    return cfg.validate()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(name, ok, details="", cert=None, inconclusive=False):
    status = "inconclusive" if inconclusive else ("pass" if ok else "fail")
    return {"name": name, "status": status, "details": str(details),
            "certification": cert or {}}


def suite_identities(cfg: RunConfig):
    p, trials = cfg.p, cfg.trials
    rng = random.Random(cfg.seed)
    out = []
    cert = {"trials": trials, "seed": cfg.seed, "p": p}

    ok = True
    for _ in range(trials):
        beta = random_scalar(p, rng)
        lhs = s_mat(p) * upper_u(p, beta)
        rhs = Mat2(p, -beta.inv(), 1, 0, beta) * lower_u(p, beta.inv())
        ok = ok and lhs == rhs
    out.append(check("trix-identity", ok, "s u(beta) factorization, exact", cert))

    ok = True
    for _ in range(trials):
        alpha = PadicRational(p, rng.randint(-p * p, p * p))
        beta = random_scalar(p, rng, max_exp=0) * p  # valuation >= 1
        gamma = 1 + alpha * beta
        lhs = lower_u(p, beta) * upper_u(p, alpha)
        rhs = upper_u(p, alpha * gamma.inv()) * Mat2(p, gamma.inv(), 0, beta, gamma)
        ok = ok and gamma.is_unit() and lhs == rhs
    out.append(check("restP-conjugation", ok,
                     "lower-u(beta) u(alpha) rewrite with unit 1+alpha*beta", cert))

    ok = True
    for _ in range(trials):
        beta = random_scalar(p, rng)
        ok = ok and t_mat(p).inv() * lower_u(p, beta) * t_mat(p) == lower_u(p, beta * p)
    out.append(check("t-conjugation", ok, "t^-1 lower-u(beta) t = lower-u(p beta)", cert))

    ok_iw = ok_br = ok_vx = ok_part = True
    for _ in range(trials):
        g = random_group_word(p, rng)
        b, kk = iwasawa(g)
        ok_iw = ok_iw and b * kk == g and in_subgroup(kk, "K") and in_subgroup(b, "P")
        side, bb, uu = bruhat_side(g)
        if side == "PI1":
            ok_br = ok_br and bb * uu == g
        else:
            ok_br = ok_br and bb * s_mat(p) * uu == g
        ok_part = ok_part and in_subgroup(uu, "I1") and in_subgroup(bb, "P")
        v, kz = vertex_normalize(g)
        ok_vx = ok_vx and v.rep() * kz == g
        v2, kz2 = vertex_normalize(v.rep())
        ok_vx = ok_vx and v2 == v and kz2 == Mat2.identity(p)
    out.append(check("iwasawa-roundtrip", ok_iw, "g = b k recombination, exact", cert))
    out.append(check("bruhat-roundtrip", ok_br, "g = b u or b s u recombination, exact", cert))
    out.append(check("bruhat-partition", ok_part, "witnesses land in P and I1", cert))
    out.append(check("vertex-roundtrip", ok_vx,
                     "g = rep(vertex) kz recombination and idempotence", cert))

    ok = True
    for _ in range(trials):
        k1 = random_in_subgroup(p, rng, "K1")
        i1 = random_in_subgroup(p, rng, "I1")
        ii = random_in_subgroup(p, rng, "I")
        ok = ok and in_subgroup(k1, "I1") and in_subgroup(i1, "I") and in_subgroup(ii, "K")
    out.append(check("subgroup-chain", ok, "K1 in I1 in I in K on random samples", cert))

    ok = True
    for lam in range(1, p):
        lift = unit_lift(p, lam)
        inv = lift.inv()
        ok = ok and inv.valuation == 0 and inv.unit_residue() == pow(lam, -1, p)
    out.append(check("unit-lift-inverse", ok,
                     "inverse lifts are units with the inverse residue", cert))
    return out


def suite_weights(cfg: RunConfig):
    p = cfg.p
    out = []
    cert = {"p": p}
    n = max(p - 1, 1)
    weights = [Weight(p, r, m) for r in range(p) for m in range(n)]
    mods = [w.k_module() for w in weights]

    ok = True
    details = []
    exponents = []
    for w in weights:
        v0, (e1, e2) = w.i1_fixed_line()
        good = (e1 == (w.r + w.m) % n and e2 == w.m % n)
        ok = ok and good
        details.append(f"{w!r}:({e1},{e2})")
        exponents.append((e1, e2))
    fixed_lines_ok = ok
    out.append(check("weights-fixed-line", ok,
                     "dim 1 with exponents (r+m, m): " + " ".join(details), cert))

    ok = True
    for w, mod in zip(weights, mods):
        ok = ok and mod.check_relations()
        for k1g in ci.k1_check_gens(p):
            red = w.reduce_k(k1g)
            eye = np.eye(w.dim, dtype=np.int64)
            ok = ok and np.array_equal(w.action_matrix(red), eye)
    out.append(check("weights-k1-trivial", ok,
                     "congruence generators act as the identity", cert))

    ok = all(is_irreducible(mod).status == "irreducible" for mod in mods)
    out.append(check("weights-irreducible", ok, f"{len(weights)} weights", cert))

    # An irreducible weight is generated by its I1-fixed line, which a K-map
    # sends to a fixed line with the same torus character: once both checks
    # above hold, only pairs with equal exponents can have one (Barthel-Livne).
    decided = fixed_lines_ok and ok
    ok = True
    for i, j in combinations(range(len(weights)), 2):
        if decided and exponents[i] != exponents[j]:
            continue
        d = intertwiner_dimension(weights[i].field, mods[i].gens, mods[j].gens,
                                  weights[i].dim, weights[j].dim)
        ok = ok and d == 0
    out.append(check("weights-distinct", ok, "no nonzero intertwiners", cert))

    field = Field(p)
    chi0 = TorusCharacter.trivial(field)
    mod = induce_from_iwahori(chi0)
    verdict = is_irreducible(mod)
    ok = mod.dim == p + 1 and verdict.status == "reducible"
    detail = f"dim {mod.dim}, {verdict.detail}"
    if p <= 3:
        subs = all_stable_subspaces(mod)
        dims = sorted(b.shape[0] for b in subs)
        ok = ok and dims == [0, 1, p, p + 1]
        detail += f"; exhaustive lattice dims {dims}"
        st = next(b for b in subs if b.shape[0] == p)
        ok = ok and is_irreducible(restrict_module(mod, st)).status == "irreducible"
    out.append(check("iwahori-induction-trivial", ok, detail, cert))

    if p > 2:
        chi = TorusCharacter(field, 1, 0, 1, 1)
        modr = induce_from_iwahori(chi)
        w0 = ps.make_phi2(chi).table
        span = modr.span_closure(w0[None, :])
        sub = restrict_module(modr, span)
        verdict = is_irreducible(sub)
        out.append(check("iwahori-induction-regular",
                         verdict.status == "irreducible",
                         f"K-span of w0 has dim {sub.dim}", cert))
    return out


def suite_hecke(cfg: RunConfig):
    p = cfg.p
    rng = random.Random(cfg.seed)
    out = []
    cert = {"p": p, "seed": cfg.seed, "trials": cfg.trials}

    for m in range(max(p - 1, 1))[:2]:
        w0 = Weight(p, 0, m)
        phi0 = ci.phi_element(w0)
        direct = (ci.act(pi_mat(p), phi0).scale(w0.field.from_int((-1) ** m))
                  + bl.CindModel(w0).hecke_sum(phi0))
        ok = ci.hecke_T(phi0) == direct
        out.append(check(f"lemma-T-character-m{m}", ok,
                         "pinned value with translate of Pi present (sign psi(-1))",
                         cert))

    w = cfg.the_weight() if cfg.weight[0] >= 1 else Weight(p, 1, 0)
    phi = ci.phi_element(w)
    tphi = ci.hecke_T(phi)
    ok = tphi == bl.CindModel(w).hecke_sum(phi) and tphi.radius() == 1
    ok = ok and not any(v.distance() == 0 for v in tphi.support)
    out.append(check("lemma-T-noncharacter", ok,
                     f"{w!r}: no base term, radius 1", cert))

    ball = ci.BallIndex(w, 1)
    ok = True
    for _ in range(cfg.trials):
        g = random_group_word(p, rng, 5)
        codes = np.array([rng.randrange(w.field.size) for _ in range(ball.dim)],
                         dtype=np.int64)
        f = ball.elem(codes)
        ok = ok and ci.hecke_T(ci.act(g, f)) == ci.act(g, ci.hecke_T(f))
    out.append(check("hecke-equivariance", ok,
                     "T commutes with the action on random pairs", cert))

    ok = True
    for _ in range(10):
        codes = np.array([rng.randrange(w.field.size) for _ in range(ball.dim)],
                         dtype=np.int64)
        f = ball.elem(codes)
        ok = ok and ci.hecke_T(f, "default") == ci.hecke_T(f, "alt")
    out.append(check("hecke-well-defined", ok,
                     "two expansion paths give identical output", cert))

    ideal = ci.HeckeIdeal.parse(w.field, "T")
    ok = True
    dims = []
    for R in range(0, min(cfg.radius, 3) + 1):
        A, inner, _ = ci.ideal_matrix(w, ideal, R)
        kern = xf.kernel_codes(w.field, A)
        dims.append(f"R={R}:{inner.dim}")
        ok = ok and kern.shape[0] == 0
    out.append(check("hecke-injective-at-truncation", ok,
                     "trivial kernel on balls " + ", ".join(dims),
                     {**cert, "radius": min(cfg.radius, 3)}))

    ok = True
    for f in [phi, tphi]:
        base = ci.CindElement(w)
        alt = ci.CindElement(w)
        for lam in range(p):
            base = base + ci.act(upper_u(p, lam) * t_mat(p), f)
            lift2 = lam + p * rng.randint(1, 3) if lam else 0
            alt = alt + ci.act(upper_u(p, lift2) * t_mat(p), f)
        ok = ok and base == alt
    out.append(check("lift-independence", ok,
                     "unipotent sums agree for any unit-lift system on "
                     "I1-fixed vectors", cert))
    return out


def suite_recursion(cfg: RunConfig):
    p = cfg.p
    out = []
    w = cfg.the_weight()
    field = w.field
    ideal = ci.HeckeIdeal.parse(field, cfg.ideal)
    model = bl.CindModel(w, ideal)
    rep = bl.recursion(model, model.generator(), bound=cfg.bound)
    cert = {"p": p, "weight": list(cfg.weight), "ideal": cfg.ideal,
            "bound": cfg.bound, "certified_radius_max": ci.DEFAULT_R_MAX}
    if "reason" in rep:
        # a budget stop: the truncation ended the run, not the recursion
        steps, radius = len(rep["sequence"]) - 1, rep["sequence"][-1].radius()
        out.append(check("recursion-terminates", False,
                         f"{rep['reason']}; iterate {steps} reached radius {radius}",
                         {**cert, "n": None, "radius_reached": radius}, inconclusive=True))
        return out
    out.append(check("recursion-terminates", rep["terminated"],
                     f"n = {rep['n']}" if rep["terminated"] else
                     "not terminated within bound",
                     {**cert, "n": rep["n"]}))
    for c in rep.get("checks", []):
        out.append(check("recursion-" + c["name"].replace(" ", "-"),
                         c["status"] == "pass", "", cert))
    return out


def suite_lemma_s(cfg: RunConfig):
    p = cfg.p
    out = []
    field = Field(p)
    cert = {"p": p}

    for (r, m) in [(1, 0)] + ([(cfg.weight)] if cfg.weight != (1, 0) else []):
        if r == 0:
            continue
        w = Weight(p, r, m)
        for spec in ("T", "T^2"):
            model = bl.CindModel(w, ci.HeckeIdeal.parse(w.field, spec))
            rep = bl.recursion(model, model.generator(), bound=cfg.bound)
            if not rep["terminated"]:
                out.append(check(f"lemma-s-cind-{r},{m}-{spec}", False,
                                 "recursion did not terminate", cert))
                continue
            vp = rep["sequence"][rep["n"] - 1]
            res = bl.lemma_s_check(model, vp)
            out.append(check(f"lemma-s-cind-{r},{m}-{spec}",
                             res["status"] == "pass", res["detail"],
                             {**cert, "n": rep["n"]}))

    w0 = Weight(p, 0, 0)
    model0 = bl.CindModel(w0, ci.HeckeIdeal.parse(w0.field, "T"))
    rep0 = bl.recursion(model0, model0.generator(), bound=cfg.bound)
    if rep0["terminated"] and rep0["n"] >= 1:
        vp = rep0["sequence"][rep0["n"] - 1]
        res = bl.lemma_s_check(model0, vp)
        out.append(check("lemma-s-trivial-weight", res["status"] == "pass",
                         f"recursion n = {rep0['n']}; " + res["detail"], cert))
    else:
        out.append(check("lemma-s-trivial-weight", False, "no terminating instance", cert))

    psm = bl.PSModel(TorusCharacter.trivial(field))
    inv = ps.i1_invariants(psm.chi, 1)
    kern_vec = _ps_hecke_kernel_vector(psm, inv)
    if kern_vec is None:
        out.append(check("lemma-s-pseries", False, "no kernel vector found", cert))
    else:
        res = bl.lemma_s_check(psm, kern_vec)
        out.append(check("lemma-s-pseries", res["status"] == "pass", res["detail"], cert))

    out.append(check("lemma-s-guard",
                     _lemma_s_guard_raises(model0 if p > 2 else psm),
                     "hypothesis violation raises", cert))
    return out


def _ps_hecke_kernel_vector(psm, inv_basis):
    """A nonzero I1-fixed vector killed by the unipotent sum, by solving on
    the invariant basis."""
    sums = [psm.hecke_sum(v) for v in inv_basis]
    frame = psm.frame(inv_basis + sums)
    kern = xf.kernel_codes(psm.field, frame.matrix(sums).T)
    for row in kern:
        v = bl.combine(psm, zip(row, inv_basis))
        if not v.is_zero():
            return v
    return None


def _lemma_s_guard_raises(model) -> bool:
    gen = model.generator() if isinstance(model, bl.CindModel) else model.phi1()
    try:
        bl.lemma_s_check(model, gen)
    except ValueError:
        return True
    return False


def _char_family(p: int):
    """Tame characters over the natural scalar field: the full exponent/
    scalar grid at p <= 3 (F4 scalars at p = 2), a representative slice at
    larger primes to keep single suite runs quick."""
    if p == 2:
        f4 = Field(2, 2)
        units = [f4.from_code(c) for c in range(1, 4)]
        return [TorusCharacter(f4, 0, 0, a, b) for a in units for b in units]
    field = Field(p)
    if p == 3:
        units = [field.el(u) for u in range(1, p)]
        return [TorusCharacter(field, i1, i2, s1, s2)
                for i1 in range(p - 1) for i2 in range(p - 1)
                for s1 in units for s2 in units]
    g = field.el(2)
    out = []
    for i1 in range(p - 1):
        for i2 in (0, i1):
            for s1, s2 in ((field.one(), field.one()), (field.one(), g), (g, g)):
                chi = TorusCharacter(field, i1, i2, s1, s2)
                if chi not in out:
                    out.append(chi)
    return out


def suite_pseries(cfg: RunConfig):
    p = cfg.p
    rng = random.Random(cfg.seed)
    out = []
    chars = _char_family(p)
    cert = {"p": p, "levels": [1, 2], "characters": len(chars), "seed": cfg.seed}

    ok_dim = True
    ok_phi = True
    ok_eig = True
    ok_s2 = True
    recorded = []
    for chi in chars:
        d1 = len(ps.i1_invariants(chi, 1))
        d2 = len(ps.i1_invariants(chi, 2))
        ok_dim = ok_dim and d1 == 2 and d2 == 2
        phi1 = ps.make_phi1(chi)
        phi2 = ps.make_phi2(chi)
        ok_phi = (ok_phi and ps.eval_at_identity(phi1) == chi.field.one()
                  and ps.eval_at_identity(phi2).is_zero()
                  and not phi2.is_zero())
        lam = ps.eigen_relation(chi)
        ok_eig = ok_eig and not lam.is_zero()
        ok_s2 = ok_s2 and lam == chi.s2
        recorded.append(f"{chi!r}->{lam!r}")
    out.append(check("pseries-invariant-dim", ok_dim,
                     "dim 2 at levels 1 and 2 for every tame character", cert))
    out.append(check("pseries-phi-basis", ok_phi,
                     "phi1(1)=1, phi2(1)=0, phi2 nonzero", cert))
    out.append(check("pseries-eigen-relation", ok_eig,
                     "nonzero eigenvalue with zero residual; " + "; ".join(recorded[:6]),
                     cert))
    out.append(check("pseries-eigen-value-is-s2", ok_s2,
                     "empirical lambda equals chi(diag(1,p)) in this normalization",
                     cert))

    dets = [chi for chi in chars if chi.is_det_twist()]
    ok = True
    for chi in dets:
        spl = ps.DetSplitting(chi)
        one = chi.field.one()
        ok = ok and spl.project(spl.include(one, 1)) == one
        phi2 = ps.make_phi2(chi)
        ok = ok and spl.kappa_part(phi2) == phi2
        phi1 = ps.make_phi1(chi)
        kp = spl.kappa_part(phi1)
        ok = ok and ps.eval_at_identity(kp).is_zero()
        for _ in range(max(cfg.trials // len(dets), 5)):
            # upper-triangular samples with level shift <= 2 (diagonal
            # valuations in {0, 1}), so level-2 tables stay inside the cap
            a = rng.randint(1, p - 1) * p ** rng.randint(0, 1)
            d = rng.randint(1, p - 1) * p ** rng.randint(0, 1)
            b = Mat2(p, a, rng.randint(0, p * p), 0, d)
            f = ps.random_ps_function(chi, 2, rng)
            ok = ok and spl.project(ps.ps_act(b, f)) == spl.psi_hat(b.det()) * spl.project(f)
            kf = spl.kappa_part(f)
            ok = ok and ps.eval_at_identity(spl.kappa_part(ps.ps_act(b, kf))).is_zero()
        st = spl.to_steinberg(phi2)
        ok = ok and spl.from_steinberg(st) == phi2
    out.append(check("pseries-split-det", ok,
                     f"{len(dets)} det-twist characters, projector/section exact",
                     {**cert, "p_samples": cfg.trials}))

    asym = next((chi for chi in chars if not chi.is_symmetric()), None)
    if asym is not None:
        eig = bl.p_eigenvector_space(asym, lambda g: asym.value_upper(g)
                                     if in_subgroup(g, "P") else asym.field.one())
        in_kappa = [f for f in eig if ps.eval_at_identity(f).is_zero()
                    and not f.is_zero()]
        out.append(check("pseries-princinj-evidence", not in_kappa,
                         f"chi={asym!r}: {len(eig)} eigenvectors, none inside kappa",
                         cert))

    chi0 = TorusCharacter.trivial(Field(p))
    f = ps.random_ps_function(chi0, 2, rng)
    g = upper_u(p, 1) * t_mat(p)
    ok = ps.ps_act(g, f.refine(3)) == ps.ps_act(g, f).refine(4)
    out.append(check("pseries-level-coherence", ok,
                     "refine-then-act equals act-then-refine", cert))
    return out


def suite_generation(cfg: RunConfig):
    rng = random.Random(cfg.seed)
    w = cfg.the_weight()
    if w.is_character():
        raise UsageError("generation needs a non-character weight")
    model = bl.CindModel(w, ci.HeckeIdeal.parse(w.field, "T"),
                         r_max=max(ci.DEFAULT_R_MAX, 2 + 2 * cfg.word_length))
    rep = bl.p_generation_evidence(model, cfg.trials, cfg.r_target,
                                   cfg.word_length, rng,
                                   sample_radius=cfg.sample_radius)
    cert = {"p": cfg.p, "weight": list(cfg.weight), "r_target": cfg.r_target,
            "word_length": cfg.word_length, "trials": cfg.trials,
            "seed": cfg.seed, "target_dim": rep["target_dim"]}
    out = [check("generation-oracle-stable", rep["oracle_stable"],
                 f"target dim {rep['target_dim']} stable across windows", cert)]
    if rep["status"] == "insufficient depth":
        out.append(check("generation-covers", False,
                         "insufficient depth (word length 0)", cert,
                         inconclusive=True))
        return out
    dims = [t["span_dim"] for t in rep["per_trial"]]
    depths = [t["depth"] for t in rep["per_trial"]]
    detail = f"span dims {dims}, depths {depths}"
    missed = [(i, t) for i, t in enumerate(rep["per_trial"]) if not t["covers_ball"]]
    if missed:
        detail += "; missed the ball: " + "; ".join(
            f"trial {i} (start support {', '.join(t['start_support'])})"
            + (f", still growing at depth {t['depth']} with span dim {t['span_dim']}"
               if t["status"] == "inconclusive" else "") for i, t in missed)
    out.append(check("generation-covers", not missed, detail, cert, inconclusive=bool(missed)
                     and all(t["status"] == "inconclusive" for _, t in missed)))
    return out


def suite_hom_transfer(cfg: RunConfig):
    p = cfg.p
    out = []
    for case in ("supersingular", "sp_to_ind", "char_rigidity", "princ_endo"):
        rep = bl.hom_transfer_suite(case, p)
        detail = "; ".join(f"{c['name']}:{c['status']}" for c in rep["checks"])
        cert = {"p": p, "model": rep["model"]}
        if rep["status"] == "inconclusive":
            out.append(check(f"hom-{case.replace('_', '-')}", False, detail, cert,
                             inconclusive=True))
        else:
            out.append(check(f"hom-{case.replace('_', '-')}",
                             rep["status"] == "pass", detail, cert))
    return out


SUITES = {
    "identities": suite_identities,
    "weights": suite_weights,
    "hecke": suite_hecke,
    "recursion": suite_recursion,
    "lemma-s": suite_lemma_s,
    "pseries": suite_pseries,
    "generation": suite_generation,
    "hom-transfer": suite_hom_transfer,
}


def run_suites(cfg: RunConfig):
    if cfg.command == "all":
        checks = []
        for name in ("identities", "weights", "hecke", "recursion", "lemma-s",
                     "pseries", "generation", "hom-transfer"):
            sub = RunConfig(**{**asdict(cfg), "command": name})
            if name == "generation":
                sub.p, sub.weight = 2, (1, 0)
                sub.trials = min(cfg.trials, 10)
                sub = sub.validate()
            for c in SUITES[name](sub):
                c = dict(c)
                c["name"] = f"{name}:{c['name']}"
                checks.append(c)
        return checks
    return SUITES[cfg.command](cfg)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def _plain(x):
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def build_document(cfg: RunConfig, checks) -> dict:
    checks = _plain(checks)
    summary = {
        "pass": sum(1 for c in checks if c["status"] == "pass"),
        "fail": sum(1 for c in checks if c["status"] == "fail"),
        "inconclusive": sum(1 for c in checks if c["status"] == "inconclusive"),
    }
    return {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "config": _plain(cfg.echo()),
        "seed": cfg.seed,
        "checks": checks,
        "summary": summary,
    }


def emit_report(doc: dict, fmt: str = "json") -> bytes:
    """Serialize a report: sorted-key JSON (newline-terminated) or a
    human-readable text block with one check per line."""
    if fmt == "json":
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    lines = [f"# {doc['command']} (p={doc['config']['p']}, seed={doc['seed']})"]
    for c in doc["checks"]:
        line = f"{c['status'].upper():12s} {c['name']}"
        if c.get("details"):
            line += f" - {c['details']}"
        lines.append(line)
    s = doc["summary"]
    lines.append(f"summary: {s['pass']} passed, {s['fail']} failing, "
                 f"{s['inconclusive']} inconclusive")
    return ("\n".join(lines) + "\n").encode()


def exit_code_for(doc: dict) -> int:
    if doc["summary"]["fail"]:
        return 2
    if doc["summary"]["inconclusive"]:
        return 3
    return 0


def run_command(argv, stdout=None, stderr=None) -> int:
    """Execute a suite: report on stdout, timing on stderr, contractual exit
    code returned."""
    stdout = stdout if stdout is not None else sys.stdout.buffer
    stderr = stderr if stderr is not None else sys.stderr
    t0 = time.monotonic()
    try:
        cfg = parse_argv(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        print(USAGE, file=stderr)
        return 64
    try:
        checks = run_suites(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        print(USAGE, file=stderr)
        return 64
    doc = build_document(cfg, checks)
    stdout.write(emit_report(doc, cfg.format))
    try:
        stdout.flush()
    except AttributeError:
        pass
    print(f"completed in {time.monotonic() - t0:.2f}s", file=stderr)
    return exit_code_for(doc)


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
