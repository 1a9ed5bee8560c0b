import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl2borel.clireport import (
    RunConfig,
    UsageError,
    build_document,
    check,
    emit_report,
    exit_code_for,
    parse_argv,
    run_command,
)
from gl2borel.fqweights import Weight, intertwiner_dimension

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("WORKBENCH_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gl2borel", *args],
        capture_output=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(*args):
    out = io.BytesIO()
    err = io.StringIO()
    code = run_command(list(args), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_defaults_and_flags():
    cfg = parse_argv(["identities", "--p", "5", "--trials", "20", "--seed", "9"])
    assert (cfg.p, cfg.trials, cfg.seed) == (5, 20, 9)
    cfg = parse_argv(["hecke", "--weight", "2,1", "--ideal", "T^2"])
    assert cfg.weight == (2, 1) and cfg.ideal == "T^2"


def test_parse_errors():
    for argv in (
        [],
        ["frobnicate"],
        ["identities", "--p", "4"],
        ["identities", "--p"],
        ["identities", "--bogus", "1"],
        ["hecke", "--p", "7", "--weight", "9,0"],
        ["hecke", "--weight", "1"],
        ["identities", "--trials", "x"],
        ["pseries", "--char", "0,0,0,1"],
        ["recursion", "--ideal", "Q"],
        ["identities", "--format", "xml"],
    ):
        with pytest.raises(UsageError):
            parse_argv(argv)


def test_env_seed_default():
    code, out, _ = run_cli("recursion", "--p", "3", "--trials", "1",
                           env_extra={"WORKBENCH_SEED": "123"})
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 123


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"p": 3, "trials": 7, "seed": 4}))
    cfg = parse_argv(["identities", "--config", str(cfgfile), "--trials", "9"])
    assert cfg.p == 3 and cfg.trials == 9 and cfg.seed == 4
    with pytest.raises(UsageError):
        parse_argv(["identities", "--config", str(tmp_path / "missing.json")])


def test_exit_codes_synthesized():
    cfg = RunConfig(command="identities").validate()
    doc = build_document(cfg, [check("a", True)])
    assert exit_code_for(doc) == 0
    doc = build_document(cfg, [check("a", True), check("b", False)])
    assert exit_code_for(doc) == 2
    doc = build_document(cfg, [check("a", True), check("b", False, inconclusive=True)])
    assert exit_code_for(doc) == 3
    doc = build_document(cfg, [check("a", False), check("b", False, inconclusive=True)])
    assert exit_code_for(doc) == 2
    doc = build_document(cfg, [])
    assert exit_code_for(doc) == 0


def test_emit_report_deterministic_bytes():
    cfg = RunConfig(command="identities", seed=1).validate()
    doc = build_document(cfg, [check("a", True, "detail")])
    assert emit_report(doc) == emit_report(doc)
    assert emit_report(doc).endswith(b"\n")
    parsed = json.loads(emit_report(doc))
    assert parsed["summary"]["pass"] == 1


def test_emit_report_empty_checks():
    cfg = RunConfig(command="identities").validate()
    doc = build_document(cfg, [])
    parsed = json.loads(emit_report(doc))
    assert parsed["checks"] == []


def test_text_format_fail_marker_once_per_failing_check():
    cfg = RunConfig(command="identities").validate()
    doc = build_document(cfg, [check("good", True), check("bad-one", False),
                               check("bad-two", False),
                               check("maybe", False, inconclusive=True)])
    text = emit_report(doc, "text").decode()
    assert text.count("FAIL") == 2
    assert text.count("PASS") == 1
    assert text.count("INCONCLUSIVE") == 1


def test_cli_usage_exit_64(tmp_path):
    code, out, err = run_inproc("hecke", "--p", "7", "--weight", "9,0")
    assert code == 64 and out == b"" and "usage" in err
    code, _, err = run_inproc("nonsense")
    assert code == 64 and "usage" in err
    # malformed config files: a list at top level, wrongly typed weight/char,
    # and numbers that are not integers (never truncated to one)
    for i, content in enumerate(('[1, 2]', '{"weight": 5}', '{"char": [0, null, 1, 1]}',
                                 '{"trials": 2.7}', '{"weight": [1.9, 0]}',
                                 '{"seed": false}', '{"weight": {"1": 0, "0": 2}}')):
        cfgfile = tmp_path / f"bad{i}.json"
        cfgfile.write_text(content)
        code, out, err = run_inproc("identities", "--trials", "1", "--config", str(cfgfile))
        assert code == 64 and out == b"" and "usage" in err, content
    # flags no suite reads are rejected unless left at their defaults
    for flag, value in (("--fieldk", "2"), ("--char", "1,0,1,1"), ("--level", "3")):
        code, out, err = run_inproc("pseries", "--trials", "1", flag, value)
        assert code == 64 and out == b"" and flag in err and "usage" in err
    code, _, _ = run_inproc("identities", "--trials", "1", "--fieldk", "1",
                            "--char", "0,0,1,1", "--level", "2")
    assert code == 0


def test_cli_runs_and_exit_zero():
    code, out, err = run_inproc("identities", "--p", "3", "--trials", "10", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert "trix-identity" in names
    assert "restP-conjugation" in names
    assert "bruhat-roundtrip" in names
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert "completed in" in err


def test_cli_recursion_reports_n():
    code, out, _ = run_inproc("recursion", "--p", "3", "--weight", "1,0",
                              "--ideal", "T", "--bound", "10")
    assert code == 0
    doc = json.loads(out)
    rec = next(c for c in doc["checks"] if c["name"] == "recursion-terminates")
    assert rec["certification"]["n"] == 1
    assert "n = 1" in rec["details"]


def test_cli_recursion_budget_stop_is_inconclusive():
    # in c-Ind/(T - 1) at p = 2 the fifth iterate has radius 5, past R_max = 4,
    # before any iterate is zero in the quotient: the truncation stops the run
    code, out, err = run_inproc("recursion", "--p", "2", "--ideal", "T-1")
    assert code == 3, err
    doc = json.loads(out)
    assert doc["summary"] == {"pass": 0, "fail": 0, "inconclusive": 1}
    [rec] = doc["checks"]
    assert rec["name"] == "recursion-terminates" and rec["status"] == "inconclusive"
    assert rec["details"].startswith("budget: truncation too small: radius 5 exceeds R_max=4")
    assert rec["details"].endswith("; iterate 5 reached radius 5")
    assert rec["certification"]["radius_reached"] == 5


def test_cli_determinism_bytes():
    """Identical (config, seed) produce byte-identical reports."""
    _, out1, _ = run_inproc("identities", "--p", "3", "--trials", "25", "--seed", "5")
    _, out2, _ = run_inproc("identities", "--p", "3", "--trials", "25", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_inproc("identities", "--p", "3", "--trials", "25", "--seed", "6")
    assert out1 != out3


def test_cli_inconclusive_exit_3():
    code, out = io.BytesIO(), io.StringIO()
    rc = run_command(["generation", "--p", "2", "--weight", "1,0",
                      "--word-length", "0", "--trials", "1"],
                     stdout=code, stderr=out)
    assert rc == 3
    doc = json.loads(code.getvalue())
    assert doc["summary"]["inconclusive"] == 1 and doc["summary"]["fail"] == 0


def test_cli_generation_names_missed_trials():
    """A generation-covers check that misses the ball names each trial that
    missed it, its start vector's support and, for a trial cut off by the
    word length while its span still grew (inconclusive, exit 3), the depth
    and span dim it reached; a passing one keeps the plain detail."""
    base = ["generation", "--p", "2", "--trials", "3"]
    rc, out, _ = run_inproc(*base, "--sample-radius", "1", "--word-length", "1")
    assert rc == 3
    covers = json.loads(out)["checks"][1]
    assert covers["status"] == "inconclusive"
    detail = covers["details"]
    assert detail.startswith("span dims [5, 3, 5], depths [1, 1, 1]")
    _, missed = detail.split("; missed the ball: ")
    assert missed.startswith("trial 0 (start support V(d=0, a=0)")
    assert "), still growing at depth 1 with span dim 3; trial 2 (start support V(" in missed
    rc, out, _ = run_inproc(*base, "--word-length", "2")
    assert rc == 0
    assert "missed" not in json.loads(out)["checks"][1]["details"]


def test_cli_in_subprocess():
    code, out, err = run_cli("weights", "--p", "2", "--format", "text")
    assert code == 0, err.decode()
    assert b"PASS" in out


# SHA-256 of stdout and the exit code of each command, recorded before the
# principal-series tables were compiled with integer arithmetic (`all --p 3`:
# before every solve moved onto one elimination loop): a faster or smaller
# path must leave every report byte as it was.  The two p=5 compact-induction
# reports were recorded before tree vertices were translated in integer
# arithmetic; they are the only pins that move vertices at p=5.  The p=3
# `recursion --ideal T^2` pin, the one degree-2 ideal at p=3, was recorded
# before the Hecke operator was built from per-vertex block columns.  The
# `hom-transfer --p 3` pin was recorded before `princ_endo` was solved on
# orbit commutants; `hom-transfer --p 5` first finished with that change, so
# its pin comes from it.  The two `lemma-s` pins and the `recursion --p 3
# --ideal T-1` pin (a truncation stop, exit 3) were recorded while quotient
# membership was still a dense solve over the whole ball with a re-check at
# radius R + 1, before it was decided sphere by sphere.  The three
# `generation` pins were recorded while the generation evidence still applied
# every generator to every word up to the word length, before it grew the
# span by spin-up; `--p 3 --trials 20` (its phi-line trials) and `--p 3
# --trials 4 --sample-radius 1 --word-length 3` were re-recorded, exit 2 -> 3,
# when a trial that reaches the word length still growing became inconclusive
# instead of failing, and only their `generation-covers` check changed.
# `all --p 5 --trials 20` and `generation --p 2 --trials 10 --sample-radius 1`
# (both run in CI) were recorded while c-Ind elements still held FieldElem
# coefficients, before they were held as code tuples.  The `weights --p 7`
# pin, the one that induces from the Iwahori above p=5, was recorded while
# Ind_I^K chi still had coset arithmetic of its own, before it was read off
# the level-1 principal-series tables.  `generation --p 5 --trials 2`, the one
# pin whose quotient frames reach radius 5 at p=5, was recorded while those
# frames were still ranked against the rref of the ball-wide ideal matrix,
# before they were read off the sphere-by-sphere normal form.
# `generation --p 3 --trials 20 --word-length 6` (every trial covers) and
# `generation --p 5 --trials 20` (inconclusive trials at p=5) were recorded
# while spans still grew one vector at a time, before one batched
# IncrementalSpan.add picked the rows that enlarge a span.
REPORT_DIGESTS = {
    ("pseries", "--p", "2", "--trials", "20"):
        (0, "45c4f661046001bf16cfed5c2d699bc155a310bd1f93d8c16c237bbf547d56b4"),
    ("pseries", "--p", "3", "--trials", "20"):
        (0, "a20172d112e5e8e2dbe66d2c5532780d5d47a7a76bf0928972d10fed554173fb"),
    ("hom-transfer", "--p", "2"):
        (0, "a9c1287420008f3841cd9f92600404c8ca3e1ce7c722a89b79b787d47fd6bfbf"),
    ("hom-transfer", "--p", "3"):
        (0, "446b86efdebcfa60e67a324cebf9d376ceec228ef993d095665006fd8221b572"),
    ("hom-transfer", "--p", "5"):
        (0, "0c330e5f3e2f77e9f6888b2909b51567d204ac499c70693d0454d671860d6521"),
    ("all", "--p", "2"):
        (0, "7d29e58edef5469ce2f9af6c1382c262d5b1b0387e6e484827ecd7e903152c88"),
    ("all", "--p", "3"):
        (0, "8a07303f4b2ea1d57994b59e80bfcbb88e94c75e18ba01474c5cbed664cf500d"),
    ("hecke", "--p", "5", "--trials", "20"):
        (0, "03363e4c0871f0aeb0c0db4eae249940db18529e4643ff849e1432a271b0a50b"),
    ("recursion", "--p", "5", "--ideal", "T^2"):
        (0, "5bdea606e3f0175d3493afd94a6f7e1569bc5f1b3b34114cc75d0ba26caeb8b6"),
    ("recursion", "--p", "3", "--ideal", "T^2"):
        (0, "914456759caf006382e38dcf6f6e56165e2b6abb5c6d269a2acea30bd8155a08"),
    ("identities", "--p", "5", "--trials", "50"):
        (0, "12d2cc5b42c94c94bf1f15cca44f159f418618c597e44d761b61b22c5dc4031a"),
    ("identities", "--p", "13", "--trials", "50"):
        (0, "c0f32ec80cc14e1d53106b492700629723e49f2779ccb67bc400105a791adb2b"),
    ("lemma-s", "--p", "5", "--trials", "20"):
        (0, "702fc787c1e896500a9791f360f7579070b8ddf1512305b0da0bc795d96f922f"),
    ("recursion", "--p", "3", "--ideal", "T-1"):
        (3, "69479240311a0d9071014bbd6b8eecffbe4a3784a61cd5e90c75279aae70d183"),
    ("lemma-s", "--p", "3"):
        (0, "65efa1261bf71b891a8d26726075f6eed7828fcba80579bd79adeee8799b1b37"),
    ("generation", "--p", "3", "--trials", "20"):
        (3, "c729b1a93a8f9973ad9de0ce1401773321daaadfa3b1273a4be2f69b41a780d8"),
    ("generation", "--p", "2", "--trials", "5", "--sample-radius", "1",
     "--word-length", "4"):
        (0, "3b53f11f85f548fa4a55d4f961b32c54dc1e7f6660a0d65c9a3f34a4f536aca9"),
    ("generation", "--p", "3", "--trials", "4", "--sample-radius", "1",
     "--word-length", "3"):
        (3, "3d11aec39ebbebaf1374a873fafb219d0b4f28d9064fc59958a91aa5f33f95c0"),
    ("all", "--p", "5", "--trials", "20"):
        (0, "1b6052776fc2e94b5cec40024395f35478b0db8524ccfa1f55cacd360f0a8937"),
    ("generation", "--p", "2", "--trials", "10", "--sample-radius", "1"):
        (0, "41ecfefb667b0560792e1eab59f483e62f9c05d19f248ee85562a7b4fee4b687"),
    ("weights", "--p", "7"):
        (0, "aef93274d45152946496cafcfa108a80eb59bdf8caaeefb1073a714a184d786a"),
    ("generation", "--p", "5", "--trials", "2"):
        (0, "5522331c602f178433ec1591e1b48ff8944028b6441a06d23f5b16aaae74d234"),
    ("generation", "--p", "3", "--trials", "20", "--word-length", "6"):
        (0, "2a762c05e92e14abd6189998f424cc6823e89268bf7e56d9253fba94878a854e"),
    ("generation", "--p", "5", "--trials", "20"):
        (3, "9fc3772ef64eaacfdb206b146098d57b1c9d5b5e98586f415f2b794e357f1a5b"),
    # the character values of the principal-series tables through the
    # exp/log tables at q - 1 = 4 and q - 1 = 12
    ("pseries", "--p", "5", "--trials", "20"):
        (0, "6f5396c69e578dad01db8460d23c650121844f68b131c0a63b965ab82da78180"),
    ("pseries", "--p", "13", "--trials", "20"):
        (0, "70060f3f6fd84377710704af334e788dd6cfb25e7b3263484da527acd31ee1f3"),
}


def _weights_solves(p, monkeypatch):
    """Run suite_weights at p; return its checks by name and the set of
    weight pairs ((r, m), (r', m')) whose intertwiners it solved."""
    import gl2borel.clireport as cr

    keys = {}
    for r in range(p):
        for m in range(max(p - 1, 1)):
            gens = Weight(p, r, m).k_module().gens
            keys[tuple((k, v.tobytes()) for k, v in sorted(gens.items()))] = (r, m)
    solved = []

    def recording(field, gens1, gens2, dim1, dim2):
        solved.append(tuple(keys[tuple((k, v.tobytes()) for k, v in sorted(g.items()))]
                            for g in (gens1, gens2)))
        return intertwiner_dimension(field, gens1, gens2, dim1, dim2)

    monkeypatch.setattr(cr, "intertwiner_dimension", recording)
    checks = {c["name"]: c["status"] for c in cr.suite_weights(parse_argv(["weights", "--p", str(p)]))}
    return checks, set(solved)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_weights_distinct_solves_only_colliding_fixed_lines(p, monkeypatch):
    """weights-distinct solves exactly the pairs whose I1-fixed lines have
    equal exponents (r + m, m) mod p - 1; the full pairwise solve finds no
    intertwiner for any other pair, so the shortcut and the full solve give
    the same verdict."""
    n = max(p - 1, 1)
    weights = [Weight(p, r, m) for r in range(p) for m in range(n)]
    mods = [w.k_module() for w in weights]
    full = {}
    for i, (w1, mod1) in enumerate(zip(weights, mods)):
        for w2, mod2 in zip(weights[i + 1:], mods[i + 1:]):
            full[(w1.r, w1.m), (w2.r, w2.m)] = intertwiner_dimension(
                w1.field, mod1.gens, mod2.gens, w1.dim, w2.dim)
    colliding = {(a, b) for a, b in full
                 if ((a[0] + a[1]) % n, a[1]) == ((b[0] + b[1]) % n, b[1])}
    checks, solved = _weights_solves(p, monkeypatch)
    assert checks["weights-fixed-line"] == checks["weights-irreducible"] == "pass"
    assert solved == colliding
    assert len(colliding) == (p - 1 if p > 2 else 1)
    assert all(d == 0 for pair, d in full.items() if pair not in colliding)
    assert (checks["weights-distinct"] == "pass") == all(d == 0 for d in full.values())


@pytest.mark.parametrize("broken", ["fixed-line", "irreducible"])
def test_weights_distinct_solves_every_pair_when_a_premise_fails(broken, monkeypatch):
    """If weights-fixed-line or weights-irreducible fails, the exponent
    argument does not hold, and weights-distinct solves every pair."""
    import gl2borel.clireport as cr
    from types import SimpleNamespace

    p = 3
    if broken == "fixed-line":
        real = Weight.i1_fixed_line
        monkeypatch.setattr(Weight, "i1_fixed_line", lambda w: (
            real(w)[0], (0, 0) if (w.r, w.m) == (1, 1) else real(w)[1]))
    else:
        monkeypatch.setattr(cr, "is_irreducible",
                            lambda mod: SimpleNamespace(status="reducible", detail="-"))
    checks, solved = _weights_solves(p, monkeypatch)
    assert checks[f"weights-{broken}"] == "fail"
    count = p * (p - 1)
    assert len(solved) == count * (count - 1) // 2


@pytest.mark.parametrize("args", list(REPORT_DIGESTS), ids=" ".join)
def test_cli_report_bytes_unchanged(args):
    code, out, _ = run_cli(*args)
    assert (code, hashlib.sha256(out).hexdigest()) == REPORT_DIGESTS[args]
