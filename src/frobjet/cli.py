"""Command-line front end: tower inspection and verification suites.

``frobjet tower-info`` prints the ramified-tower data (minimal polynomial,
pole bound N, the action table of the family on pi and zeta, and the
monomial-independence witness).  ``frobjet verify SUITE`` runs one of the
bundled verification suites and emits a machine-readable JSON report; the
exit code is 0 when every check passes, 1 when a check fails, 2 on invalid
configuration and 3 on a bug: a ``CertificateFailure`` or any exception
outside ``FrobjetError`` and ``OSError``, whose traceback goes to stderr.
Reports are deterministic given (config, seed): no timestamps, sorted keys,
fixed iteration orders.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .characters import (PairingContext, RestrictedSeries, asd_check,
                         count_roots_zp, gm_character_eval, kernel_dimension,
                         pairing, reciprocity_check, strassman_count)
from .config import (find_curve, load_curve_catalog, parse_int,
                     tower_config_from_file)
from .crystal import count_points_ap, crystalline_classes, kedlaya_frobenius
from .errors import (CertificateFailure, ConfigError, FrobjetError,
                     SupersingularInput)
from .formal import formal_log
from .polyutils import floor_log
from .sertate import (load_relation_catalog, st_f_table,
                      verify_all_identities, verify_identity)
from .symbols import Symbol, gamma_matrix, pmatrix_rank_minors, sym_eval
from .tower import (INF, FrobeniusIndex, QElement, Tower, TowerConfig,
                    build_tower, frobenius_apply, log1p, n_of_pi_from)
from .words import check_monomial_independence


def _tower_from_args(args, default_config: TowerConfig) -> Tower:
    """The tower of the --config file, else ``default_config``; --precision,
    when given, replaces K."""
    cfg = (tower_config_from_file(args.config) if args.config
           else default_config)
    if args.precision is not None:
        cfg = replace(cfg, K=args.precision)
    return build_tower(cfg)


def _precision(args, default: int, floor: int) -> int:
    """--precision, else ``default``; a ConfigError below ``floor``, the
    least K at which the suite's checks still test a digit."""
    K = default if args.precision is None else args.precision
    if K < floor:
        raise ConfigError(
            f"--precision must be at least {floor} for this suite, not {K}")
    return K


def cmd_tower_info(args) -> dict:
    tower = _tower_from_args(
        args, TowerConfig(args.p, args.l, args.m, args.f, 12))
    cfg = tower.config
    gammas = tuple(parse_int(g, "--gammas") for g in args.gammas.split(","))
    if args.indep_order < 0:
        raise ConfigError(
            f"--indep-order must be at least 0, not {args.indep_order}")
    pi, zeta = tower.pi(), tower.zeta()
    table = {}
    for g in gammas:
        idx = FrobeniusIndex(g)
        table[str(g)] = {
            "pi": frobenius_apply(tower, idx, pi).to_dict()["coeffs"],
            "zeta": frobenius_apply(tower, idx, zeta).to_dict()["coeffs"],
        }
    ok, witness = check_monomial_independence(tower, gammas, args.indep_order)
    return {
        "command": "tower-info",
        "config": {"p": cfg.p, "l": cfg.l, "m": cfg.m, "f": cfg.f, "K": cfg.K},
        "pi_minimal_polynomial": f"x^{tower.e} - {tower.p}",
        "pole_bound_N": n_of_pi_from(tower.p, tower.e),
        "frobenius_table": table,
        "independence": {"gammas": list(gammas), "order": args.indep_order,
                         "independent": ok, "witness": witness},
        "pass": True,
    }


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_st_identities(args) -> dict:
    checks = []
    for rep in verify_all_identities():
        checks.append({
            "name": f"identity:{rep['relation']}",
            "pass": (rep["status"] == "zero"
                     and rep["swap_status"] == "zero"
                     and rep["c_homogeneous"]),
            "detail": rep,
        })
    # mutation control: a sign flip must leave a nonzero residual
    cat = load_relation_catalog()
    bad = json.loads(json.dumps(cat["cubic"]))
    bad["terms"][0][0] = "-1"
    rep = verify_identity("cubic", {**cat, "cubic": bad})
    checks.append({"name": "identity:cubic-sign-flip-control",
                   "pass": rep["status"] == "nonzero",
                   "detail": {"status": rep["status"]}})
    return _finish("st-identities", checks)


def suite_asd(args) -> dict:
    catalog = load_curve_catalog(args.catalog)
    labels = ([args.curve] if args.curve else
              ["5a-generic", "7a-generic", "11a-generic"])
    curves = [find_curve(catalog, label) for label in labels]
    mu = _word(args.mu, "--mu")
    nu = _word(args.nu, "--nu")
    nmax = args.nmax
    if nmax < 1:
        raise ConfigError(f"--nmax must be at least 1, not {nmax}")
    # asd_check needs 2 digits beyond the denominators p^(|mu| + v_p(N))
    K = _precision(args, 12, max(2 + len(mu) + floor_log(c.p, nmax)
                                 for c in curves))
    checks = []
    for label, curve in zip(labels, curves):
        p = curve.p
        tower = build_tower(TowerConfig(p, 2, 0, 1, K))
        drd = kedlaya_frobenius(curve, K)
        cc = crystalline_classes(drd, max(len(mu), len(nu)))
        log = formal_log(curve, p ** len(mu) * nmax + 2, K)
        fvals = {"ft_mu": tower.from_int(cc.f(mu)),
                 "ft_nu": tower.from_int(cc.f(nu)),
                 "f_mu_nu": tower.from_int(cc.f_pair(mu, nu))}
        gammas = (0,) * max(max(mu), max(nu))
        rep = asd_check(log, fvals, mu, nu, nmax, tower, gammas)
        checks.append({
            "name": f"asd:{label}:all-N",
            "pass": all(r["pass"] for r in rep),
            "detail": {"results": rep},
        })
        mutated = dict(fvals)
        mutated["ft_mu"] = fvals["ft_mu"] * 2
        repm = asd_check(log, mutated, mu, nu, nmax, tower, gammas)
        checks.append({
            "name": f"asd:{label}:mutation-control",
            "pass": any(not r["pass"] for r in repm),
            "detail": {"failures": sum(1 for r in repm if not r["pass"])},
        })
    return _finish("asd", checks)


def suite_gamma(args) -> dict:
    tower = _tower_from_args(args, TowerConfig(7, 2, 2, 2, 12))
    cfg = tower.config
    if not 1 <= args.threshold <= cfg.K:
        # 0 would make every minor vanish, and above K no entry has the digits
        raise ConfigError(
            f"--threshold must lie in 1..{cfg.K}, not {args.threshold}")
    gammas = (0, 1)
    beta = _parse_beta(tower, args.beta)
    table = st_f_table(tower, gammas, beta)
    mat = gamma_matrix(table, tower, precision=args.threshold)
    rank6, minors6 = pmatrix_rank_minors(mat, 6)
    checks = [{
        "name": "gamma:six-minors-vanish",
        "pass": all(m["vanishing"] for m in minors6),
        "detail": {"minors": minors6},
    }]
    ul5 = mat.submatrix(range(5), range(5)).det()
    v5 = ul5.valuation()
    checks.append({
        "name": "gamma:upper-left-5x5-nonvanishing",
        "pass": v5 != INF,
        "detail": {"valuation": None if v5 == INF else str(Fraction(v5))},
    })
    return _finish("gamma", checks, config={
        "tower": {"p": cfg.p, "l": cfg.l, "m": cfg.m, "f": cfg.f, "K": cfg.K},
        "beta": args.beta, "threshold": args.threshold})


def suite_pairing(args) -> dict:
    rng = random.Random(args.seed)
    tower = build_tower(TowerConfig(7, 2, 1, 1, _precision(args, 12, 2)))
    gammas = (0, 1)
    ctx = PairingContext(tower, gammas, (1, 1), (2, 1))
    checks = []
    ok_anti = True
    for _ in range(25):
        a = tower.random_element(rng)
        b = tower.random_element(rng)
        if not (pairing(ctx, a, b) + pairing(ctx, b, a)).is_zero():
            ok_anti = False
        swapped = PairingContext(tower, gammas, (2, 1), (1, 1))
        if not (pairing(ctx, a, b) + pairing(swapped, a, b)).is_zero():
            ok_anti = False
        if not pairing(ctx, a, a).is_zero():
            ok_anti = False
    checks.append({"name": "pairing:antisymmetry", "pass": ok_anti,
                   "detail": {"samples": 25}})

    kd = kernel_dimension(ctx, tower.pi())
    checks.append({
        "name": "pairing:kernel-dim-ramified-witness",
        "pass": kd["dimension"] == 1 and all(
            pairing(ctx, w, tower.pi()).is_zero() for w in kd["witnesses"]),
        "detail": {"dimension": kd["dimension"],
                   "pivot_valuations": kd["pivot_valuations"],
                   "certificate": kd["certificate"]},
    })
    ctx_eq = PairingContext(tower, (0, 0), (1, 1), (2, 2))
    kd_eq = kernel_dimension(ctx_eq, tower.from_int(7 * 3))
    checks.append({
        "name": "pairing:kernel-full-rational-beta",
        "pass": kd_eq["dimension"] == tower.f * tower.e,
        "detail": {"dimension": kd_eq["dimension"]},
    })
    ok_rec = True
    for _ in range(50):
        a = tower.pi() * tower.random_element(rng)
        b = tower.pi() * tower.random_element(rng)
        if not reciprocity_check(ctx, a, b):
            ok_rec = False
        if not pairing(ctx, a, a).is_zero():
            ok_rec = False
    checks.append({"name": "pairing:reciprocity", "pass": ok_rec,
                   "detail": {"samples": 50}})
    return _finish("pairing", checks, seed=args.seed)


def suite_gm(args) -> dict:
    rng = random.Random(args.seed)
    # additivity is checked to K - 4 digits: below K = 5 it tests nothing
    K = _precision(args, 16, 5)
    target = K - 4
    tower = build_tower(TowerConfig(7, 2, 1, 1, K))
    idx = FrobeniusIndex(1)
    checks = []
    ok_add = True
    worst = None
    for _ in range(100):
        x = tower.random_unit(rng)
        y = tower.random_unit(rng)
        d = gm_character_eval(tower, idx, x * y) - (
            gm_character_eval(tower, idx, x)
            + gm_character_eval(tower, idx, y))
        v = d.valuation()
        if v != INF and v < target:
            ok_add = False
            worst = str(Fraction(v))
    checks.append({"name": "gm:additivity", "pass": ok_add,
                   "detail": {"samples": 100, "precision": target,
                              "worst": worst}})
    ok_tors = True
    for k in range(tower.e):
        z = tower.zeta() ** k
        if not gm_character_eval(tower, idx, z).num.is_zero():
            ok_tors = False
    for _ in range(10):
        u = tower.teichmuller(tower.from_int(1 + rng.randrange(tower.p - 1)))
        if not gm_character_eval(tower, idx, u).num.is_zero():
            ok_tors = False
    checks.append({"name": "gm:torsion-vanishing", "pass": ok_tors,
                   "detail": {}})
    # two-route symbol check on 1-units: p * psi(x) = (p^(N+1)(phi - p))(log x).
    # psi itself applies phi - p to log x^(q-1) / (q - 1), so this compares
    # two log1p series, log x^(q-1) / (q - 1) against log x, not two
    # formulas for the character
    N = n_of_pi_from(tower.p, tower.e)
    scale = tower.p ** (N + 1)
    sym = (Symbol(tower, (0, 1),
                  {(2,): tower.from_int(scale)})
           - Symbol.scalar(tower, (0, 1), tower.from_int(scale * tower.p)))
    ok_sym = True
    for _ in range(20):
        x = tower.one() + tower.pi() * tower.random_element(rng)
        lx = log1p(x - 1)
        psi = gm_character_eval(tower, idx, x)
        route1 = QElement(psi.num * tower.p, psi.den)
        lhs = sym_eval(sym, lx.num)
        rhs = QElement(route1.num * tower.p ** lx.den, route1.den)
        if not (lhs - rhs).normalized().valuation() >= target - lx.den - 2:
            ok_sym = False
    checks.append({"name": "gm:symbol-two-route", "pass": ok_sym,
                   "detail": {"samples": 20}})
    return _finish("gm", checks, seed=args.seed)


def suite_strassman(args) -> dict:
    rng = random.Random(args.seed)
    p = 5
    checks = []
    ok_bound = True
    ok_split = True
    for trial in range(20):
        split = trial % 2 == 0
        nroots = rng.randrange(0, 4)
        roots = rng.sample([p * k for k in range(1, 12)], nroots)
        poly = [1]
        for r in roots:
            poly = _times_linear(poly, -r, 1)
        if not split:
            poly = _times_linear(poly, 1, p * rng.randrange(1, p))
        series = RestrictedSeries(p, poly, tail_valuation=25)
        bound, _ = strassman_count(series)
        found = count_roots_zp(series, depth=10)
        if found > bound:
            ok_bound = False
        if split and found != len(set(roots)):
            ok_split = False
    checks.append({"name": "strassman:bound-respected", "pass": ok_bound,
                   "detail": {"trials": 20}})
    checks.append({"name": "strassman:split-instances-exact",
                   "pass": ok_split, "detail": {}})
    s2 = RestrictedSeries(p, [-p, 0, 1], tail_valuation=9)
    b2, _ = strassman_count(s2)
    checks.append({"name": "strassman:valuation-obstruction",
                   "pass": b2 == 2 and count_roots_zp(s2) == 0,
                   "detail": {"bound": b2}})
    return _finish("strassman", checks, seed=args.seed)


def _times_linear(poly, a, b):
    """The integer coefficient list of poly * (a + b x)."""
    return [a * x + b * y for x, y in zip(poly + [0], [0] + poly)]


def suite_crystalline(args) -> dict:
    catalog = load_curve_catalog(args.catalog)
    # the classes carry K - 1 digits, every relation mod p^(K - 1)
    K = _precision(args, 10, 2)
    checks = []
    for curve in catalog:
        try:
            drd = kedlaya_frobenius(curve, K)
        except SupersingularInput:
            checks.append({"name": f"crystalline:{curve.label}:supersingular",
                           "pass": count_points_ap(curve) % curve.p == 0,
                           "detail": {}})
            continue
        p = curve.p
        cc = crystalline_classes(drd, 2)
        pk = p ** cc.prec
        a, b = drd.matrix[0]
        c, d = drd.matrix[1]
        good = {
            "trace": (a + d - drd.ap) % p ** K == 0,
            "det": (a * d - b * c - p) % p ** K == 0,
            "f11-relation": (cc.f("11") - drd.ap * cc.f("1")) % pk == 0,
            "f111-relation": (cc.f_pair("11", "1") - p * cc.f("1"))
                             % pk == 0,
            "unit-root": drd.unit_root() % p == drd.ap % p,
        }
        if curve.label == "5b-cm":
            good["canonical-lift-vanishing"] = cc.f("1") % pk == 0
        checks.append({"name": f"crystalline:{curve.label}",
                       "pass": all(good.values()),
                       "detail": {"ap": drd.ap, "checks": good}})
    return _finish("crystalline", checks)


def _parse_beta(tower, text: str):
    if text == "pi":
        return tower.pi()
    if text == "p":
        return tower.from_int(tower.p)
    if text.startswith("pi^"):
        k = parse_int(text[3:], "--beta")
        if k < 0:
            # pi is no unit, so no negative power of it lies in the ring
            raise ConfigError(f"--beta pi^k needs k >= 0, not {k}")
        return tower.pi() ** k
    return tower.from_int(parse_int(text, "--beta"))


def _word(text: str, flag: str) -> tuple:
    if not text:
        raise ConfigError(f"{flag} must be a nonempty word")
    return tuple(parse_int(ch, flag) for ch in text)


def _finish(suite: str, checks: list, **extra) -> dict:
    report = {"suite": suite, "version": __version__, "checks": checks,
              "pass": all(c["pass"] for c in checks)}
    report.update(extra)
    return report


# every flag a subcommand may take; each reads only the ones it lists
_FLAGS = {
    "--config": dict(default=None, help="key=value tower config"),
    "--out": dict(default=None, help="write the JSON report here"),
    "--seed": dict(type=int, default=20290),
    "--precision": dict(type=int, default=None),
    "--curve": dict(default=None, help="catalog label"),
    "--catalog": dict(default=None, help="curve catalog path"),
    "--mu": dict(default="11"),
    "--nu": dict(default="1"),
    "--nmax": dict(type=int, default=40),
    "--beta": dict(default="pi"),
    "--threshold": dict(type=int, default=8),
    "--p": dict(type=int, default=7),
    "--l": dict(type=int, default=2),
    "--m": dict(type=int, default=1),
    "--f": dict(type=int, default=1),
    "--gammas": dict(default="0,1"),
    "--indep-order": dict(type=int, default=3),
}

TOWER_INFO_FLAGS = ("--config", "--precision", "--p", "--l", "--m", "--f",
                    "--gammas", "--indep-order")

# suite name -> (function, the flags it reads)
SUITES = {
    "st-identities": (suite_st_identities, ()),
    "asd": (suite_asd, ("--catalog", "--curve", "--precision", "--mu",
                        "--nu", "--nmax")),
    "gamma": (suite_gamma, ("--config", "--precision", "--beta",
                            "--threshold")),
    "pairing": (suite_pairing, ("--seed", "--precision")),
    "gm": (suite_gm, ("--seed", "--precision")),
    "strassman": (suite_strassman, ("--seed",)),
    "crystalline": (suite_crystalline, ("--catalog", "--precision")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frobjet",
        description="Exact ramified-tower arithmetic and its verification "
                    "suites.")
    sub = ap.add_subparsers(dest="command", required=True)
    ti = sub.add_parser("tower-info", help="inspect a tower configuration")
    _add_flags(ti, TOWER_INFO_FLAGS)
    vf = sub.add_parser("verify", help="run a verification suite")
    suites = vf.add_subparsers(dest="suite", required=True)
    for name, (_, flags) in SUITES.items():
        _add_flags(suites.add_parser(name), flags)
    return ap


def _add_flags(parser, names):
    for name in ("--out",) + names:
        parser.add_argument(name, **_FLAGS[name])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tower-info":
            report = cmd_tower_info(args)
        else:
            report = SUITES[args.suite][0](args)
    except CertificateFailure:
        traceback.print_exc()
        return 3
    except (FrobjetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
