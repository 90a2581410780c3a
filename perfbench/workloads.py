"""The three benchmark workloads: seeded inputs, jobs and output checks.

A workload is a *round*: a fixed list of jobs that the runner repeats back
to back.  The seed draws the curve coefficients and the tower elements; the
mix (primes, precisions, degrees, tower configurations, sample counts) is
fixed by a :class:`Mix`, so a new seed changes the inputs but not the kind
of work.

Every job calls frobjet's public functions (``compute``) and then checks
what they returned (``check``).  A check is either an independent
computation made here, never by the program (the trace of Frobenius comes
from this module's own count of the pairs (x, y) in F_p^2), or a property
the method must have (additivity, antisymmetry, agreement of two routes).
``check`` returns the names of the checks that failed; a job fails when
that list is not empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from frobjet.characters import (PairingContext, asd_check, gm_character_eval,
                                kernel_dimension, pairing, reciprocity_check)
from frobjet.crystal import (count_points_ap, crystalline_classes,
                             kedlaya_frobenius)
from frobjet.errors import BetaTooLarge
from frobjet.formal import (WeierstrassCurve, compose_log_with_law,
                            formal_group_law, formal_log, log_jet, psi_series)
from frobjet.jets import JetRing, JetRingConfig, phi_endomorphism
from frobjet.sertate import (STRing, check_beta, psi_series_form,
                             psi_st_series, serre_operator, st_f_table,
                             verify_all_identities)
from frobjet.symbols import gamma_matrix, pmatrix_rank_minors
from frobjet.tower import INF, FrobeniusIndex, TowerConfig, build_tower

WORKLOADS = ("frobenius-catalog", "log-congruence", "ramified-characters")

# the word pair of the order-(2, 1) congruence and of the pairing checks
MU, NU = (1, 1), (1,)
# the 6x6 gamma minors must vanish mod p^(K - MINOR_MARGIN)
MINOR_MARGIN = 6


@dataclass(frozen=True)
class Mix:
    """Everything about a workload that the seed does not draw."""

    frob_primes: tuple
    frob_precisions: tuple      # two absolute precisions K per curve
    log_primes: tuple
    log_precision: int
    log_nmax: int               # formal_log runs to degree p^2 * nmax + 2
    law_degree: int             # formal_group_law / compose_log_with_law
    jet_degree: int             # base-p jet ring truncation for psi_series
    towers: tuple               # (p, l, m, f, K)
    gm_additivity_samples: int
    teichmuller_samples: int
    antisymmetry_samples: int
    reciprocity_samples: int
    st_degree: int              # STRing(5, 2, 2, st_degree)


FULL = Mix(
    frob_primes=(5, 7, 11), frob_precisions=(4, 6),
    log_primes=(5, 7, 11), log_precision=10, log_nmax=40, law_degree=24,
    jet_degree=36,
    towers=((7, 2, 1, 1, 16), (7, 2, 2, 2, 14), (7, 2, 3, 2, 30),
            (5, 2, 2, 1, 40)),
    gm_additivity_samples=3, teichmuller_samples=2, antisymmetry_samples=4,
    reciprocity_samples=4, st_degree=24)

# the same code paths at a fraction of the cost, for the benchmark's tests
SMALL = Mix(
    frob_primes=(5,), frob_precisions=(3, 4),
    log_primes=(5, 7), log_precision=8, log_nmax=8, law_degree=10,
    jet_degree=16,
    towers=FULL.towers,
    gm_additivity_samples=1, teichmuller_samples=1, antisymmetry_samples=2,
    reciprocity_samples=2, st_degree=12)


@dataclass
class Job:
    kind: str       # "frobenius", "log", "tower" or "sertate"
    label: str
    data: dict      # inputs, built once during set-up
    compute: Callable[[dict], dict]
    check: Callable[[dict, dict], list]

    def run(self) -> list:
        """Call the program, then check its outputs; returns failed checks."""
        return self.check(self.data, self.compute(self.data))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def affine_point_count(p: int, a4: int, a6: int) -> int:
    """#{(x, y) in F_p^2 : y^2 = x^3 + a4 x + a6}, by tabulating squares."""
    squares = [0] * p
    for y in range(p):
        squares[y * y % p] += 1
    return sum(squares[(x * x * x + a4 * x + a6) % p] for x in range(p))


def trace_of_frobenius(p: int, a4: int, a6: int) -> int:
    """a_p = p + 1 - #E(F_p), the point at infinity counted once."""
    return p - affine_point_count(p, a4, a6)


def random_ordinary_curve(rng: random.Random, p: int) -> tuple:
    """(a4, a6) with both nonzero mod p, good reduction and a_p a unit.

    Excluding a4 = 0 and a6 = 0 keeps every seed on the generic cost path
    (a curve with a6 = 0 costs about a third as much in Kedlaya's reduction).
    """
    while True:
        a4, a6 = rng.randrange(1, p), rng.randrange(1, p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
            continue
        if trace_of_frobenius(p, a4, a6) % p:
            return a4, a6


def smallest_admissible_pi_power(tower) -> int:
    """Least k with v(pi^k) > 1/(p - 1), as check_beta decides it."""
    k = 1
    while True:
        try:
            check_beta(tower, tower.pi() ** k)
            return k
        except BetaTooLarge:
            k += 1


# ---------------------------------------------------------------------------
# frobenius-catalog: Kedlaya's reduction at two precisions
# ---------------------------------------------------------------------------

def frobenius_compute(d: dict) -> dict:
    lo, hi = (kedlaya_frobenius(d["curve"], K) for K in d["precisions"])
    cc = crystalline_classes(hi, 2)
    return {"ap": hi.ap, "precisions": (lo.prec, hi.prec),
            "lo": [list(r) for r in lo.matrix],
            "hi": [list(r) for r in hi.matrix],
            "f1": cc.f("1"), "f11": cc.f("11"), "f11_1": cc.f_pair("11", "1"),
            "unit_root": hi.unit_root()}


def frobenius_check(d: dict, out: dict) -> list:
    p, ap = d["p"], d["ap"]
    k_lo, k_hi = d["precisions"]
    bad = []
    if tuple(out["precisions"]) != (k_lo, k_hi):
        bad.append("certified-precision")
    if out["ap"] != ap:
        bad.append("ap-matches-count")
    for name, K in (("lo", k_lo), ("hi", k_hi)):
        (a, b), (c, e) = out[name]
        if (a + e - ap) % p ** K:
            bad.append(f"trace-{name}")
        if (a * e - b * c - p) % p ** K:
            bad.append(f"det-{name}")
    if any((x - y) % p ** k_lo for r1, r2 in zip(out["lo"], out["hi"])
           for x, y in zip(r1, r2)):
        bad.append("precisions-agree")
    # F^2 - a_p F + p = 0 on H^1 gives both relations mod p^(K-1)
    pk = p ** (k_hi - 1)
    if (out["f11"] - ap * out["f1"]) % pk:
        bad.append("cayley-hamilton-f11")
    if (out["f11_1"] - p * out["f1"]) % pk:
        bad.append("cayley-hamilton-f11_1")
    u = out["unit_root"]
    if (u * u - ap * u + p) % p ** k_hi:
        bad.append("unit-root-equation")
    if (u - ap) % p:
        bad.append("unit-root-residue")
    return bad


def frobenius_jobs(rng: random.Random, mix: Mix) -> list:
    jobs = []
    for p in mix.frob_primes:
        a4, a6 = random_ordinary_curve(rng, p)
        data = {"p": p, "a4": a4, "a6": a6,
                "curve": WeierstrassCurve(p, a4, a6),
                "precisions": tuple(mix.frob_precisions),
                "ap": trace_of_frobenius(p, a4, a6)}
        jobs.append(Job("frobenius", f"p{p}", data, frobenius_compute,
                        frobenius_check))
    return jobs


# ---------------------------------------------------------------------------
# log-congruence: formal logarithm, ASD congruences, group law, jets
# ---------------------------------------------------------------------------

def log_compute(d: dict) -> dict:
    curve, tower, ring, K = d["curve"], d["tower"], d["ring"], d["precision"]
    p, nmax = d["p"], d["nmax"]
    ap = count_points_ap(curve)
    log = formal_log(curve, p * p * nmax + 2, K)
    classes = {"ft_mu": tower.from_int(ap), "ft_nu": tower.one(),
               "f_mu_nu": tower.from_int(p)}
    report = asd_check(log, classes, MU, NU, nmax, tower, (0,))
    wrong = dict(classes, ft_mu=tower.from_int(ap + 1))
    wrong_report = asd_check(log, wrong, MU, NU, 1, tower, (0,))
    law = formal_group_law(curve, d["law_degree"], K)
    residual, dmax = compose_log_with_law(log, law, d["law_degree"])
    _, integrality = psi_series(classes["ft_mu"], classes["ft_nu"],
                                classes["f_mu_nu"], MU, NU, log, ring)
    # phi_1 must be a ring endomorphism of the jet ring psi_series lives in
    lj = log_jet(log, ring)
    phi_of_square = phi_endomorphism(ring, 1, lj * lj)
    phi_lj = phi_endomorphism(ring, 1, lj)
    return {"ap": ap, "log_prec": log.prec, "b1": log.b[1],
            "report": report, "wrong_report": wrong_report,
            "residual": residual, "dmax": dmax, "integrality": integrality,
            "phi_of_square": phi_of_square, "square_of_phi": phi_lj * phi_lj}


def log_check(d: dict, out: dict) -> list:
    p = d["p"]
    bad = []
    if out["ap"] != d["ap"]:
        bad.append("ap-matches-count")
    if out["log_prec"] < d["precision"]:
        bad.append("certified-precision")
    if out["b1"] != 1:
        bad.append("b1-normalized")
    rep = out["report"]
    if len(rep) != d["nmax"] or not all(
            r["pass"] and r["certificate"] >= 2 for r in rep):
        bad.append("asd-every-N")
    if out["wrong_report"][0]["pass"]:
        bad.append("asd-rejects-ap-plus-one")
    if any(v % p ** out["dmax"] for v in out["residual"].values()):
        bad.append("log-homomorphism")
    if not out["integrality"] or not all(out["integrality"].values()):
        bad.append("psi-integral")
    lhs, rhs = out["phi_of_square"], out["square_of_phi"]
    if (lhs.den != rhs.den or lhs.terms.keys() != rhs.terms.keys()
            or any(lhs.terms[m] != rhs.terms[m] for m in lhs.terms)):
        bad.append("phi-multiplicative")
    return bad


def log_jobs(rng: random.Random, mix: Mix) -> list:
    jobs = []
    for p in mix.log_primes:
        a4, a6 = random_ordinary_curve(rng, p)
        tower = build_tower(TowerConfig(p, 2, 0, 1, mix.log_precision))
        ring = JetRing(JetRingConfig(tower, 1, 2, mix.jet_degree, (0,)))
        # fill the lazy pi-power cache now, so that every round does the
        # same work
        ring.pi_pow(mix.jet_degree)
        data = {"p": p, "a4": a4, "a6": a6,
                "curve": WeierstrassCurve(p, a4, a6), "tower": tower,
                "ring": ring, "precision": mix.log_precision,
                "nmax": mix.log_nmax, "law_degree": mix.law_degree,
                "ap": trace_of_frobenius(p, a4, a6)}
        jobs.append(Job("log", f"p{p}", data, log_compute, log_check))
    return jobs


# ---------------------------------------------------------------------------
# ramified-characters: tower characters, pairings, kernels, minors, sertate
# ---------------------------------------------------------------------------

def tower_compute(d: dict) -> dict:
    tower, idx, ctx = d["tower"], d["idx"], d["ctx"]

    def gm(x):
        return gm_character_eval(tower, idx, x)

    pi = tower.pi()
    kd = kernel_dimension(ctx, pi)
    kd_rational = kernel_dimension(d["ctx_equal"], d["rational_beta"])
    mat = gamma_matrix(st_f_table(tower, d["gammas"], d["beta"]), tower,
                       precision=d["threshold"])
    _, minors = pmatrix_rank_minors(mat, 6)
    return {
        "additivity": [(gm(x), gm(y), gm(x * y)) for x, y in d["units"]],
        "torsion": [gm(z) for z in d["torsion"]],
        "antisymmetry": [(pairing(ctx, a, b), pairing(ctx, b, a),
                          pairing(ctx, a, a)) for a, b in d["pairs"]],
        "reciprocity": [reciprocity_check(ctx, a, b)
                        for a, b in d["small_pairs"]],
        "witness_pairings": [pairing(ctx, w, pi) for w in kd["witnesses"]],
        "rational_dimension": kd_rational["dimension"],
        "minors": minors,
        "upper_left_5": mat.submatrix(range(5), range(5)).det(),
    }


def tower_check(d: dict, out: dict) -> list:
    tower = d["tower"]
    target = tower.K - 4
    bad = []
    for gx, gy, gxy in out["additivity"]:
        diff = gxy - (gx + gy)
        v = diff.valuation()
        if diff.certified_precision() < target or not (v == INF or v >= target):
            bad.append("gm-additive")
            break
    if not all(g.num.is_zero() for g in out["torsion"]):
        bad.append("gm-kills-torsion")
    if not all((ab + ba).is_zero() and aa.is_zero()
               for ab, ba, aa in out["antisymmetry"]):
        bad.append("pairing-antisymmetric")
    if not all(out["reciprocity"]):
        bad.append("reciprocity")
    if not out["witness_pairings"] or not all(
            w.is_zero() for w in out["witness_pairings"]):
        bad.append("kernel-witnesses")
    if out["rational_dimension"] != tower.f * tower.e:
        bad.append("rational-beta-full-kernel")
    if len(out["minors"]) != 7 or not all(
            m["vanishing"] for m in out["minors"]):
        bad.append("six-minors-vanish")
    v5 = out["upper_left_5"].valuation()
    if v5 == INF or v5 >= d["threshold"]:
        bad.append("upper-left-5x5-nonzero")
    return bad


def sertate_compute(d: dict) -> dict:
    ring = d["ring"]
    form = [psi_series_form(ring, i, 1) for i in (1, 2)]
    st = [psi_st_series(ring, i) for i in (1, 2)]
    serre = {(mu, i): serre_operator(ring, (mu,), st[i - 1])
             for mu in (1, 2) for i in (1, 2)}
    return {"form": form, "st": st, "serre": serre,
            "identities": verify_all_identities()}


def sertate_check(d: dict, out: dict) -> list:
    ring = d["ring"]
    low = ring.D - ring.p  # products with 1 + T^p are exact below this
    bad = []
    if any(f.terms != s.terms for f, s in zip(out["form"], out["st"])):
        bad.append("two-routes-agree")
    for (mu, i), series in out["serre"].items():
        expect = {(): 1} if mu == i else {}
        got = {m: c for m, c in series.terms.items() if sum(e for _, e in m)
               <= low}
        if got != expect:
            bad.append(f"serre-{mu}-on-psi{i}")
    if len(out["identities"]) != d["identities"] or not all(
            r["status"] == "zero" and r["swap_status"] == "zero"
            and r["c_homogeneous"] for r in out["identities"]):
        bad.append("identities-reduce-to-zero")
    return bad


def ramified_jobs(rng: random.Random, mix: Mix) -> list:
    jobs = []
    for cfg in mix.towers:
        tower = build_tower(TowerConfig(*cfg))
        k = smallest_admissible_pi_power(tower)
        beta = tower.pi() ** k
        p = tower.p
        units = [(tower.random_unit(rng), tower.random_unit(rng))
                 for _ in range(mix.gm_additivity_samples)]
        torsion = [tower.zeta() ** j for j in range(tower.e)] + [
            tower.teichmuller(tower.from_int(rng.randrange(1, p)))
            for _ in range(mix.teichmuller_samples)]
        pairs = [(tower.random_element(rng), tower.random_element(rng))
                 for _ in range(mix.antisymmetry_samples)]
        small_pairs = [(beta * tower.random_element(rng),
                        beta * tower.random_element(rng))
                       for _ in range(mix.reciprocity_samples)]
        unit = rng.randrange(1, p) + p * rng.randrange(p)
        data = {
            "tower": tower, "idx": FrobeniusIndex(1), "gammas": (0, 1),
            "ctx": PairingContext(tower, (0, 1), MU, (2, 1)),
            "ctx_equal": PairingContext(tower, (0, 0), MU, (2, 2)),
            "rational_beta": tower.from_int(p * unit), "beta": beta,
            "threshold": tower.K - MINOR_MARGIN,
            "units": units, "torsion": torsion, "pairs": pairs,
            "small_pairs": small_pairs,
        }
        jobs.append(Job("tower", "-".join(map(str, cfg)), data,
                        tower_compute, tower_check))
    st = {"ring": STRing(5, 2, 2, mix.st_degree), "identities": 14}
    jobs.append(Job("sertate", f"D{mix.st_degree}", st, sertate_compute,
                    sertate_check))
    return jobs


_ROUND_FACTORIES = {"frobenius-catalog": frobenius_jobs,
             "log-congruence": log_jobs,
             "ramified-characters": ramified_jobs}


def prepare(workload: str, seed: int, mix: Mix = FULL) -> list:
    """The round of jobs for ``workload``, with inputs drawn from ``seed``."""
    return _ROUND_FACTORIES[workload](random.Random(seed), mix)


def describe(jobs: list) -> list:
    """The seed-independent shape of a round: job kinds and labels."""
    return [(job.kind, job.label) for job in jobs]
