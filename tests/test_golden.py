"""Byte-level pins of reports and series against recorded sha256 digests.

The digests were recorded before the jet and Serre-Tate series started to
share one multiply and one prolongation, and (for the crystalline and asd
reports) before Kedlaya's reduction moved from Fractions to Z/p^M; any change
in what those produce, down to term order after sorting or a certified
precision, shows up here.
"""

import hashlib
import json

import pytest

from frobjet.cli import main
from frobjet.formal import WeierstrassCurve, formal_log, log_jet, psi_series
from frobjet.jets import JetRing, JetRingConfig, phi_endomorphism, phi_word
from frobjet.sertate import (STRing, psi_series_form, psi_st_series,
                             serre_operator)
from frobjet.tower import TowerConfig, build_tower

REPORTS = {
    ("verify", "st-identities"):
        "d2db37d7a484539b6bb37117cd97adbddc057360e9809e33afea912f4cb02b70",
    ("verify", "gamma"):
        "6b950ba4855132758d71bce500e2d193d536a0b83764bcae215e977cbb15eb46",
    ("verify", "pairing"):
        "6ea2eed10a30dfc8644f883b09404d269ef94e4465b95eec6cec636f7e3a413f",
    ("verify", "gm"):
        "65b37fede33c9754493f281f96057582d622b91f9dcf0b54f3d16f5b5bf991ad",
    ("verify", "strassman"):
        "dd96e76d9928591c6b84a3b22f69396ee15fe3199a8992983c4038cb26dc6b66",
    ("verify", "crystalline"):
        "a808565673c5d9dbb84fb620800515c710b151c211643d3e78ca39dfc20cfc2c",
    ("verify", "asd"):
        "68cd6a3c6629bb22d073c076551a06b9a65aaa543a7d612ae0d40acc41342a42",
    ("tower-info", "--m", "3", "--f", "2", "--precision", "20"):
        "32887126149dc0c1e0f5beb80729db39b0a32c9c25d722a830035fc550e6567d",
}

ST_SERIES = {
    "psi_st_series 1":
        "27c3a8e83bafaad4a5ffda9ea0bb67f984903b78959337dca636168ee215cc0e",
    "psi_st_series 2":
        "9e598fba608fd205da25b640a9b30f07c1e972d7b6ff53db01beb0e863482542",
    "psi_series_form 1 1":
        "27c3a8e83bafaad4a5ffda9ea0bb67f984903b78959337dca636168ee215cc0e",
    "psi_series_form 2 1":
        "9e598fba608fd205da25b640a9b30f07c1e972d7b6ff53db01beb0e863482542",
    "psi_series_form 1 0":
        "3971373c07e64187c606923386e03b2f7cac9af9c32a3a3e0aae5942b099e2c2",
    "psi_series_form 2 0":
        "3d7e3a06650731b3a19ba5a7b27e2f9d7140549cfde0b76966e7b05c7bc9a104",
    "serre_operator 1":
        "e4dc9eb93cc5a5f4c85ec553a423fda510bb43b260d7119271ec92497cac12a8",
    "serre_operator 2":
        "bcd9165597268be37750bb36c8bbea753f399eff5e7098bf1b0f7dae8bd267dd",
    "serre_operator 12":
        "fec7617dec6d11356d262d3f6dc135b056843c10b635b75578028e977177d0b7",
    "serre_operator 21":
        "2bf746b586e7e662fe911f6dd3cd364564d731df3e3535f545417558f8b77aff",
}

JETS = {
    "psi_series":
        "21e740bab932d31d20b2bd17b6eaf76bcb803582726cfa7b3c9d12ec69406971",
    "phi_endomorphism 1":
        "50f0cddda8ed4169945a7376dbc111845c0917cde1eb67ffc989718c2e5e40a4",
    "phi_endomorphism 2":
        "94e8396f6c430299ed35b913409382b1d0553cdec8b8e7b382fcee5d4bb48ba6",
    "log jet square":
        "e49c545e26bb8409ea514b055c0ead7af0058e6815d98b9667625f21efa0bb1e",
    "ramified phi 1":
        "af3e3cff583340527d2a79b8a7d19d5ee9e17ad230748c0831a19c877914626c",
    "ramified phi 2":
        "f3ee8b9f65ff756c9bb94cd89c8f1b537d734d31e0797b9552226cc5e523a4a1",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def terms_digest(series) -> str:
    return sha(repr(sorted(series.terms.items())).encode())


def json_digest(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True).encode())


@pytest.mark.parametrize("argv", sorted(REPORTS), ids=" ".join)
def test_default_report(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(list(argv) + ["--out", str(out)]) == 0
    assert sha(out.read_bytes()) == REPORTS[argv]


def test_sertate_series():
    ring = STRing(5, 2, 2, 12)
    got = {}
    for i in (1, 2):
        got[f"psi_st_series {i}"] = terms_digest(psi_st_series(ring, i))
        for off in (1, 0):
            got[f"psi_series_form {i} {off}"] = terms_digest(
                psi_series_form(ring, i, off))
    for mu in ((1,), (2,), (1, 2), (2, 1)):
        F = phi_word(ring, mu[:-1], psi_st_series(ring, mu[-1]))
        got["serre_operator " + "".join(map(str, mu))] = terms_digest(
            serre_operator(ring, mu, F))
    assert got == ST_SERIES


def test_jet_series():
    tower = build_tower(TowerConfig(5, 2, 0, 1, 10))
    ring = JetRing(JetRingConfig(tower, 2, 2, 12, (0, 1)))
    log = formal_log(WeierstrassCurve(5, 1, 1), 12, 10)
    psi, report = psi_series(tower.from_int(3), tower.from_int(7),
                             tower.from_int(11), (1, 1), (2,), log, ring)
    got = {"psi_series": json_digest([psi.to_dict(), report])}
    lj = log_jet(log, ring)
    for i in (1, 2):
        got[f"phi_endomorphism {i}"] = json_digest(
            phi_endomorphism(ring, i, lj).to_dict())
    got["log jet square"] = json_digest((lj * lj).to_dict())
    rt = build_tower(TowerConfig(7, 2, 1, 1, 8))
    rr = JetRing(JetRingConfig(rt, 2, 2, 8, (0, 1)))
    G = (rr.T() + rr.variable(rr.var_index((2,))).scale(rt.pi())
         + rr.scalar(rt.zeta())) ** 5
    for i in (1, 2):
        got[f"ramified phi {i}"] = json_digest(
            phi_endomorphism(rr, i, G).to_dict())
    assert got == JETS
