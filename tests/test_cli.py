import json

import pytest

from frobjet.cli import SUITES, TOWER_INFO_FLAGS, main
from frobjet.config import (load_curve_catalog, parse_keyvalue,
                            tower_config_from_text)
from frobjet.errors import CertificateFailure


class TestConfig:
    def test_keyvalue_parsing(self):
        kv = parse_keyvalue("p = 7  # prime\nl=2\n\nm = 1\nf=1\nK = 12\n")
        assert kv == {"p": "7", "l": "2", "m": "1", "f": "1", "K": "12"}

    def test_tower_config(self):
        cfg = tower_config_from_text("p=5\nl=3\nm=1\nf=2\nK=10")
        assert (cfg.p, cfg.l, cfg.m, cfg.f, cfg.K) == (5, 3, 1, 2, 10)

    def test_missing_key(self):
        with pytest.raises(ValueError):
            tower_config_from_text("p=5\nl=3")

    def test_default_catalog(self):
        catalog = load_curve_catalog()
        assert {c.p for c in catalog} == {5, 7, 11}
        assert any(c.label == "5b-cm" for c in catalog)

    def test_extra_keys_still_load_as_tower(self):
        cfg = tower_config_from_text(
            "p=7\nl=2\nm=1\nf=1\nK=12\nn=2\nr=2\nD=14\n")
        assert (cfg.p, cfg.l, cfg.m, cfg.f, cfg.K) == (7, 2, 1, 1, 12)


class TestTowerInfo:
    def test_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["tower-info", "--p", "7", "--l", "2", "--m", "1",
                   "--f", "1", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pi_minimal_polynomial"] == "x^2 - 7"
        assert report["pole_bound_N"] == 0
        assert report["independence"]["independent"]

    def test_base_prime_pole_bound(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["tower-info", "--p", "7", "--l", "2", "--m", "0",
                   "--f", "1", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["pole_bound_N"] == -1

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "tower.cfg"
        cfg.write_text("p=5\nl=3\nm=1\nf=2\nK=10\n")
        out = tmp_path / "r.json"
        rc = main(["tower-info", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["config"]["f"] == 2

    def test_dependent_family_reported(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["tower-info", "--gammas", "0,1,7", "--indep-order", "2",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["independence"]["independent"] \
            is False

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p=5\nl=3\nm=1\nf=1\nK=10\n")  # f must be 2
        assert main(["tower-info", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text", ["p=5\nl=3\nm=1\nf=2\nK\n",
                                      "p=5\nl=3\nm=1\nf=two\nK=10\n",
                                      "p=5\nl=3\n"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["tower-info", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--gammas", "0,x"],
                                       ["--p", "7", "--gammas", ""]])
    def test_malformed_flag_exit_code(self, flags):
        assert main(["tower-info"] + flags) == 2


@pytest.mark.parametrize("command", [["tower-info"], ["verify", "gamma"]])
@pytest.mark.parametrize("extra, K", [([], 14), (["--precision", "13"], 13)])
def test_config_file_precision(command, extra, K, tmp_path):
    """K comes from the --config file unless --precision is given."""
    cfg = tmp_path / "tower.cfg"
    cfg.write_text("p=7\nl=2\nm=1\nf=1\nK=14\n")
    out = tmp_path / "r.json"
    assert main(command + ["--config", str(cfg), "--out", str(out)]
                + extra) == 0
    config = json.loads(out.read_text())["config"]
    assert config.get("tower", config)["K"] == K


PRECISION_COMMANDS = [["tower-info"]] + [
    ["verify", suite] for suite, (_, flags) in SUITES.items()
    if "--precision" in flags]


@pytest.mark.parametrize("command", PRECISION_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("precision", ["0", "-2"])
def test_precision_below_one_exit_code(command, precision, capsys):
    """--precision 0 is a precision, not a request for the default K."""
    assert main(command + ["--precision", precision]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [c for c in PRECISION_COMMANDS
                                     if c[0] == "verify"], ids=" ".join)
@pytest.mark.parametrize("precision", range(1, 13))
def test_no_failure_from_low_precision(command, precision, capsys):
    """Every suite that takes --precision, on the default catalog and seed:
    below the least K at which its checks test a digit it exits 2, and
    from there on its checks pass, so no K reports a failure (exit 1)."""
    assert main(command + ["--precision", str(precision)]) in (0, 2)


class TestVerify:
    def test_st_identities(self, tmp_path):
        out = tmp_path / "st.json"
        rc = main(["verify", "st-identities", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        names = {c["name"] for c in report["checks"]}
        assert len([n for n in names if not n.endswith("control")]) == 14
        assert report["pass"]

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "pairing", "--seed", "7", "--out",
                     str(a)]) == 0
        assert main(["verify", "pairing", "--seed", "7", "--out",
                     str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gamma_suite(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["verify", "gamma", "--precision", "12", "--out",
                   str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"]
        minors = report["checks"][0]["detail"]["minors"]
        assert len(minors) == 7

    def test_strassman_suite(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["verify", "strassman", "--out", str(out)]) == 0

    def test_failing_suite_exit_code(self, tmp_path, monkeypatch):
        def broken(args):
            return {"suite": "gm", "checks": [
                {"name": "x", "pass": False, "detail": {}}], "pass": False}
        monkeypatch.setitem(SUITES, "gm", (broken, SUITES["gm"][1]))
        assert main(["verify", "gm"]) == 1

    def test_unknown_curve_exit_code(self, capsys):
        assert main(["verify", "asd", "--curve", "no-such-curve"]) == 2
        assert "no-such-curve" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["verify", "asd", "--mu", "1x"],
                                       ["verify", "asd", "--nu", ""],
                                       ["verify", "gamma", "--beta", "pi^x"]])
    def test_malformed_value_exit_code(self, flags):
        assert main(flags) == 2

    def test_negative_pi_power_beta_exit_code(self, capsys):
        # pi is no unit, so pi^-1 is not in the ring
        assert main(["verify", "gamma", "--beta", "pi^-1"]) == 2
        assert "--beta" in capsys.readouterr().err

    @pytest.mark.parametrize("nmax", ["-1", "0"])
    def test_nmax_below_one_exit_code(self, nmax, capsys):
        # -1 would reach ser_inv with an empty series, 0 would check nothing
        assert main(["verify", "asd", "--curve", "5a-generic",
                     "--nmax", nmax]) == 2
        assert "--nmax" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["1", "11"])
    def test_asd_equal_words_exit_code(self, word, capsys):
        # with mu = nu every combination is 0 and would pass vacuously
        assert main(["verify", "asd", "--curve", "5a-generic",
                     "--mu", word, "--nu", word]) == 2
        assert "differ" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["0", "-5", "13", "40"])
    def test_threshold_outside_precision_exit_code(self, threshold, capsys):
        # 0 or less makes vanishing vacuous; above K no entry has the digits
        assert main(["verify", "gamma", "--threshold", threshold]) == 2
        assert "--threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["1", "12"])
    def test_threshold_inside_precision_runs(self, threshold, tmp_path):
        out = tmp_path / "g.json"
        assert main(["verify", "gamma", "--threshold", threshold,
                     "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["config"]["threshold"] == int(
            threshold)

    @pytest.mark.parametrize("precision", ["1", "2", "3", "4"])
    def test_gm_precision_below_five_exit_code(self, precision, capsys):
        # additivity is checked to K - 4 digits: K <= 4 would test nothing
        assert main(["verify", "gm", "--precision", precision]) == 2
        assert "at least 5" in capsys.readouterr().err

    def test_gm_precision_five_checks_one_digit(self, tmp_path):
        out = tmp_path / "gm.json"
        assert main(["verify", "gm", "--precision", "5", "--out",
                     str(out)]) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["name"] == "gm:additivity"
        assert check["detail"]["precision"] == 1

    def test_crystalline_precision_below_two_exit_code(self, capsys):
        # the classes carry K - 1 digits: at K = 1 every relation is vacuous
        assert main(["verify", "crystalline", "--precision", "1"]) == 2
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", range(2, 13))
    def test_crystalline_holds_at_every_precision(self, precision):
        """The relations are tested mod p^(K - 1), the digits the classes
        carry, so every K >= 2 passes on the default catalog."""
        assert main(["verify", "crystalline", "--precision",
                     str(precision)]) == 0

    @pytest.mark.parametrize("flags, floor", [
        ([], 6), (["--curve", "5a-generic"], 6),
        (["--curve", "7a-generic"], 5), (["--curve", "11a-generic"], 5),
        (["--nmax", "130"], 7)])
    def test_asd_precision_floor(self, flags, floor, capsys, monkeypatch):
        """The floor is 2 + |mu| + floor(log_p nmax), the most over the
        curves run: the denominators p^(|mu| + v_p(N)) leave asd_check its
        2 digits from there on.  Below it the run stops before Kedlaya or
        formal_log; at it every congruence holds."""
        import frobjet.cli as cli

        def never(*args):
            raise AssertionError("ran below the precision floor")
        with monkeypatch.context() as m:
            m.setattr(cli, "kedlaya_frobenius", never)
            m.setattr(cli, "formal_log", never)
            assert main(["verify", "asd", "--precision", str(floor - 1)]
                        + flags) == 2
        assert f"at least {floor} " in capsys.readouterr().err
        assert main(["verify", "asd", "--precision", str(floor)]
                    + flags) == 0

    def test_indep_order_below_zero_exit_code(self, capsys):
        assert main(["tower-info", "--indep-order", "-1"]) == 2
        assert "--indep-order" in capsys.readouterr().err

    def test_malformed_catalog_exit_code(self, tmp_path):
        cat = tmp_path / "curves.json"
        cat.write_text('[{"p": 5, "a4": 1}]')
        assert main(["verify", "crystalline", "--catalog", str(cat)]) == 2

    def test_internal_value_error_propagates(self, monkeypatch, capsys):
        """A bug is never reported as bad input (exit 2) or as a failed
        check (exit 1): an exception outside FrobjetError, or a
        CertificateFailure, exits 3 with its traceback on stderr."""
        for exc_type in (ValueError, CertificateFailure):
            def broken(args):
                raise exc_type("internal bug")
            monkeypatch.setitem(SUITES, "gm", (broken, SUITES["gm"][1]))
            assert main(["verify", "gm"]) == 3
            err = capsys.readouterr().err
            assert err.startswith("Traceback (most recent call last):")
            assert f"{exc_type.__name__}: internal bug" in err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "gm", "--degree", "99999"])
        assert exc.value.code == 2


VERIFY_FLAGS = {"--config": "x.cfg", "--seed": "1", "--precision": "9",
                "--curve": "5a-generic", "--catalog": "x.json", "--mu": "1",
                "--nu": "2", "--nmax": "3", "--beta": "p", "--threshold": "4"}
UNREAD = sorted(
    [(("verify", suite), flag) for suite, (_, read) in SUITES.items()
     for flag in VERIFY_FLAGS if flag not in read]
    + [(("tower-info",), flag) for flag in VERIFY_FLAGS
       if flag not in TOWER_INFO_FLAGS])


@pytest.mark.parametrize("command, flag", UNREAD,
                         ids=[" ".join(c) + " " + f for c, f in UNREAD])
def test_unread_flag_rejected(command, flag):
    """A flag a subcommand would ignore is a usage error, not a silent
    run on the defaults."""
    with pytest.raises(SystemExit) as exc:
        main(list(command) + [flag, VERIFY_FLAGS[flag]])
    assert exc.value.code == 2


def test_each_subcommand_declares_exactly_what_it_reads():
    import ast
    import inspect

    import frobjet.cli as cli

    def read(fn):
        # a subcommand also reads what the shared helpers read
        src = inspect.getsource(fn)
        for helper in (cli._tower_from_args, cli._precision):
            if f"{helper.__name__}(" in src:
                src += inspect.getsource(helper)
        return {node.attr for node in ast.walk(ast.parse(src))
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"}

    def declared(flags):
        return {f[2:].replace("-", "_") for f in flags}

    for suite, (fn, flags) in SUITES.items():
        assert read(fn) == declared(flags), suite
    assert read(cli.cmd_tower_info) == declared(TOWER_INFO_FLAGS)
