import numpy as np
import pytest

from fqed.cli import ConfigError, main, parse_config

GOOD_CONFIG = """\
# desk-scale sample
Lambda = 1.0
alpha = 1e-3
epsilon = 0.25
mu = 0.2
rho_minus = 0.16
rho_plus = 0.4
C_alpha = 0.35
ir_floor_C = 2.5
P = 0.1 0 0
J = 2
n_radial = 1
angular_set = octahedral6
n_max = 2
c_max = 2
alphas = 1e-4 1e-3
P_list = 0.1 0 0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_good_config(tmp_path):
    cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
    assert cfg.params.alpha == 1e-3
    assert cfg.params.n_scales == 2
    assert np.allclose(cfg.params.p_total, [0.1, 0, 0])
    assert cfg.alphas == [1e-4, 1e-3]
    assert len(cfg.p_list) == 1
    assert len(cfg.sha256) == 64


def test_parse_missing_required_key(tmp_path):
    text = GOOD_CONFIG.replace("alpha = 1e-3\n", "")
    with pytest.raises(ConfigError, match="'alpha'"):
        parse_config(write_config(tmp_path, text))


def test_parse_reports_line_numbers(tmp_path):
    text = GOOD_CONFIG + "garbage line without equals\n"
    lineno = len(GOOD_CONFIG.splitlines()) + 1
    with pytest.raises(ConfigError, match=f":{lineno}:"):
        parse_config(write_config(tmp_path, text))


def test_parse_rejects_unknown_and_duplicate_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(write_config(tmp_path, GOOD_CONFIG + "typo_key = 1\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write_config(tmp_path, GOOD_CONFIG + "alpha = 2e-3\n"))


def test_parse_bad_momentum(tmp_path):
    text = GOOD_CONFIG.replace("P = 0.1 0 0", "P = 0.1 0")
    with pytest.raises(ConfigError, match="3 numbers"):
        parse_config(write_config(tmp_path, text))


def test_validate_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4
    bad = GOOD_CONFIG.replace("epsilon = 0.25", "epsilon = 0.6")
    path = write_config(tmp_path, bad, "bad.cfg")
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "scale-ratio window" in out


def test_missing_key_exits_2(tmp_path, capsys):
    text = GOOD_CONFIG.replace("alpha = 1e-3\n", "")
    path = write_config(tmp_path, text)
    assert main(["validate", "--config", path]) == 2
    assert "alpha" in capsys.readouterr().err


GOOD_BYTES = GOOD_CONFIG.encode()


@pytest.mark.parametrize("data, key", [
    (GOOD_BYTES.replace(b"alphas = 1e-4 1e-3", b"alphas = 1e-3 abc"),
     "alphas"),
    (GOOD_BYTES + b"# caf\xe9\n", "UTF-8"),
    (GOOD_BYTES + b"contour_nodes = 63\n", "contour_nodes"),
    (GOOD_BYTES.replace(b"alpha = 1e-3", b"alpha = nan"), "'alpha'"),
    (GOOD_BYTES.replace(b"P = 0.1 0 0", b"P = inf 0 0"), "'P'"),
    (GOOD_BYTES + b"fd_gradient = false\n", "fd_gradient"),
], ids=["non-numeric-alphas", "non-utf8", "odd-contour-nodes", "nan-alpha",
        "infinite-momentum", "removed-fd-gradient-key"])
def test_bad_config_exits_2_at_parse_time(tmp_path, capsys, data, key):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data)
    assert main(["cascade", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()


def test_grid_dump(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["grid-dump", "--config", path, "--out", str(out)]) == 0
    text = (out / "grid.csv").read_text()
    assert text.startswith("index,j,kx")
    assert "# config_sha256:" in text


def test_cascade_outputs_and_determinism(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG + "dump_vectors = true\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cascade", "--config", path, "--out", str(out1)]) == 0
    assert main(["cascade", "--config", path, "--out", str(out2),
                 "--threads", "4"]) == 0
    b1 = (out1 / "trace.csv").read_bytes()
    b2 = (out2 / "trace.csv").read_bytes()
    assert b1 == b2
    assert (out1 / "phi_000.fqed").exists()
    assert (out1 / "phi_002.fqed").read_bytes() == \
        (out2 / "phi_002.fqed").read_bytes()


def test_mass_scan_outputs_and_thread_independence(tmp_path):
    cfg_text = GOOD_CONFIG.replace("J = 2", "J = 1")
    path = write_config(tmp_path, cfg_text)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["mass-scan", "--config", path, "--out", str(out1)]) == 0
    assert main(["mass-scan", "--config", path, "--out", str(out2),
                 "--threads", "2"]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    text = (out1 / "scan.csv").read_text()
    assert text.startswith("alpha,j,sigma,Px,Py,Pz,E,gE_FH_x")
    assert (out1 / "scan.gp").exists()


def test_mass_scan_empty_momentum_list_is_usage_error(tmp_path, capsys):
    text = GOOD_CONFIG.replace("P_list = 0.1 0 0", "P_list =")
    path = write_config(tmp_path, text)
    assert main(["mass-scan", "--config", path]) == 2
    assert "P_list" in capsys.readouterr().err


def test_verify_unknown_suite(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["verify", "--config", path, "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert "identities" in err and "gaps" in err


def test_verify_gaps_suite_passes(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["verify", "--config", path, "--suite", "gaps"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "FAIL" not in out.replace("failures", "")


def test_verify_identities_free_theory(tmp_path, capsys):
    text = GOOD_CONFIG.replace("alpha = 1e-3", "alpha = 0.0")
    path = write_config(tmp_path, text)
    assert main(["verify", "--config", path, "--suite", "identities"]) == 0
    assert "0 hard failures" in capsys.readouterr().out
