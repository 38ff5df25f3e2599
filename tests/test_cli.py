import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqed.cli import ConfigError, main, parse_config
from fqed.fock import ENTRY_LIMIT
from fqed.hamiltonian import FiberFamily
from fqed.modes import ANGULAR_SETS, MODE_LIMIT

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


def test_validate_refuses_a_step_its_contour_cannot_enclose(tmp_path,
                                                           capsys):
    # demo 03's box at alpha = 1e-2: the five parameter relations hold, but
    # the first energy step, about 6 alpha, is past the step contour's
    # radius mu * sigma_1 = 0.045, where cascade would exit 3 at scale 1
    demo03 = dict(alpha="1e-2", epsilon="0.3", mu="0.15", rho_minus="0.14",
                  rho_plus="0.16", P="0.1 0 0", J="2")
    path = desk_variant(tmp_path, **demo03)
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL  step enclosure       |dE_1| / (mu*sigma_1) = 1.261 < 0.85" \
        in out
    assert out.endswith("FAILED: step enclosure\n")
    assert main(["cascade", "--config", path,
                 "--out", str(tmp_path / "out")]) == 1
    assert "parameter constraint failed: step enclosure" \
        in capsys.readouterr().err
    # at alpha = 5e-3, the largest of the shipped scans, the step fits
    path = desk_variant(tmp_path, **{**demo03, "alpha": "5e-3"})
    assert main(["validate", "--config", path]) == 0


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
    (GOOD_BYTES + b"max_nodes = 16\n", "max_nodes"),
    (GOOD_BYTES + b"contour_nodes = 1000000\n", "max_nodes"),
    (GOOD_BYTES + b"ground_tol = 0\n", "ground_tol"),
    (GOOD_BYTES + b"defect_tol = -1\n", "defect_tol"),
    (GOOD_BYTES + b"krylov_tol = -1e-10\n", "krylov_tol"),
    (GOOD_BYTES + b"krylov_max = 0\n", "krylov_max"),
    (GOOD_BYTES + b"dense_limit = -5\n", "dense_limit"),
    (GOOD_BYTES + b"dense_eig_cutoff = 0\n", "dense_eig_cutoff"),
    (GOOD_BYTES + b"dense_eig_cutoff = 10000\n", "dense_eig_cutoff"),
    (GOOD_BYTES + b"mass_route = bogus\n", "mass_route"),
    # solver settings are no config keys, even at their default values
    (GOOD_BYTES + b"dense_limit = 4000\n", "dense_limit"),
    (GOOD_BYTES + b"dense_eig_cutoff = 600\n", "dense_eig_cutoff"),
    (GOOD_BYTES + b"ground_tol = 1e-10\n", "ground_tol"),
    (GOOD_BYTES + b"defect_tol = 1e-8\n", "defect_tol"),
    (GOOD_BYTES + b"max_nodes = 512\n", "max_nodes"),
    (GOOD_BYTES + b"krylov_tol = 1e-10\n", "krylov_tol"),
    (GOOD_BYTES + b"krylov_max = 1200\n", "krylov_max"),
    (GOOD_BYTES + b"mass_route = displaced\n", "mass_route"),
    # values that a run would refuse, found without a solve
    (GOOD_BYTES.replace(b"J = 2", b"J = 0"), "'J'"),
    (GOOD_BYTES.replace(b"n_radial = 1", b"n_radial = 0"), "'n_radial'"),
    (GOOD_BYTES.replace(b"c_max = 2", b"c_max = 0"), "'c_max'"),
    (GOOD_BYTES.replace(b"n_max = 2", b"n_max = -1"), "'n_max'"),
    (GOOD_BYTES.replace(b"angular_set = octahedral6", b"angular_set = foo"),
     "'angular_set'"),
    (GOOD_BYTES.replace(b"Lambda = 1.0", b"Lambda = 1e308"), "'Lambda'"),
    (GOOD_BYTES.replace(b"Lambda = 1.0", b"Lambda = 0"), "'Lambda'"),
    (GOOD_BYTES.replace(b"J = 2", b"J = 2000"), "'J'"),
    (GOOD_BYTES.replace(b"J = 2", b"J = 1" + b"0" * 30), "'J'"),
    (GOOD_BYTES.replace(b"P_list = 0.1 0 0", b"P_list = 0 0.2 0.1"),
     "'P_list'"),
    (GOOD_BYTES + b"basis_limit = 0\n", "'basis_limit'"),
], ids=["non-numeric-alphas", "non-utf8", "odd-contour-nodes", "nan-alpha",
        "infinite-momentum", "removed-fd-gradient-key",
        "max-nodes-below-contour-nodes", "huge-contour-nodes",
        "zero-ground-tol", "negative-defect-tol", "negative-krylov-tol",
        "zero-krylov-max", "negative-dense-limit", "zero-dense-eig-cutoff",
        "dense-eig-cutoff-above-dense-limit", "unknown-mass-route",
        "removed-dense-limit-key", "removed-dense-eig-cutoff-key",
        "removed-ground-tol-key", "removed-defect-tol-key",
        "removed-max-nodes-key", "removed-krylov-tol-key",
        "removed-krylov-max-key", "removed-mass-route-key", "zero-scales",
        "zero-radial-cells", "zero-mode-cap", "negative-total-cap",
        "unknown-angular-set", "huge-uv-cutoff", "zero-uv-cutoff",
        "underflowing-last-cutoff", "scale-count-past-the-doubles",
        "off-axis-momentum-list", "zero-basis-limit"])
def test_bad_config_exits_2_at_parse_time(tmp_path, capsys, data, key):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data)
    assert main(["cascade", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "mass-scan"])
def test_negative_alphas_entry_exits_2_at_parse_time(tmp_path, capsys,
                                                     command):
    # a negative coupling in the scan list is refused before any job runs,
    # as a negative alpha is
    text = GOOD_CONFIG.replace("alphas = 1e-4 1e-3", "alphas = 1e-3 -1e-3")
    path = write_config(tmp_path, text)
    lineno = text.splitlines().index("alphas = 1e-3 -1e-3") + 1
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}:{lineno}: key 'alphas': expected couplings "
        ">= 0, got '1e-3 -1e-3'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("allow_invalid = maybe",
     "key 'allow_invalid': expected a boolean, got 'maybe'"),
    ("dump_vectors = 2", "key 'dump_vectors': expected a boolean, got '2'"),
    ("P_list = 0.1 0 0; 0.2 0",
     "key 'P_list': expected 3 numbers, got ' 0.2 0'"),
], ids=["allow_invalid", "dump_vectors", "P_list"])
def test_config_errors_name_the_line(tmp_path, capsys, line, message):
    # the error names the file and the line the key is set on
    text = GOOD_CONFIG.replace("P_list = 0.1 0 0\n", "") + line + "\n"
    path = write_config(tmp_path, text)
    lineno = text.splitlines().index(line) + 1
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}:{lineno}: {message}\n")


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", [
    ROOT / "demos" / "desk.cfg",
    *sorted((ROOT / "perfbench" / "configs").glob("*.cfg")),
], ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_parse(path):
    cfg = parse_config(path)
    assert cfg.contour_nodes == 64 and not cfg.allow_invalid


@pytest.mark.parametrize("command, output", [("mass-scan", "scan.csv"),
                                             ("cascade", "trace.csv")])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command,
                                                        output):
    # a command pins numpy's and scipy's BLAS pools to one thread, so the
    # thread count the environment asks for changes no output byte
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / threads
        run = subprocess.run(
            [sys.executable, "-m", "fqed.cli", command, "--config",
             str(ROOT / "demos" / "desk.cfg"), "--out", str(out)],
            env=env, capture_output=True, check=True)
        assert b"cannot pin" not in run.stderr
        written.append((out / output).read_bytes())
    assert written[0] == written[1]


def test_commands_load_no_scipy_linalg(tmp_path):
    # every eigensolve and shifted solve of a command runs in numpy's
    # LAPACK: only the test oracles and the cold ARPACK solves, which no
    # command reaches, import scipy.linalg or scipy.sparse.linalg
    path = write_config(tmp_path, GOOD_CONFIG)
    script = f"""
import sys
from fqed.cli import main
for argv in (["mass-scan"], ["verify", "--suite", "all"]):
    assert main([*argv, "--config", {path!r}, "--out", {str(tmp_path)!r}]) == 0
    print(argv[0], sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg")
                          if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert [ln for ln in run.stdout.splitlines()
            if ln.startswith(("mass-scan ", "verify "))] \
        == ["mass-scan []", "verify []"]


def desk_variant(tmp_path, **keys):
    """demos/desk.cfg with the given keys' values replaced."""
    text = (ROOT / "demos" / "desk.cfg").read_text()
    for key, value in keys.items():
        text, n = re.subn(rf"^{key}\s*=[^#\n]*", f"{key} = {value} ", text,
                          flags=re.M)
        assert n == 1
    return write_config(tmp_path, text)


def test_validate_refuses_a_basis_above_the_limit(tmp_path, capsys):
    # the closed-form size is known before any enumeration, so validate
    # exits as cascade would, without a traceback
    path = desk_variant(tmp_path, n_max=40)
    assert main(["validate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: basis would hold")
    assert "above limit 2000000" in captured.err
    assert "all constraints PASS" not in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_validate_refuses_an_enumeration_too_large_to_hold(tmp_path,
                                                          capsys):
    # J = 100 gives 721,801 states, inside basis_limit, but over 1200 modes:
    # the C(1200, 2) states with two singly occupied modes alone would need
    # gigabytes of occupation entries to enumerate
    path = desk_variant(tmp_path, J=100)
    assert main(["validate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: basis would hold at least 719400 states x 1200 modes, "
        f"above limit {ENTRY_LIMIT} occupation entries\n")
    assert "all constraints PASS" not in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_validate_refuses_a_raise_table_too_large_to_hold(tmp_path,
                                                         capsys):
    # 3,103,152 states x 12 modes pass basis_limit and ENTRY_LIMIT, but
    # their 22,293,816 raises would take about 1.5 GiB to build
    path = desk_variant(tmp_path, J=1, n_max=14, c_max=3)
    with open(path, "a") as f:
        f.write("basis_limit = 5000000\n")
    assert main(["validate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: basis would hold 3.103e6 states x 12 modes and 22293816 "
        "raises")
    assert "Traceback" not in captured.out + captured.err


def test_validate_refuses_caps_too_large_to_count(tmp_path, capsys):
    # every total up to the caps occurs, so a 31-digit cap is refused on
    # that bound without an array of totals to count them in
    path = desk_variant(tmp_path, n_max="1" + "0" * 30, c_max="1" + "0" * 30)
    assert main(["validate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: basis would hold at least 1.000e30 states, above limit "
        "2000000\n")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("keys, message", [
    # 108,000 and 1,080,000 modes: the C(modes, 2) states with two singly
    # occupied modes pass basis_limit
    (dict(n_radial=3000), "basis would hold at least 5.832e9 states"),
    (dict(n_radial=30000), "basis would hold at least 5.832e11 states"),
    # the totals bound passes (10,001 states), but 5,004 singly occupied
    # modes of 10,008 give a count of 3,011 digits, which is never formed
    (dict(n_radial=278, n_max=10000, c_max=1),
     "basis would hold at least 4.073e3010 states"),
    # one state at n_max = 0: the grid bounds itself
    (dict(n_radial=10**7, n_max=0),
     f"grid would hold 360000000 modes, above limit {MODE_LIMIT}"),
], ids=["n_radial-3000", "n_radial-30000", "single-occupancy", "n_max-0"])
def test_validate_sizes_a_run_before_building_it(tmp_path, capsys,
                                                 monkeypatch, keys, message):
    # the sizes have closed forms, so validate refuses within a second
    # and builds no grid
    import fqed.cli as cli

    def no_grid(*args, **kwargs):
        raise AssertionError("validate built a grid")

    monkeypatch.setattr(cli, "build_grid", no_grid)
    path = desk_variant(tmp_path, **keys)
    start = time.perf_counter()
    assert main(["validate", "--config", path]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.out + captured.err


_BAD_TEXT = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e999",
                             "0x10", "1,5", "--1", "1 2", "true"])
_FLOAT_TEXT = st.one_of(st.floats().map(repr), _BAD_TEXT)
_INT_TEXT = st.one_of(st.integers(-2, 6).map(str),
                      st.integers(10 ** 6, 10 ** 40).map(str),
                      st.floats(-10, 10).map(repr), _BAD_TEXT)
#: Generated text per config key.  ``basis_limit`` stays at most 3000 and
#: is never removed, so a box that validates is small enough to build.
_CONFIG_TEXT = {
    **{key: _FLOAT_TEXT for key in (
        "alpha", "epsilon", "mu", "rho_minus", "rho_plus", "C_alpha",
        "ir_floor_C", "delta")},
    "Lambda": st.one_of(_FLOAT_TEXT, st.sampled_from(
        ["1e102", "5.6e102", "5.7e102", "1e-300", "1e308"])),
    "P": st.one_of(st.lists(_FLOAT_TEXT, min_size=1, max_size=4)
                   .map(" ".join), st.sampled_from(["0.3 0 0", "0 0 0"])),
    "J": st.one_of(_INT_TEXT, st.integers(7, 3000).map(str)),
    "n_max": _INT_TEXT,
    "c_max": _INT_TEXT,
    "n_radial": st.one_of(st.integers(-2, 3).map(str),
                          st.integers(4, 10 ** 12).map(str), _BAD_TEXT),
    "contour_nodes": st.one_of(_INT_TEXT, st.integers(-10, 1100).map(str)),
    "basis_limit": st.one_of(st.integers(-10, 3000).map(str), _BAD_TEXT),
    "angular_set": st.sampled_from(ANGULAR_SETS + ("foo", "")),
    "alphas": st.lists(_FLOAT_TEXT, max_size=3).map(" ".join),
    "P_list": st.lists(_FLOAT_TEXT, max_size=4).map(" ".join),
    "allow_invalid": st.sampled_from(["true", "false", "maybe"]),
}


@st.composite
def _configs(draw):
    """GOOD_CONFIG with basis_limit 3000 and one to three keys replaced by
    generated text or, except basis_limit, removed."""
    values = dict(line.split(" = ") for line in GOOD_CONFIG.splitlines()
                  if " = " in line)
    values["basis_limit"] = "3000"
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_TEXT)), min_size=1,
                         max_size=3, unique=True))
    for key in keys:
        text = _CONFIG_TEXT[key]
        values[key] = draw(text if key == "basis_limit"
                           else st.one_of(st.none(), text))
    return "".join(f"{key} = {value}\n" for key, value in values.items()
                   if value is not None)


def _good_with(**keys) -> str:
    text = GOOD_CONFIG + "basis_limit = 3000\n"
    for key, value in keys.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(text=_configs())
@example(text=_good_with(n_radial=10 ** 3, n_max=0))
@example(text=_good_with(n_radial=10 ** 9, n_max=0))
@example(text=_good_with(n_radial=10 ** 4, n_max=1))
def test_validate_never_ends_in_a_traceback(tmp_path_factory, text):
    # bad and extreme values exit 2 at parse time or 1 on a constraint; a
    # config that validates builds its grid, basis and scale-0 H(P)
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(text)
    code = main(["validate", "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        cfg = parse_config(path)
        grid = cfg.build_grid()
        basis = cfg.build_basis(grid)
        FiberFamily(cfg.params, grid, basis, 0).h(cfg.params.p_total)


def test_verify_energy_slope_window_admits_the_dispersion_minimum(
        tmp_path, capsys):
    # at P = 0 the slope supremum is negative (free value -min|k|/2), and a
    # correct run must pass the soft check
    path = desk_variant(tmp_path, P="0 0 0", alpha="1e-4")
    assert main(["verify", "--config", path, "--suite", "calpha"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] (soft) energy-slope constant: C = -0.0292" in out


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
    assert main(["cascade", "--config", path, "--out", str(out2)]) == 0
    b1 = (out1 / "trace.csv").read_bytes()
    b2 = (out2 / "trace.csv").read_bytes()
    assert b1 == b2
    assert (out1 / "phi_000.fqed").exists()
    assert (out1 / "phi_002.fqed").read_bytes() == \
        (out2 / "phi_002.fqed").read_bytes()


def test_mass_scan_outputs_and_rerun_identity(tmp_path):
    cfg_text = GOOD_CONFIG.replace("J = 2", "J = 1")
    path = write_config(tmp_path, cfg_text)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["mass-scan", "--config", path, "--out", str(out1)]) == 0
    assert main(["mass-scan", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    text = (out1 / "scan.csv").read_text()
    assert text.startswith("alpha,j,sigma,Px,Py,Pz,E,gE_FH_x")
    # the plot script's columns name the intended scan.csv columns
    header = text.splitlines()[0].split(",")
    plots = re.findall(r"using (\d+):(\d+)", (out1 / "scan.gp").read_text())
    assert [(header[int(x) - 1], header[int(y) - 1]) for x, y in plots] \
        == [("alpha", "m_r"), ("j", "d2E_K")]


@pytest.mark.parametrize("argv", [
    ["mass-scan", "--threads", "2"],
    ["cascade", "--suite", "all"],
], ids=["threads-on-mass-scan", "suite-on-cascade"])
def test_subcommand_rejects_flags_it_does_not_take(tmp_path, capsys, argv):
    path = write_config(tmp_path, GOOD_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_weyl_norm_loss_exits_3(tmp_path, capsys, monkeypatch):
    # a transport that loses norm trips the Weyl defect guard, which the
    # cascade reports as a numerical failure
    import fqed.bogoliubov as bogoliubov

    expm_apply = bogoliubov._expm_apply
    monkeypatch.setattr(bogoliubov, "_expm_apply",
                        lambda gen, v: 0.5 * expm_apply(gen, v))
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["cascade", "--config", path,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: scale 1:")
    assert "Weyl transport lost norm" in err


def test_krylov_residual_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a Lanczos space capped below what a shifted solve needs leaves its
    # residual above tolerance, which the cascade reports as a numerical
    # failure
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "KRYLOV_MAX", 3)
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["cascade", "--config", path,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "Krylov space of size 3 left shifted residual" in err
    assert "Traceback" not in err


def test_davidson_iteration_cap_exits_3_or_writes_error_rows(
        tmp_path, capsys, monkeypatch):
    # started ground-state solves that run out of Davidson iterations stop
    # verify as a numerical failure and leave mass-scan with error rows;
    # the cascade's own solves past scale 0 are started, so each job's
    # cascade fails and gives one j = -1 row naming the failed solve's
    # scale: scale 0's next-sector solve starts from an exact eigenvector
    # (no interaction reaches sector 1 at scale 0), so scale 1's sector
    # solve is the first to run out
    import fqed.spectral as spectral

    monkeypatch.setattr(spectral, "DAVIDSON_MAX_ITER", 1)
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["verify", "--config", path, "--suite", "identities"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: scale 1: sector solve: "
                          "Davidson stopped at residual")
    assert "Traceback" not in err
    out = tmp_path / "out"
    assert main(["mass-scan", "--config", path, "--out", str(out)]) == 3
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    rows = [r.split(",") for r in rows if not r.startswith("#")]
    assert [r[1] for r in rows] == ["-1"] * 2
    assert all(r[-1].startswith("scale 1: sector solve: ")
               and "Davidson stopped at residual" in r[-1] for r in rows)


def test_mass_scan_refuses_a_point_that_fails_a_constraint(tmp_path, capsys,
                                                          monkeypatch):
    # alpha = 2e-2 puts the infrared floor 2.5 sqrt(alpha) above epsilon:
    # the scan exits 1, as cascade does, before any basis or cascade and
    # with no scan.csv; allow_invalid runs the point, whose step contour
    # then misses the ground state, a numerical failure on its row
    import fqed.cli as cli
    import fqed.observables as observables

    built = []
    build_basis = cli.RunConfig.build_basis
    open_cascade = observables.open_cascade

    def counted_basis(self, grid):
        built.append("basis")
        return build_basis(self, grid)

    def counted_cascade(*args, **kwargs):
        built.append("cascade")
        return open_cascade(*args, **kwargs)

    monkeypatch.setattr(cli.RunConfig, "build_basis", counted_basis)
    monkeypatch.setattr(observables, "open_cascade", counted_cascade)
    text = GOOD_CONFIG.replace("J = 2", "J = 1").replace(
        "alphas = 1e-4 1e-3", "alphas = 1e-3 2e-2")
    out = tmp_path / "out"
    path = write_config(tmp_path, text)
    assert main(["mass-scan", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scan point alpha=0.02 P=(0.1 0.0 0.0): "
                          "parameter constraint failed: infrared floor")
    assert built == [] and not (out / "scan.csv").exists()
    path = write_config(tmp_path, text + "allow_invalid = true\n")
    assert main(["mass-scan", "--config", path, "--out", str(out)]) == 3
    assert built == ["basis", "cascade", "cascade"]
    rows = [r.split(",") for r in (out / "scan.csv").read_text().splitlines()
            if r.startswith("0.02,")]
    assert [r[1] for r in rows] == ["-1"]
    assert rows[0][-1].startswith("scale 1: contour encloses none")


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


@pytest.mark.parametrize("suite", ["identities", "bounds", "all"])
def test_verify_refuses_an_off_axis_momentum_before_the_cascade(
        tmp_path, capsys, monkeypatch, suite):
    # the routes and the bounds probe need an axis-aligned P: no line is
    # printed and no cascade opened before the refusal
    import fqed.cli as cli

    opened = []
    open_cascade = cli.open_cascade

    def counted(*args, **kwargs):
        opened.append(suite)
        return open_cascade(*args, **kwargs)

    monkeypatch.setattr(cli, "open_cascade", counted)
    path = write_config(tmp_path,
                        GOOD_CONFIG.replace("P = 0.1 0 0", "P = 0.1 0.1 0"))
    assert main(["verify", "--config", path, "--suite", suite]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "not axis-aligned" in err
    assert opened == []
    # the gap suite reads no axis and still runs
    assert main(["verify", "--config", path, "--suite", "gaps"]) == 0
    assert opened == [suite]


def test_verify_identities_free_theory(tmp_path, capsys):
    text = GOOD_CONFIG.replace("alpha = 1e-3", "alpha = 0.0")
    path = write_config(tmp_path, text)
    assert main(["verify", "--config", path, "--suite", "identities"]) == 0
    assert "0 hard failures" in capsys.readouterr().out


def test_verify_builds_each_frame_solver_once(tmp_path, monkeypatch):
    # the displaced route reads its cross term from its own integral in
    # one Lanczos space: two per cascade step (the projection and its
    # re-projection, at the first node count) plus one H and one K space
    # per scale
    from fqed.spectral import ResolventSolver

    inits = []
    init = ResolventSolver.__init__

    def counted(self, op, b):
        inits.append(op.shape)
        init(self, op, b)

    monkeypatch.setattr(ResolventSolver, "__init__", counted)
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["verify", "--config", path, "--suite", "identities"]) == 0
    assert len(inits) == 2 * 2 + 2 * 3


def test_verify_builds_each_frame_once_per_family_and_gradient(tmp_path,
                                                              monkeypatch):
    # the frame polish and the bounds probe of a record share one frame,
    # whose factors are stacked once: the cascade's two bridge frames and
    # one per record, no repeats
    import fqed.hamiltonian as hamiltonian

    builds = []
    build = hamiltonian._frame_factors

    def counted(family, g):
        # the scale and the gradient tell the frames apart
        builds.append((family.j, g.tobytes()))
        return build(family, g)

    monkeypatch.setattr(hamiltonian, "_frame_factors", counted)
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["verify", "--config", path, "--suite", "all"]) == 0
    assert len(builds) == len(set(builds)) == 2 + 3


def test_verify_identities_builds_one_family_per_record(tmp_path,
                                                        family_builds):
    # the three routes of each scale run on the family its cascade step
    # built
    from fqed.cli import _verify_lines

    cfg = parse_config(write_config(tmp_path,
                                    GOOD_CONFIG.replace("J = 2", "J = 1")))
    lines = list(_verify_lines(cfg, "identities"))
    assert lines and all(passed for _, _, passed, _ in lines)
    assert family_builds == [0, 1]


def test_verify_all_builds_one_family_per_record(tmp_path, family_builds):
    # the routes, the last scale's probes and the bounds probes share the
    # family the cascade built for each record
    from fqed.cli import _verify_lines

    cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
    assert list(_verify_lines(cfg, "all"))
    assert family_builds == [0, 1, 2]


def test_verify_bounds_read_each_lanczos_space(tmp_path, family_builds,
                                               monkeypatch):
    # the bounds probe takes its constants from the Lanczos spaces of its
    # two vectors at every size: past the cascade no dense spectrum, two
    # spaces per probed record, and no family but the cascade's
    import fqed.cli as cli
    import fqed.observables as observables
    import fqed.spectral as spectral

    calls = {"dense": 0, "spaces": 0}
    at_cascade_end = []
    to_dense = spectral._dense
    init = spectral.ResolventSolver.__init__
    cascade_scales = cli.cascade_scales

    # every dense solve, production or oracle, makes the operator dense
    def counted_dense(*args, **kwargs):
        calls["dense"] += 1
        return to_dense(*args, **kwargs)

    def counted_init(self, op, b):
        calls["spaces"] += 1
        init(self, op, b)

    def cascade(*args, **kwargs):
        yield from cascade_scales(*args, **kwargs)
        at_cascade_end.append(dict(calls))

    monkeypatch.setattr(spectral, "_dense", counted_dense)
    monkeypatch.setattr(spectral.ResolventSolver, "__init__", counted_init)
    monkeypatch.setattr(cli, "cascade_scales", cascade)
    assert not hasattr(observables, "dense_spectrum")
    cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
    lines = list(cli._verify_lines(cfg, "bounds"))
    # Gamma annihilates the vacuum, so j = 0 has no bound lines
    assert [(name, passed) for _, name, passed, _ in lines] \
        == [(f"bound {c} j=1", True) for c in ("C3", "C4", "C5")]
    assert calls["dense"] == at_cascade_end[0]["dense"]
    assert calls["spaces"] - at_cascade_end[0]["spaces"] == 2 * 2
    assert family_builds == [0, 1, 2]


def test_verify_starts_every_observable_solve(tmp_path, monkeypatch):
    # every route and probe evaluates its scale from the cascade record:
    # each ground state they solve starts from its vectors, and the cold
    # solves are the cascade's own
    import fqed.observables as observables
    from fqed.cli import _verify_lines

    starts = []
    sector_ground = observables.sector_ground

    def counted(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return sector_ground(*args, **kwargs)

    monkeypatch.setattr(observables, "sector_ground", counted)
    cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
    assert list(_verify_lines(cfg, "all"))
    assert starts and all(start is not None for start in starts)


def test_verify_pull_through_reuses_the_cascade_ground_state(
        tmp_path, capsys, monkeypatch):
    # the probe runs on the final-scale ground state the cascade already
    # holds, so no observable solves it again
    import fqed.observables as observables

    calls = []
    sector_ground = observables.sector_ground

    def counted(*args, **kwargs):
        calls.append(args[3])
        return sector_ground(*args, **kwargs)

    monkeypatch.setattr(observables, "sector_ground", counted)
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["verify", "--config", path, "--suite", "pullthrough"]) == 0
    assert "pull-through aggregate j=2" in capsys.readouterr().out
    assert calls == []


def test_verify_pull_through_builds_no_krylov_space(tmp_path, monkeypatch):
    # past the cascade, whose contour projections grow Lanczos spaces, the
    # probe solves every mode by CG: no Krylov space
    import fqed.cli as cli
    import fqed.spectral as spectral

    spaces = []
    at_cascade_end = []
    cascade_scales = cli.cascade_scales
    init = spectral.ResolventSolver.__init__

    def counted(self, op, b):
        spaces.append(len(b))
        init(self, op, b)

    def cascade(*args, **kwargs):
        yield from cascade_scales(*args, **kwargs)
        at_cascade_end.append(len(spaces))

    monkeypatch.setattr(spectral.ResolventSolver, "__init__", counted)
    monkeypatch.setattr(cli, "cascade_scales", cascade)
    cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
    lines = list(cli._verify_lines(cfg, "pullthrough"))
    assert [(name, passed) for _, name, passed, _ in lines] \
        == [("pull-through aggregate j=2", True)]
    assert at_cascade_end[0] > 0
    assert len(spaces) == at_cascade_end[0]


def test_verify_lipschitz_probe_reuses_the_cascade_energy(
        tmp_path, capsys, monkeypatch):
    # the slope probe takes E(P) from the cascade's final scale and solves
    # only the shifted momenta P - k, once per distinct grid momentum
    import fqed.observables as observables

    calls = []
    sector_ground = observables.sector_ground

    def counted(*args, **kwargs):
        calls.append(tuple(kwargs["p"]))
        return sector_ground(*args, **kwargs)

    monkeypatch.setattr(observables, "sector_ground", counted)
    path = write_config(tmp_path, GOOD_CONFIG)
    cfg = parse_config(path)
    assert main(["verify", "--config", path, "--suite", "calpha"]) == 0
    assert "energy-slope constant" in capsys.readouterr().out
    grid = cfg.build_grid()
    momenta = {tuple(np.round(k, 12)) for k in grid.k}
    assert len(calls) == len(set(calls)) == len(momenta)
    assert tuple(cfg.params.p_total) not in calls
