import json
import logging
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randchain import chain, cli, exact, schmidt, tridiag
from randchain.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, UsageError, parse_grid, parse_law, run


def test_parse_grid_linear_and_geometric():
    lin = parse_grid("0:4:5")
    assert np.array_equal(lin, [0.0, 1.0, 2.0, 3.0, 4.0])
    geo = parse_grid("g1e-2:1:3")
    assert geo == pytest.approx([0.01, 0.1, 1.0])
    with pytest.raises(ValueError):
        parse_grid("1:2")
    with pytest.raises(ValueError):
        parse_grid("g-1:2:5")


def test_parse_law_variants():
    assert isinstance(parse_law("const:1.5"), chain.Constant)
    assert isinstance(parse_law("gamma:1:1"), chain.Gamma)
    assert isinstance(parse_law("twopoint:1:2:0.3"), chain.TwoPoint)
    assert isinstance(parse_law("gauss:0.1"), chain.GaussianPotential)
    with pytest.raises(ValueError):
        parse_law("weird:1")
    with pytest.raises(ValueError):
        parse_law("gamma:1")


def test_pure_prints_half(capsys):
    assert run(["pure", "--what", "idos", "--x", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.5"


def test_pure_without_x_or_grid_is_usage_error(tmp_path, capsys):
    assert run(["pure", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error: pure needs --x or --grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, csv, header, n_rows", [
    (["pure", "--what", "dos", "--grid", "0.5:3.5:4"], "pure_dos.csv", "x,D", 4),
    (["exact", "--what", "omega", "--alpha", "2", "--kappa", "1", "--grid", "0.5:2:4"], "exact_omega.csv", "x,Omega", 4),
    (["schmidt", "--op", "density", "--kind", "xi", "--law", "gamma:1:1", "--x", "1",
      "--grid", "0.005:8:80", "--iters", "20"], "schmidt_density.csv", "point,weight", 80),
    (["schmidt", "--op", "density", "--kind", "ratio2", "--law", "twopoint:1:2:0.5", "--x", "1",
      "--grid=-40:40:401", "--iters", "30"], "schmidt_density.csv", "point,weight", 401),
], ids=["pure-grid", "exact-omega", "density-xi", "density-ratio2"])
def test_grid_commands_write_finite_csv(tmp_path, argv, csv, header, n_rows):
    # Paths no other test runs: each writes its CSV of finite values.
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / csv).read_text().splitlines()
    assert lines[0] == header and len(lines) == n_rows + 1
    assert np.all(np.isfinite([[float(v) for v in line.split(",")] for line in lines[1:]]))


def test_schmidt_omega2_prints_a_finite_value(capsys):
    argv = ["schmidt", "--op", "omega2", "--law", "twopoint:1:2:0.5", "--x", "5", "--samples", "2000"]
    assert run(argv) == EXIT_OK
    assert np.isfinite(float(capsys.readouterr().out.strip()))


def test_unknown_flag_usage_exit():
    assert run(["pure", "--bogus", "1"]) == EXIT_USAGE
    assert run(["nonsense"]) == EXIT_USAGE


def _idos_mpmath_dc(alpha: float, kappa: float, x: float) -> float:
    # Oracle: M = -Im(d/dc [Gamma(c) U(c, 1, z)] / (Gamma(c) U(c, 1, z))) / pi
    # at c = alpha, z = -kappa x + i0, as in test_exact.py.
    with mpmath.workdps(30):
        z = mpmath.mpc(-kappa * x, mpmath.mpf(10) ** -25)

        def scaled_u(c):
            return mpmath.gamma(c) * mpmath.hyperu(c, 1, z)

        return float(-mpmath.im(mpmath.diff(scaled_u, alpha) / scaled_u(alpha)) / mpmath.pi)


def test_numeric_failure_exit(tmp_path):
    # Non-integer alpha at kappa x > 100 takes the one route of every alpha:
    # exit 0 and M of the mpmath c-derivative.  Exit 3 is covered by
    # test_lyapunov_nonfinite_estimate_exits_numeric.
    assert run(["exact", "--alpha", "4.5", "--kappa", "30", "--grid", "4:5:2", "--out", str(tmp_path)]) == EXIT_OK
    table = np.loadtxt(tmp_path / "exact_idos.csv", delimiter=",", skiprows=1)
    for x, m in table:
        assert abs(m - _idos_mpmath_dc(4.5, 30.0, x)) <= 1e-10, x


def test_exact_takes_non_integer_alpha_up_to_three(tmp_path):
    assert run(["exact", "--alpha", "1.5", "--kappa", "1", "--grid", "1:2:2", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "exact_idos.csv").read_text().splitlines()[0] == "x,M"


def test_exact_dos_negative_density_exits_numeric(tmp_path):
    # Beyond the band edge at alpha = 20 the density falls from 0.25 to
    # 4e-19 and stays positive; the CSV holds dos_exact's values.
    argv = ["exact", "--alpha", "20", "--kappa", "20", "--what", "dos", "--grid", "4:8:9", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    lines = (tmp_path / "exact_dos.csv").read_text().splitlines()
    mus = parse_grid("4:8:9")
    expected = exact.dos_exact(chain.Gamma(20.0, 20.0), mus)
    assert np.all(expected > 0) and np.all(np.diff(expected) < 0)
    assert lines[1:] == [f"{m:.12g},{d:.12g}" for m, d in zip(mus, expected)]


def test_io_failure_exit(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run(
        ["pure", "--what", "idos", "--grid", "0:4:5", "--out", str(blocker / "sub")]
    )
    assert code == EXIT_IO


def test_csv_outputs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = [
        "schmidt", "--op", "nodefrac", "--law", "twopoint:1:2:0.3",
        "--grid", "0.5:3.5:4", "--samples", "2000", "--seed", "7",
    ]
    assert run(argv + ["--out", str(d1)]) == EXIT_OK
    assert run(argv + ["--out", str(d2)]) == EXIT_OK
    f1 = (d1 / "schmidt_idos.csv").read_bytes()
    f2 = (d2 / "schmidt_idos.csv").read_bytes()
    assert f1 == f2


@pytest.mark.parametrize("where", [["--x", "-1"], ["--grid=-1:1:3"]])
def test_schmidt_nodefrac_negative_omega_sq_is_usage_error(tmp_path, capsys, where):
    argv = ["schmidt", "--op", "nodefrac", "--law", "const:1", *where, "--out", str(tmp_path)]
    assert run(argv) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    *(["exact", "--alpha", "1", "--kappa", "1", "--what", what, "--grid=-1:1:3"] for what in ("idos", "dos", "omega")),
    ["exact", "--alpha", "1", "--kappa", "1", "--grid", "0:1:3"],
    ["pure", "--what", "idos", "--grid=-1:1:3"],
    ["pure", "--x", "-1"],
])
def test_out_of_domain_grid_is_usage_error(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_nodefrac_grid_matches_pointwise_node_fractions(tmp_path):
    # One chain counted at every grid point writes what one call per
    # point writes: each call redraws the same chain from the seed.
    argv = [
        "schmidt", "--op", "nodefrac", "--law", "twopoint:1:2:0.3",
        "--grid", "0.1:4.4:9", "--samples", "3000", "--seed", "5", "--out", str(tmp_path),
    ]
    assert run(argv) == EXIT_OK
    rows = (tmp_path / "schmidt_idos.csv").read_text().splitlines()[1:]
    law = chain.TwoPoint(1.0, 2.0, 0.3)
    want = [
        f"{w2:.12g},{schmidt.idos_node_fraction(law, 1.0, float(w2), 3000, seed=5):.12g}"
        for w2 in parse_grid("0.1:4.4:9")
    ]
    assert rows == want


def test_one_point_nodefrac_grid_writes_its_csv(tmp_path, capsys):
    # A --grid of one point writes a one-row CSV, as pure and exact do;
    # only a bare --x prints its number instead.
    argv = ["schmidt", "--op", "nodefrac", "--law", "twopoint:1:2:0.3", "--samples", "3000", "--seed", "5"]
    assert run([*argv, "--grid", "1.5:2:1", "--out", str(tmp_path / "grid")]) == EXIT_OK
    assert not capsys.readouterr().out
    rows = (tmp_path / "grid" / "schmidt_idos.csv").read_text().splitlines()
    assert (tmp_path / "grid" / "schmidt_manifest.json").exists()
    assert run([*argv, "--x", "1.5", "--out", str(tmp_path / "x")]) == EXIT_OK
    assert rows == ["omega_sq,M", f"1.5,{capsys.readouterr().out.strip()}"]
    assert not (tmp_path / "x").exists()


def test_manifest_records_run(tmp_path):
    argv = [
        "scaling", "--grid=-2:2:5", "--out", str(tmp_path), "--prefix", "sc", "--seed", "3",
    ]
    assert run(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "sc_manifest.json").read_text())
    assert manifest["command"] == "scaling"
    assert manifest["seed"] == 3
    assert manifest["tool_version"]
    assert manifest["output_files"] == [str(tmp_path / "sc_scaling.csv")]
    header = (tmp_path / "sc_scaling.csv").read_text().splitlines()[0]
    assert header == "x,F,F_rotated,dos_scale,dos_scale_rotated"


def test_exact_csv_headers_name_quantities(tmp_path):
    assert run(["exact", "--alpha", "1", "--kappa", "1", "--grid", "g0.5:2:3", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "exact_idos.csv").read_text().splitlines()
    assert lines[0] == "x,M"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "what,header,fn", [("idos", "x,M", "idos_exact"), ("dos", "mu,D", "dos_exact")], ids=["idos", "dos"]
)
def test_exact_csv_matches_pointwise_calls(tmp_path, what, header, fn):
    argv = ["exact", "--alpha", "1", "--kappa", "1", "--what", what, "--grid", "0.5:1:2", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    lines = (tmp_path / f"exact_{what}.csv").read_text().splitlines()
    xs = np.array([0.5, 1.0])
    vals = getattr(exact, fn)(chain.Gamma(1.0, 1.0), xs)
    assert lines == [header] + [f"{x:.12g},{v:.12g}" for x, v in zip(xs, vals)]


def test_exact_covers_singular_region(tmp_path):
    assert run(
        ["exact", "--alpha", "1", "--kappa", "1", "--grid", "g1e-6:4:12", "--out", str(tmp_path)]
    ) == EXIT_OK
    rows = (tmp_path / "exact_idos.csv").read_text().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    ms = np.array([float(r.split(",")[1]) for r in rows])
    assert xs[0] == pytest.approx(1e-6)
    assert np.all(np.diff(ms) >= -1e-9)
    assert 0.0 < ms[0] < 0.05


def test_lyapunov_csv(tmp_path):
    argv = [
        "lyapunov", "--model", "type2", "--law", "twopoint:1:2:0.5",
        "--grid", "1:3:2", "--steps", "20000", "--seed", "1", "--out", str(tmp_path),
    ]
    assert run(argv) == EXIT_OK
    lines = (tmp_path / "lyapunov_gamma.csv").read_text().splitlines()
    assert lines[0] == "omega_sq,gamma,stderr"
    assert len(lines) == 3


_LYAPUNOV_CSV = {
    ("type1", "gamma:2:2", "0.5:3:3", "1234"): """omega_sq,gamma,stderr
0.5,0.0731910108825,0.00740045223321
1.75,0.142282889662,0.0124103162161
3,0.23607081122,0.014044961619
""",
    ("type2", "twopoint:1:2:0.5", "0.5:3:3", "1000"): """omega_sq,gamma,stderr
0.5,0.0128586103385,0.00510954779655
1.75,0.112248546303,0.00949160764505
3,0.506076696682,0.0207658474784
""",
    ("anderson", "gauss:0.1", "-3:3:3", "1500"): """E,gamma,stderr
-3,0.953490066696,0.00327108291824
0,0.0142597582057,0.00266184188023
3,0.959365429733,0.00311711580151
""",
}


@pytest.mark.parametrize("model, law, grid, steps", list(_LYAPUNOV_CSV))
def test_lyapunov_csv_text_is_pinned(tmp_path, model, law, grid, steps):
    # Computed by the per-energy, per-step loop the chunked sweep replaced.
    argv = ["lyapunov", "--model", model, "--law", law, f"--grid={grid}", "--steps", steps,
            "--seed", "7", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    assert (tmp_path / "lyapunov_gamma.csv").read_text() == _LYAPUNOV_CSV[model, law, grid, steps]


@pytest.mark.parametrize("flags", [["--steps", "999"], ["--spring-k", "0"], ["--spring-k=-1"], ["--spring-k", "nan"],
                                   ["--model", "type1", "--grid=-1:1:3"]])
def test_lyapunov_bad_steps_or_spring_are_usage_errors(tmp_path, capsys, flags):
    argv = ["lyapunov", "--model", "type2", "--law", "const:1", "--grid", "1:2:2", *flags, "--out", str(tmp_path)]
    assert run(argv) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--op", "density", "--law", "gamma:1:1", "--grid", "g1e-3:10:20", "--iters", "0"],
    ["--op", "density", "--law", "gamma:1:1", "--grid", "g1e-3:10:20", "--iters=-3"],
    ["--op", "density", "--law", "gamma:1:1", "--grid", "g1e-3:10:20", "--x", "0"],
    ["--op", "density", "--law", "const:1", "--kind", "ratio2", "--grid=-5:5:20", "--spring-k", "0"],
    ["--op", "omega", "--law", "const:1", "--x=-1"],
    ["--op", "omega", "--law", "const:1", "--burn-in=-1"],
    ["--op", "omega2", "--law", "const:1", "--x", "nan"],
    ["--op", "omega2", "--law", "const:1", "--samples", "0"],
    ["--op", "omega2", "--law", "const:1", "--spring-k", "0"],
    ["--op", "omega", "--law", "gauss:1"],
    ["--op", "omega2", "--law", "gauss:1"],
    ["--op", "density", "--kind", "ratio2", "--law", "gamma:1:1", "--x", "1", "--grid", "0.01:20:40", "--iters", "3"],
])
def test_schmidt_degenerate_runs_are_usage_errors(tmp_path, capsys, argv):
    # Refused before any work: no traceback, no NaN printed with exit 0.
    assert run(["schmidt", *argv, "--out", str(tmp_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["xi", "ratio2"])
def test_schmidt_density_without_grid_is_usage_error(tmp_path, capsys, kind):
    # The density iteration starts from the grid; without one it died with
    # an AttributeError traceback and exit 1.
    argv = ["schmidt", "--op", "density", "--kind", kind, "--law", "gamma:1:1", "--x", "1", "--iters", "3"]
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--grid" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--alpha", "1", "--kappa", "nan"], ["--alpha", "1", "--kappa", "inf"],
                                   ["--alpha", "nan", "--kappa", "1"], ["--alpha", "inf", "--kappa", "1"]])
def test_exact_nonfinite_parameters_are_usage_errors(tmp_path, capsys, flags):
    assert run(["exact", *flags, "--grid", "1:2:2", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_lyapunov_nonfinite_estimate_exits_numeric(tmp_path):
    # omega^2 m / K overflows for K = 1e-320: no CSV of NaNs is written, and
    # stderr holds the one numeric error, no numpy warning.  A fresh
    # interpreter under -W error shows that; pytest would capture warnings.
    argv = ["lyapunov", "--model", "type2", "--law", "const:1", "--grid", "1:2:2", "--steps", "5000",
            "--spring-k", "1e-320", "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "randchain.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERIC
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error:") and "non-finite" in err[0], err
    assert not (tmp_path / "lyapunov_gamma.csv").exists()


@pytest.mark.parametrize("model", ["type1", "type2"])
def test_lyapunov_rejects_signed_law_for_sprung_chains(tmp_path, capsys, model):
    # Masses and couplings must be positive: a Gaussian law is a usage
    # error known before any draw, so no CSV of NaNs or of negative masses
    # is written.
    argv = [
        "lyapunov", "--model", model, "--law", "gauss:1",
        "--grid", "0.5:3:2", "--steps", "20000", "--out", str(tmp_path),
    ]
    assert run(argv) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())



# The library refuses each argument once; run() reports a ValueError as a
# usage error (exit 2) and an ArithmeticError as a numeric error (exit 3).
@pytest.mark.parametrize("argv,code", [
    # Library refusals that exited 3 before the rule.
    ("dos --law gamma:1:1 --size 11 --realizations 1 --grid=-1:2:5", EXIT_USAGE),
    ("schmidt --op density --kind xi --law gamma:1:1 --x 1 --grid=-3:2:20 --iters 3", EXIT_USAGE),
    ("exact --alpha 1 --kappa 1 --what omega --grid 1e307:1.5e307:2", EXIT_USAGE),
    ("schmidt --op nodefrac --law const:1e-320 --grid 0.1:4:3 --samples 100", EXIT_USAGE),
    # Failed computations.
    ("schmidt --op density --law const:1 --x 2 --grid g1e-4:2e-4:30 --iters 3", EXIT_NUMERIC),
    ("lyapunov --model type2 --law const:1 --spring-k 1e-320 --grid 1:2:2 --steps 2000", EXIT_NUMERIC),
    ("exact --alpha 1 --kappa 1 --what dos --grid g1e-320:1:3", EXIT_NUMERIC),
    # One refusal per command that left its check to the library.
    ("pure --x -1", EXIT_USAGE),
    ("exact --alpha 0 --kappa 1 --grid 1:2:2", EXIT_USAGE),
    ("exact --alpha 1 --kappa 1 --grid 0:1:3", EXIT_USAGE),
    ("schmidt --op density --law gamma:1:1 --grid g1e-3:10:20 --iters 0", EXIT_USAGE),
    ("schmidt --op omega --law const:1 --x=-1", EXIT_USAGE),
    ("schmidt --op density --kind ratio2 --law gamma:1:1 --x 1 --grid 0.01:20:40 --iters 3", EXIT_USAGE),
    ("schmidt --op nodefrac --law gauss:1 --grid 0.5:1:3", EXIT_USAGE),
    ("lyapunov --model type2 --law const:1 --grid 1:2:2 --steps 999", EXIT_USAGE),
    ("lyapunov --model type1 --law gauss:1 --grid 0.5:3:2 --steps 2000", EXIT_USAGE),
    ("scaling --grid=-40:40:3", EXIT_USAGE),
    ("scaling --grid 0:7:8", EXIT_USAGE),
    ("betaens --pairs 0 --beta 2 --samples 2", EXIT_USAGE),
    # Runs that wrote NaN with exit 0, leaked, or warned before their refusal.
    ("exact --alpha 1e-150 --kappa 1 --grid 1:2:2", EXIT_NUMERIC),
    ("schmidt --op density --kind xi --law gamma:1:1 --x 1 --grid=-1:2:31 --iters 3", EXIT_USAGE),
    ("betaens --c-over-n 1e300 --pairs 5 --samples 2", EXIT_NUMERIC),
])
def test_refusal_census(tmp_path, capsys, argv, code):
    assert run([*argv.split(), "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    prefix = "usage error: " if code == EXIT_USAGE else "numeric error: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    assert not captured.out
    assert not list(tmp_path.iterdir())


def test_exact_idos_near_zero_writes_finite_m(tmp_path):
    # The grid on which --what dos refuses D: M is finite there, and the
    # run warns nothing (the suite turns numpy warnings into errors).
    argv = ["exact", "--alpha", "1", "--kappa", "1", "--what", "idos", "--grid", "g1e-320:1:3", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    table = np.loadtxt(tmp_path / "exact_idos.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and np.all((table[:, 1] > 0) & (table[:, 1] < 1))

def test_betaens_csv(tmp_path):
    argv = ["betaens", "--pairs", "20", "--beta", "2", "--samples", "3", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    spectrum = (tmp_path / "betaens_spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "y,cdf"
    assert len(spectrum) == 61  # 3 samples x 20 pairs + header


def test_dos_csv_with_exact_overlay(tmp_path):
    argv = [
        "dos", "--law", "gamma:1:1", "--size", "401", "--realizations", "2",
        "--grid", "0.5:3.5:7", "--seed", "2", "--out", str(tmp_path),
    ]
    assert run(argv) == EXIT_OK
    lines = (tmp_path / "dos_dos.csv").read_text().splitlines()
    assert lines[0] == "mu,D_empirical,D_exact"


def test_dos_overlays_exact_at_non_integer_alpha_on_the_whittaker_route(tmp_path):
    # dos_exact serves alpha = 1.5 through the lip solve.
    argv = ["dos", "--law", "gamma:1.5:1", "--grid", "0.1:3:5", "--realizations", "1", "--size", "101",
            "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    lines = (tmp_path / "dos_dos.csv").read_text().splitlines()
    assert lines[0] == "mu,D_empirical,D_exact"
    edges = parse_grid("0.1:3:5")
    centers = 0.5 * (edges[1:] + edges[:-1])
    expected = exact.dos_exact(chain.Gamma(1.5, 1.0), centers)
    rows = [r.split(",") for r in lines[1:]]
    assert [r[0] for r in rows] == [f"{v:.12g}" for v in centers]
    assert [r[2] for r in rows] == [f"{v:.12g}" for v in expected]


def test_dos_overlays_exact_at_every_gamma_law(tmp_path):
    # Non-integer alpha = 1.5 with kappa max(mu) = 50 * 2.6375 > 100: one
    # route serves every gamma law, so the column is always written.
    argv = ["dos", "--law", "gamma:1.5:50", "--grid", "0.1:3:5", "--realizations", "1", "--size", "101",
            "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    lines = (tmp_path / "dos_dos.csv").read_text().splitlines()
    assert lines[0] == "mu,D_empirical,D_exact"
    edges = parse_grid("0.1:3:5")
    expected = exact.dos_exact(chain.Gamma(1.5, 50.0), 0.5 * (edges[1:] + edges[:-1]))
    assert [r.split(",")[2] for r in lines[1:]] == [f"{v:.12g}" for v in expected]


@pytest.mark.parametrize("flag,value", [("--realizations", "0"), ("--realizations", "-1"),
                                        ("--size", "1"), ("--size", "2"), ("--size", "4"), ("--size", "400"),
                                        ("--grid", "0.5:3.5:1"), ("--law", "gauss:1")])
def test_dos_rejects_degenerate_runs(tmp_path, capsys, flag, value):
    # No realization, a chain without a frequency pair, an even size (the
    # lattice has 2N-1 sites), a grid without a bin or a signed potential
    # for couplings: refused before any CSV is written.  The chain spec
    # refuses the potential, in the library's words.
    argv = ["dos", "--law", "gamma:1:1", "--grid", "0.5:3.5:7", "--out", str(tmp_path), flag, value]
    assert run(argv) == EXIT_USAGE
    assert ("signed potential" if flag == "--law" else flag) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("budget", [1, 3 * (401 + 2 * 10), cli._DOS_BLOCK_ELEMENTS])
def test_dos_blocks_match_one_realization_at_a_time(tmp_path, monkeypatch, budget):
    # Blocks of 1, 3 and all 7 realizations give the bytes of a plain loop
    # over one-matrix counts.
    monkeypatch.setattr(cli, "_DOS_BLOCK_ELEMENTS", budget)
    argv = ["dos", "--law", "gamma:2.5:1", "--size", "401", "--realizations", "7",
            "--grid", "0.2:5:10", "--seed", "4", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    edges = np.linspace(0.2, 5.0, 10)
    acc = np.zeros(edges.size - 1)
    for s in range(7):
        h = chain.anderson_hopping(chain.ChainSpec(chain.TYPE_I, 201, chain.Gamma(2.5, 1.0), seed=(4, s)))
        acc += np.diff(chain.empirical_idos(h, edges)) / np.diff(edges)
    rows = (tmp_path / "dos_dos.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == [f"{v:.12g}" for v in acc / 7]


_BETAENS_CSV = {
    ("--beta", "2", "--pairs", "6", "--samples", "3"): {
        "spectrum": """y,cdf
0.134872385494,0.0555555555556
0.165578451515,0.111111111111
0.441681586071,0.166666666667
0.888907545277,0.222222222222
0.91448701235,0.277777777778
1.05216087663,0.333333333333
2.03231008063,0.388888888889
2.42860180131,0.444444444444
3.14311980549,0.5
4.80892939822,0.555555555556
5.25925570166,0.611111111111
7.35017210464,0.666666666667
7.38878838085,0.722222222222
9.53174408586,0.777777777778
11.4485154234,0.833333333333
12.9632168555,0.888888888889
17.0296760826,0.944444444444
26.2570980695,1
""",
        "mp_target": """mu,D
0.00561968272894,8.46838285082
0.00689910214648,7.63801527746
0.0184033994196,4.64940758555
0.0370378143865,3.24610126671
0.0381036255146,3.19860871913
0.0438400365261,2.97310294257
0.0846795866927,2.09303905523
0.101191741721,1.89732231432
0.130963325229,1.63992629155
0.200372058259,1.27176106236
0.219135654236,1.20174243609
0.306257171027,0.958156043438
0.307866182535,0.954540070532
0.397156003577,0.784335779872
0.477021475974,0.666581236451
0.540134035647,0.587414935457
0.709569836777,0.407289683375
""",
    },
    ("--c-over-n", "1", "--pairs", "8", "--samples", "2"): {
        "spectrum": """y,cdf
5.68534613306e-08,0.0625
1.12482385824e-05,0.125
0.00132193003584,0.1875
0.0201480319103,0.25
0.0822305789493,0.3125
0.189301595758,0.375
0.206913453321,0.4375
0.224091040954,0.5
0.391440126185,0.5625
0.438932118407,0.625
0.668788669093,0.6875
1.97798047819,0.75
2.1602205596,0.8125
2.65682262447,0.875
3.7629874535,0.9375
3.85703840078,1
""",
        # The 40-point target grid runs from 1e-6 to the largest sampled y.
        "whittaker_target": """mu,D
1e-06,5401.84764698
1.47529308481e-06,3873.82329409
2.61442179895,0.076372617012
3.85703840078,0.0376371727469
""",
    },
}


@pytest.mark.parametrize("flags", list(_BETAENS_CSV))
def test_betaens_csv_text_is_pinned(tmp_path, flags):
    # Computed by the one-sample-at-a-time loop the batched bisection replaced.
    assert run(["betaens", *flags, "--seed", "5", "--out", str(tmp_path)]) == EXIT_OK
    for name, text in _BETAENS_CSV[flags].items():
        got = (tmp_path / f"betaens_{name}.csv").read_text()
        if name == "whittaker_target":
            lines = got.splitlines(keepends=True)
            assert len(lines) == 41
            got = "".join(lines[:3] + lines[-2:])
        assert got == text


@pytest.mark.parametrize("budget", [1, 2 * 20 * 41])
def test_betaens_blocks_match_one_batch(tmp_path, monkeypatch, budget):
    # Blocks of 1 and 2 samples give the bytes of the 5 samples in one batch.
    argv = ["betaens", "--pairs", "20", "--beta", "1.5", "--samples", "5", "--seed", "3"]
    assert run([*argv, "--out", str(tmp_path / "one")]) == EXIT_OK
    monkeypatch.setattr(cli, "_BETAENS_BLOCK_ELEMENTS", budget)
    assert run([*argv, "--out", str(tmp_path / "blocks")]) == EXIT_OK
    for name in ("spectrum", "mp_target"):
        one = (tmp_path / "one" / f"betaens_{name}.csv").read_bytes()
        assert (tmp_path / "blocks" / f"betaens_{name}.csv").read_bytes() == one


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_betaens_without_samples_is_usage_error(tmp_path, capsys, samples):
    argv = ["betaens", "--pairs", "10", "--beta", "2", "--samples", samples, "--out", str(tmp_path)]
    assert run(argv) == EXIT_USAGE
    assert "--samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_betaens_c_over_n_target_stops_at_whittaker_range(tmp_path):
    # Large c puts sampled y beyond mu = 100; the target grid still ends at
    # the largest sampled y, and the run completes with its manifest.
    argv = ["betaens", "--pairs", "50", "--c-over-n", "30", "--samples", "2", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    assert (tmp_path / "betaens_manifest.json").exists()
    spectrum = np.loadtxt(tmp_path / "betaens_spectrum.csv", delimiter=",", skiprows=1)
    target = np.loadtxt(tmp_path / "betaens_whittaker_target.csv", delimiter=",", skiprows=1)
    assert spectrum[:, 0].max() > 100.0
    assert target[-1, 0] == spectrum[:, 0].max()
    assert target.shape == (40, 2)


def test_betaens_large_c_target_matches_mpmath(tmp_path):
    # At c = 30 the target runs through the turning point; D against
    # 1/(Gamma(c) Gamma(c+1) |W|^2) from mpmath at its ends and middle.
    argv = ["betaens", "--pairs", "50", "--c-over-n", "30", "--samples", "2", "--seed", "5", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    target = np.loadtxt(tmp_path / "betaens_whittaker_target.csv", delimiter=",", skiprows=1)
    for mu, dens in target[[0, 20, -1]]:
        with mpmath.workdps(30):
            w = mpmath.whitw(-29.5, 0, mpmath.mpc(-mu, 1e-25 * max(mu, 1.0)))
            ref = float(1 / (mpmath.gamma(30) * mpmath.gamma(31) * abs(w) ** 2))
        assert dens == pytest.approx(ref, rel=1e-6, abs=0), mu


def test_betaens_target_holds_past_the_double_range(tmp_path):
    # Gamma(c) Gamma(c+1) |W|^2 is not a double at c = 150; D still is.
    argv = ["betaens", "--pairs", "50", "--c-over-n", "150", "--samples", "2", "--out", str(tmp_path)]
    assert run(argv) == EXIT_OK
    target = np.loadtxt(tmp_path / "betaens_whittaker_target.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(target[:, 1]) & (target[:, 1] > 0))


def test_betaens_target_failure_writes_no_files(tmp_path, monkeypatch, capsys):
    # The target is computed before any CSV is written.
    def failing(c, mu):
        raise ArithmeticError("no target")

    monkeypatch.setattr(cli.betaens, "con_density", failing)
    argv = ["betaens", "--pairs", "8", "--c-over-n", "1", "--samples", "2", "--out", str(tmp_path)]
    assert run(argv) == EXIT_NUMERIC
    assert "no target" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_config_file_defaults_and_override(tmp_path, capsys):
    # The file applies as `--config PATH` and as `--config=PATH`, before or
    # after the subcommand.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("what = idos\nx = 2\n")
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        for head in ([*config, "pure"], ["pure", *config]):
            assert run(head) == EXIT_OK, head
            assert capsys.readouterr().out.strip() == "0.5"
            # explicit flag wins over the config value
            assert run([*head, "--x", "4"]) == EXIT_OK, head
            assert capsys.readouterr().out.strip() == "1"
    # An abbreviated --config is refused, not ignored.
    assert run(["--conf", str(cfg), "pure", "--x", "4"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def _run_outcome(argv, where: Path, capsys) -> tuple:
    """Exit code, printed text and written files (manifest timestamps aside) of one run in where."""
    where.mkdir()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        code = run(argv)
    finally:
        os.chdir(cwd)
    printed = capsys.readouterr()
    files = {}
    for path in sorted(where.iterdir()):
        if path.suffix == ".json":
            files[path.name] = {k: v for k, v in json.loads(path.read_text()).items() if k != "timestamp"}
        else:
            files[path.name] = path.read_bytes()
    return code, printed.out, printed.err, files


def test_reused_parser_runs_as_a_fresh_one(tmp_path, monkeypatch, capsys):
    # run() parses every command with one parser built at import.  Back to
    # back, commands of different subcommands, with a config file and with
    # usage errors give the exit codes, text and files that each gives as
    # the single call of a freshly built parser.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("what = idos\nx = 2\n")
    calls = [
        ["schmidt", "--op", "nodefrac", "--law", "twopoint:1:2:0.3", "--grid", "0.5:3:4", "--samples", "3000", "--seed", "5"],
        ["pure", "--config", str(cfg)],
        ["schmidt", "--op", "nodefrac", "--law", "twopoint:1:2:0.3", "--grid=-1:3:4"],
        ["exact", "--alpha", "1", "--kappa", "1", "--grid", "0.5:3:4"],
        ["pure", "--what", "dos", "--grid", "0.5:3:4", "--prefix", "p"],
        ["pure", "--config", str(cfg), "--x", "4"],
        ["schmidt", "--op", "omega", "--law", "gamma:1:1", "--samples", "2000"],
        ["bogus"],
        ["dos", "--law", "gamma:1:1", "--size", "41", "--realizations", "2", "--grid", "0.1:4:5", "--seed", "3"],
    ]
    back_to_back = [_run_outcome(argv, tmp_path / f"shared{i}", capsys) for i, argv in enumerate(calls * 2)]
    for i, argv in enumerate(calls):
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        single = _run_outcome(argv, tmp_path / f"single{i}", capsys)
        assert back_to_back[i] == single == back_to_back[i + len(calls)]
    assert [o[0] for o in back_to_back[:len(calls)]] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK,
                                                         EXIT_OK, EXIT_USAGE, EXIT_OK]


def test_debug_logs_of_verified_blocks_leave_csv_bytes(tmp_path, monkeypatch, caplog):
    # nodefrac counted in verified blocks, with their debug log on, writes
    # the bytes of the float loop with logging off.
    argv = ["schmidt", "--op", "nodefrac", "--law", "twopoint:1:2:0.3", "--grid", "0.1:4.4:12",
            "--samples", "3001", "--seed", "11"]
    assert run(argv + ["--out", str(tmp_path / "loop")]) == EXIT_OK
    monkeypatch.setattr(tridiag, "_BLOCK_SITES", 128)
    monkeypatch.setattr(tridiag, "_BLOCK_MIN", 1)
    caplog.set_level(logging.DEBUG)
    assert run(argv + ["--out", str(tmp_path / "blocks")]) == EXIT_OK
    assert any(m.startswith("Sturm counts: 12 lanes of 3001 sites, 23 blocks of 128") for m in caplog.messages)
    assert (tmp_path / "blocks" / "schmidt_idos.csv").read_bytes() == (tmp_path / "loop" / "schmidt_idos.csv").read_bytes()


def test_debug_logs_of_idos_counts_leave_csv_bytes(tmp_path, caplog):
    # dos on a pure chain probes x = 0 and 1, where pivots vanish and
    # their lanes are counted again; with the debug log on, the CSV has
    # the bytes of a run with logging off.
    argv = ["dos", "--law", "const:1", "--size", "11", "--realizations", "2", "--grid", "0:4:5", "--seed", "3"]
    assert run(argv + ["--out", str(tmp_path / "quiet")]) == EXIT_OK
    caplog.set_level(logging.DEBUG)
    assert run(argv + ["--out", str(tmp_path / "logged")]) == EXIT_OK
    assert "IDOS counts: 10 lanes counted once, 4 counted again at -sqrt(x)" in caplog.messages
    assert (tmp_path / "logged" / "dos_dos.csv").read_bytes() == (tmp_path / "quiet" / "dos_dos.csv").read_bytes()


def test_debug_log_of_omega_rule_leaves_csv_bytes(tmp_path, caplog):
    # The rule's gap to its even nodes is logged, and the CSV keeps the
    # bytes of a run with logging off.
    argv = ["exact", "--alpha", "2", "--kappa", "1", "--what", "omega", "--grid", "0.1:10:10"]
    assert run(argv + ["--out", str(tmp_path / "quiet")]) == EXIT_OK
    caplog.set_level(logging.DEBUG, logger="randchain.exact")
    assert run(argv + ["--out", str(tmp_path / "logged")]) == EXIT_OK
    (msg,) = caplog.messages
    gaps = re.fullmatch(r"K, L rule against its even nodes: K (\S+) relative, Omega (\S+)", msg).groups()
    assert max(float(g) for g in gaps) < 1e-12
    assert (tmp_path / "logged" / "exact_omega.csv").read_bytes() == (tmp_path / "quiet" / "exact_omega.csv").read_bytes()


def test_config_without_value_is_usage_error(capsys):
    assert run(["pure", "--config"]) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err


def test_schmidt_omega_scalar(capsys):
    assert run(["schmidt", "--op", "omega", "--law", "const:1", "--x", "2", "--samples", "5000"]) == EXIT_OK
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(2 * np.log(2), abs=1e-10)


def test_betaens_needs_exactly_one_regime(capsys):
    assert run(["betaens", "--pairs", "5"]) == EXIT_USAGE
    assert run(["betaens", "--pairs", "5", "--beta", "2", "--c-over-n", "1"]) == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--pairs", "5", "--beta", "-1"], ["--pairs", "0", "--beta", "2"]])
def test_betaens_rejected_spec_is_usage_error(tmp_path, capsys, argv):
    # Values only the ensemble spec rejects are refused before any sampling.
    assert run(["betaens", *argv, "--samples", "2", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_grid_and_law_are_usage_errors(tmp_path, capsys):
    assert run(["scaling", "--grid", "0:1", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    # A well-formed grid beyond the scaling functions' range |x| <= 30.
    assert run(["scaling", "--grid=-40:40:3", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    argv = ["lyapunov", "--model", "type2", "--law", "gamma:1", "--grid", "1:2:2", "--out", str(tmp_path)]
    assert run(argv) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["0:7:8", "-6:10:17", "6.5:20:3"])
def test_scaling_grid_past_rotated_range_is_usage_error(tmp_path, capsys, grid):
    # dos_scale_rotated has no correct digit far into the tail; such a grid
    # is refused before any CSV is written.
    assert run(["scaling", f"--grid={grid}", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_scaling_readme_grid_runs(tmp_path):
    assert run(["scaling", "--grid=-6:6:121", "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "scaling_scaling.csv").read_text().splitlines()) == 122


# ----------------------------------------------------------------------
# property tests of the grid and law syntax
# ----------------------------------------------------------------------

_points = st.integers(min_value=1, max_value=200)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=-1e6, max_value=1e6),
    width=st.floats(min_value=1e-3, max_value=1e6),
    n=_points,
)
def test_parse_grid_linear_round_trip(lo, width, n):
    hi = lo + width
    grid = parse_grid(f"{lo!r}:{hi!r}:{n}")
    assert grid.size == n
    assert grid[0] == lo
    if n > 1:
        assert grid[-1] == hi
    assert np.all(np.diff(grid) > 0)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=1e-12, max_value=1e6),
    ratio=st.floats(min_value=1.001, max_value=1e6),
    n=_points,
)
def test_parse_grid_geometric_round_trip(lo, ratio, n):
    hi = lo * ratio
    grid = parse_grid(f"g{lo!r}:{hi!r}:{n}")
    assert grid.size == n
    assert grid[0] == lo
    if n > 1:
        assert grid[-1] == hi
    assert np.all(grid > 0)
    assert np.all(np.diff(grid) > 0)


_positive = st.floats(min_value=1e-6, max_value=1e6)

_laws = st.one_of(
    st.builds(lambda v: ("const", (v,), chain.Constant(v)), _positive),
    st.builds(lambda a, r: ("gamma", (a, r), chain.Gamma(a, r)), _positive, _positive),
    st.builds(
        lambda m, big, q: ("twopoint", (m, big, q), chain.TwoPoint(m, big, q)),
        _positive,
        _positive,
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.builds(lambda v: ("gauss", (v,), chain.GaussianPotential(v)), _positive),
)


@settings(max_examples=60, deadline=None)
@given(law=_laws)
def test_parse_law_round_trip(law):
    kind, values, expected = law
    assert parse_law(":".join([kind, *(repr(v) for v in values)])) == expected


_number = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3).map(repr)
_malformed_grids = st.one_of(
    # wrong number of fields
    st.lists(_number, max_size=5).filter(lambda f: len(f) != 3).map(":".join),
    # a field that is not a number
    st.tuples(_number, st.sampled_from(["x", "", "1..2", "nan", "inf"]), st.integers(1, 9)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"
    ),
    # hi not above lo, or no points
    st.tuples(st.integers(-9, 9), st.integers(0, 9), st.integers(1, 9)).map(
        lambda t: f"{t[0]}:{t[0] - t[1]}:{t[2]}"
    ),
    st.tuples(st.integers(-9, 9), st.integers(-9, 0)).map(lambda t: f"{t[0]}:{t[0] + 1}:{t[1]}"),
    # geometric grid through zero
    st.tuples(st.integers(-9, 0), st.integers(1, 9)).map(lambda t: f"g{t[0]}:{t[1]}:3"),
)
_malformed_laws = st.one_of(
    st.sampled_from(["weird:1", "", "gamma", "gamma:1", "gamma:1:1:1", "twopoint:1:2", "const:x",
                     "const:nan", "gauss:inf", "const:-1", "gamma:0:1", "twopoint:1:2:1.5"]),
    st.text(alphabet="abcxyz", min_size=1).filter(lambda k: k not in ("const", "gamma", "twopoint", "gauss"))
    .map(lambda k: f"{k}:1"),
)


@settings(max_examples=60, deadline=None)
@given(spec=_malformed_grids)
def test_malformed_grid_exits_usage(spec):
    with pytest.raises(UsageError):
        parse_grid(spec)
    with tempfile.TemporaryDirectory() as out:
        assert run(["scaling", f"--grid={spec}", "--out", out]) == EXIT_USAGE
        assert not list(Path(out).iterdir())


@settings(max_examples=60, deadline=None)
@given(spec=_malformed_laws)
def test_malformed_law_exits_usage(spec):
    with pytest.raises(UsageError):
        parse_law(spec)
    with tempfile.TemporaryDirectory() as out:
        argv = ["lyapunov", "--model", "type2", f"--law={spec}", "--grid", "1:2:2", "--steps", "10", "--out", out]
        assert run(argv) == EXIT_USAGE
        assert not list(Path(out).iterdir())


def test_selftest_passes(capsys):
    assert run(["selftest"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)


def test_selftest_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    # A failing check is reported on its line, the run exits 3 and
    # nothing is written.
    checks = cli._selftest_checks()
    monkeypatch.setattr(cli, "_selftest_checks", lambda: [*checks[:1], ("always-fails", lambda: (False, "forced"))])
    assert run(["selftest", "--out", str(tmp_path)]) == EXIT_NUMERIC
    printed = capsys.readouterr()
    assert printed.out.splitlines()[0].startswith("PASS ")
    assert "FAIL always-fails: forced" in printed.out.splitlines()
    assert "1 selftest check(s) failed" in printed.err
    assert not list(tmp_path.iterdir())


_MODULE_PROBE = """
import json, sys, tempfile
import randchain, randchain.cli
from randchain import betaens, specfun
from randchain.cli import run

def heavy():
    return [m for m in ("scipy.linalg", "scipy.integrate", "scipy.stats") if m in sys.modules]

res = {"import": heavy()}
with tempfile.TemporaryDirectory() as out:
    light = [
        ["lyapunov", "--model", "type2", "--law", "twopoint:1:2:0.5", "--grid", "1:3:2", "--steps", "2000"],
        ["schmidt", "--op", "omega", "--law", "gamma:1:1", "--x", "1", "--samples", "2000"],
        ["scaling", "--grid=-6:6:13"],
        ["pure", "--what", "idos", "--x", "2"],
    ]
    res["light_codes"] = [run([*argv, "--out", out]) for argv in light]
    # Past the turning point the large-mu series alone serves |W|^2.
    specfun.whittaker_msq(1.0, 60.0)
    betaens.con_density(1.0, [50.0, 80.0])
    res["light"] = heavy()
    # Bisection takes its estimates from scipy.linalg's LAPACK.
    res["fixed_code"] = run(["betaens", "--beta", "2", "--pairs", "8", "--samples", "1", "--out", out])
    res["fixed"] = heavy()
    # The lip solve of the Whittaker law is numpy only.
    res["lip_codes"] = [
        run(["exact", "--alpha", "1", "--kappa", "1", "--grid", "g1e-3:1:3", "--out", out]),
        run(["exact", "--alpha", "1", "--kappa", "1", "--what", "dos", "--grid", "g1e-3:1:3", "--out", out]),
        run(["betaens", "--c-over-n", "1", "--pairs", "8", "--samples", "1", "--out", out]),
    ]
    res["lip"] = heavy()
    # Omega at positive argument is a numpy trapezoid sum.
    res["omega_code"] = run(["exact", "--alpha", "1", "--kappa", "1", "--what", "omega", "--grid", "0.5:1:2",
                             "--out", out])
    res["omega"] = heavy()
print(json.dumps(res))
"""


def test_light_commands_do_not_load_scipy_integrate_or_stats():
    # Importing randchain loads no scipy subpackage; scipy.special and
    # scipy.linalg (about 0.25 s of import each), scipy.integrate and
    # scipy.stats (about 1 s together) load only in the functions that use
    # them.  A fresh interpreter shows what loads.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["import"] == []
    assert res["light_codes"] == [EXIT_OK] * 4
    assert res["light"] == []
    assert res["fixed_code"] == EXIT_OK
    assert res["fixed"] == ["scipy.linalg"]
    assert res["lip_codes"] == [EXIT_OK] * 3
    assert res["lip"] == ["scipy.linalg"]
    assert res["omega_code"] == EXIT_OK
    assert res["omega"] == ["scipy.linalg"]


_SPECIAL_PROBE = """
import json, sys, tempfile
import randchain, randchain.cli
from randchain.cli import run

res = {"import": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}
with tempfile.TemporaryDirectory() as out:
    res["codes"] = [run([*argv, "--out", out]) for argv in json.loads(sys.argv[1])]
res["special"] = "scipy.special" in sys.modules
print(json.dumps(res))
"""


def _special_probe(commands):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _SPECIAL_PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["import"] == []
    assert res["codes"] == [EXIT_OK] * len(commands)
    return res["special"]


def test_only_special_function_routes_load_scipy_special():
    # scipy.special is imported inside the functions that call psi, psi',
    # Airy, the incomplete gamma or the normal cdf, so importing randchain
    # loads no scipy module, and a command that calls none of them leaves
    # scipy.special unloaded.  Each probe is a fresh interpreter.
    assert not _special_probe([
        ["pure", "--what", "idos", "--x", "2"],
        ["lyapunov", "--model", "type2", "--law", "twopoint:1:2:0.5", "--grid", "1:3:2", "--steps", "2000"],
        ["schmidt", "--op", "omega", "--law", "gamma:1:1", "--x", "1", "--samples", "2000"],
        ["betaens", "--beta", "2", "--pairs", "8", "--samples", "1"],
        ["exact", "--alpha", "1", "--kappa", "1", "--what", "omega", "--grid", "0.5:1:2"],
    ])
    # Airy serves scaling, and psi and psi' anchor the Whittaker lip solve.
    assert _special_probe([["scaling", "--grid=-6:6:13"]])
    assert _special_probe([["exact", "--alpha", "1", "--kappa", "1", "--grid", "g1e-3:1:3"]])


def test_readme_commands_run_as_documented(tmp_path, capsys):
    # Every line of the README's command block, at its own sizes, each
    # writing into a directory of its own.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", text, re.S | re.M).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(commands) == 10 and all(argv[0] == "randchain" for argv in commands)
    for i, argv in enumerate(commands):
        out = tmp_path / str(i)
        args = argv[1:]
        if "--out" in args:
            del args[args.index("--out") : args.index("--out") + 2]
        assert run([*args, "--out", str(out)]) == EXIT_OK, argv
        printed = capsys.readouterr().out
        if args[0] == "pure":
            assert printed.strip() == "0.5"
        csvs = sorted(out.glob("*.csv"))
        manifests = list(out.glob("*_manifest.json"))
        assert len(manifests) == (1 if csvs else 0), argv
        if csvs:
            manifest = json.loads(manifests[0].read_text())
            assert list(manifest) == ["command", "parameters", "seed", "tool_version", "timestamp",
                                      "output_files", "parallelism"], argv
            assert manifest["command"] == args[0], argv
            assert sorted(Path(f) for f in manifest["output_files"]) == csvs, argv
        for path in csvs:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert table.size and not np.isnan(table).any(), path
