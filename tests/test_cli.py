import json
import logging
import math

import pytest

from chargedfock import desitter, fock, harness
from chargedfock.cli import main
from chargedfock.config import ConfigError, RunConfig, build_space, load_config_file, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# checked-in run settings\nlevel_cutoff = 4\nlambda = 1/8\n", encoding="utf-8")
    cfg = resolve_config(str(path), {"seed": "5", "level_cutoff": None})
    assert cfg.level_cutoff == 4
    assert cfg.lam == "1/8"
    assert cfg.seed == 5
    assert cfg.alpha0 == "1/2"
    cfg2 = resolve_config(str(path), {"level_cutoff": "6"})
    assert cfg2.level_cutoff == 6  # flags beat the file


def test_config_rejects_unknown_and_duplicate_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(dup))


def test_config_validates_values():
    with pytest.raises(ConfigError):
        RunConfig(arithmetic="decimal")
    with pytest.raises(ConfigError):
        RunConfig(level_cutoff=-1)
    with pytest.raises(ConfigError):
        RunConfig(charge_window=(2, -2))
    with pytest.raises(ConfigError):
        resolve_config(None, {"charge_window": "1"})


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_one(capsys, tmp_path):
    assert main(["no-such-subcommand"]) == 1
    assert main(["verify-algebra", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n", encoding="utf-8")
    assert main(["verify-algebra", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["diverge-demo", "--output", "{dir}"],
        ["converge", "--m-list", "0,1", "--output", "{dir}"],
        ["converge", "--output", "{dir}/missing/series.csv"],
        ["verify-lorentz", "--level_cutoff", "4", "--output", "{dir}"],
        ["verify-lorentz", "--level_cutoff", "4", "--output", "{dir}/missing/report.json"],
        ["verify-algebra", "{dir}"],
    ],
    ids=[
        "diverge-demo-output",
        "converge-modes-output",
        "converge-missing-parent",
        "verify-lorentz-output",
        "verify-lorentz-missing-parent",
        "config",
    ],
)
def test_a_directory_as_a_path_is_one_error_line(capsys, caplog, tmp_path, argv):
    # writing a report or series to a directory, or reading one as a config,
    # used to end in a traceback, or in files named after the directory beside
    # it; an output path is refused before any work, so the error is the only
    # record, and nothing is written
    caplog.set_level(logging.INFO)
    beside = set(tmp_path.parent.iterdir())
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    assert [r.levelno for r in caplog.records] == [logging.ERROR]
    assert str(tmp_path) in caplog.records[0].getMessage()
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())
    assert set(tmp_path.parent.iterdir()) == beside


def test_verify_algebra_refuses_alpha0_zero_before_any_suite(capsys, caplog, tmp_path):
    # alpha0 = 0 admits no charged intertwiners: the refusal used to come from
    # the vertex family, after the current family's suites had run and logged
    caplog.set_level(logging.INFO)
    out = tmp_path / "report.json"
    assert main(["verify-algebra", "--level_cutoff", "2", "--alpha0", "0", "--output", str(out)]) == 1
    assert [r.levelno for r in caplog.records] == [logging.ERROR]
    assert "alpha0 = 0 admits no charged intertwiners" in caplog.records[0].getMessage()
    assert capsys.readouterr().out == ""
    assert not out.exists()
    # a zero charge on a nonzero alpha0 is still a charge on the lattice
    code, report = run(capsys, "verify-algebra", "--level_cutoff", "4", "--alpha_multiplier", "0")
    assert code == 0 and json.loads(report)["verdict"] == "pass"


def test_a_residual_past_every_modulus_is_one_error_line(capsys, caplog, tmp_path, monkeypatch):
    # a certified bound past the product of every modulus is refused, not
    # passed: one ERROR line and exit 1, and no report file, not even an
    # empty one, since the output path is checked without creating it
    def scaled(ctx, terms):
        return fock.residual(ctx, [(c * 2**300, chains) for c, chains in terms])

    monkeypatch.setattr(harness, "residual", scaled)
    out = tmp_path / "report.json"
    assert main(["verify-algebra", "--level_cutoff", "2", "--output", str(out)]) == 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "lower the level cutoff" in errors[0].getMessage()
    assert capsys.readouterr().out == ""
    assert not out.exists()


# each count option of each subcommand: a negative value used to run an empty
# sweep (zero records, exit 0) or an empty series
NEGATIVE_COUNTS = [
    ("verify-decay", "--n-max"),
    ("converge", "--n-max"),
    ("diverge-demo", "--n-max"),
    ("verify-commutativity", "--m-range"),
    ("verify-commutativity", "--samples"),
    ("verify-lorentz", "--samples"),
    ("verify-virasoro-c0", "--m-range"),
    ("verify-virasoro-c0", "--samples"),
    ("explore-d-half", "--m-range"),
    ("explore-d-half", "--n-max"),
]


@pytest.mark.parametrize("subcommand,option", NEGATIVE_COUNTS)
def test_negative_counts_are_usage_errors(capsys, subcommand, option):
    assert main([subcommand, option, "-1", "--level_cutoff", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: must be nonnegative, got -1" in err
    assert main([subcommand, option, "two"]) == 1
    assert f"argument {option}: expected an integer, got 'two'" in capsys.readouterr().err


# each count that leaves a series empty: converge and explore-d-half printed
# no band, diverge-demo no doubling, and each exited 0
EMPTY_SERIES = [
    ("converge", 0, 1),
    ("diverge-demo", 0, 2),
    ("diverge-demo", 1, 2),
    ("explore-d-half", 0, 1),
]


@pytest.mark.parametrize("subcommand,count,least", EMPTY_SERIES)
def test_counts_that_empty_a_series_are_usage_errors(capsys, caplog, subcommand, count, least):
    assert main([subcommand, "--n-max", str(count), "--level_cutoff", "4"]) == 1
    assert capsys.readouterr().out == ""
    assert f"--n-max {count} gives an empty series; it must be at least {least}" in caplog.text
    code, out = run(capsys, subcommand, "--n-max", str(least), "--level_cutoff", "4")
    assert code == 0
    if subcommand == "explore-d-half":
        assert len(json.loads(out)["band_partial_sums"]) == 1
    else:
        assert len(out.splitlines()) == 2  # the header and one row


# each count that makes a check vacuous: verify-decay's slope window (64,
# n_max) too short to fit, which warned and exited 3, and an --m-range of 0,
# which swept the trivial (0, 0) cell alone and exited 0
VACUOUS_COUNTS = [
    ("verify-decay", "--n-max", 65, 66, "leaves the slope window too short to fit", []),
    ("verify-commutativity", "--m-range", 0, 1, "checks only the trivial (0, 0) cell", []),
    (
        "verify-virasoro-c0",
        "--m-range",
        0,
        1,
        "checks only the trivial (0, 0) cell",
        ["--arithmetic", "exact-gaussian"],
    ),
    ("explore-d-half", "--m-range", 0, 1, "checks only the trivial (0, 0) cell", []),
]


@pytest.mark.parametrize(
    "subcommand,option,count,least,effect,extra", VACUOUS_COUNTS, ids=[c[0] for c in VACUOUS_COUNTS]
)
def test_counts_that_make_a_check_vacuous_are_usage_errors(
    capsys, caplog, subcommand, option, count, least, effect, extra
):
    assert main([subcommand, option, str(count), "--level_cutoff", "4", *extra]) == 1
    assert capsys.readouterr().out == ""
    assert f"{option} {count} {effect}; it must be at least {least}" in caplog.text
    code, out = run(capsys, subcommand, option, str(least), "--level_cutoff", "4", *extra)
    assert code == 0
    assert json.loads(out)["subcommand"] == subcommand


def test_verify_algebra_default_small(capsys):
    code, out = run(capsys, "verify-algebra", "--level_cutoff", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["subcommand"] == "verify-algebra"
    assert rep["verdict"] == "pass"
    assert sorted(rep["config"]) == [
        "alpha0",
        "alpha_multiplier",
        "arithmetic",
        "charge_window",
        "lambda",
        "level_cutoff",
        "output",
        "seed",
        "tolerance",
    ]


def test_verify_algebra_fault_injection_exits_two(capsys):
    code, out = run(
        capsys, "verify-algebra", "--level_cutoff", "6", "--inject-fault", "sugawara"
    )
    assert code == 2
    rep = json.loads(out)
    assert rep["verdict"] == "identity_failure"
    assert rep["failed_suite"] == "virasoro_bracket"
    assert rep["first_failure"] == {"m": -4, "n": 2, "sector": -2, "basis": [1]}


def test_verify_algebra_degenerate_cutoff(capsys):
    code, out = run(capsys, "verify-algebra", "--level_cutoff", "0")
    assert code == 0
    rep = json.loads(out)
    assert any("vacuous interior" in w for w in rep["warnings"])


def test_verify_decay_report(capsys):
    code, out = run(capsys, "verify-decay", "--level_cutoff", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_table"][1]["computed"] == "1/4"
    assert rep["slope"]["ok"]


def test_verify_decay_bounds_blocks_at_the_configured_charge(capsys, caplog):
    # at alpha0 = 1/sqrt(2) the blocks at 2 * alpha0 have norm above 1; the
    # bound is checked at the configured charge and at 1 instead
    code, out = run(
        capsys, "verify-decay", "--alpha0", "0.70710678", "--arithmetic", "float", "--tolerance", "1e-9"
    )
    assert code == 0
    rows = json.loads(out)["block_norms"]["rows"]
    assert sorted({row["alpha"] for row in rows}) == [0.70710678, 1.0]
    code, out = run(capsys, "verify-decay", "--alpha0", "2/3", "--alpha_multiplier", "-1", "--level_cutoff", "6")
    assert code == 0
    assert [row["alpha"] for row in json.loads(out)["block_norms"]["rows"]][::13] == ["-2/3", "1"]
    # charge 1 itself is checked once
    code, out = run(capsys, "verify-decay", "--alpha_multiplier", "2", "--level_cutoff", "6")
    assert code == 0
    assert {row["alpha"] for row in json.loads(out)["block_norms"]["rows"]} == {"1"}
    # past |alpha| = 1 the bound does not hold: a usage error, not a failed verdict
    code, out = run(capsys, "verify-decay", "--alpha_multiplier", "3", "--level_cutoff", "6")
    assert (code, out) == (1, "")
    assert "needs |alpha| <= 1; got alpha^2 = 9/4" in caplog.text


def test_converge_multi_mode_files(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    code, _ = run(
        capsys,
        "converge",
        "--m-list",
        "0,2",
        "--n-max",
        "8",
        "--output",
        str(out_path),
    )
    assert code == 0
    m0 = (tmp_path / "series_m0.csv").read_text(encoding="utf-8").splitlines()
    m2 = (tmp_path / "series_m2.csv").read_text(encoding="utf-8").splitlines()
    assert m0[0] == "band,band_norm_sq,partial_sum"
    assert m0[1].startswith("0,1,")
    assert len(m2) == 9


def test_converge_refuses_critical_charge(capsys):
    code, _ = run(capsys, "converge", "--alpha_multiplier", "2")
    assert code == 1


def test_diverge_demo_emits_growing_sums(capsys):
    code, out = run(capsys, "diverge-demo", "--n-max", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,partial_sum,increment"
    sums = [float(line.split(",")[1]) for line in lines[1:]]
    assert sums == sorted(sums)
    assert len(sums) == 6  # N = 2, 4, ..., 64


def test_verify_commutativity_small(capsys):
    code, out = run(
        capsys,
        "verify-commutativity",
        "--level_cutoff",
        "7",
        "--m-range",
        "1",
        "--samples",
        "0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["vacuum"]["all_exact_zero"]


def test_verify_commutativity_degenerate_cutoff_has_no_nan(capsys):
    # at cutoff 1 some applications are empty (tail 0) against unfittable
    # ones (tail inf); their product is 0, not NaN
    code, out = run(capsys, "verify-commutativity", "--level_cutoff", "1")
    assert "NaN" not in out
    rep = json.loads(out)
    exact_rows = [row for row in rep["vacuum"]["rows"] if row["exact_zero"]]
    assert exact_rows
    assert all(row["verdict"] == "pass" for row in exact_rows)
    assert code == 0


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("cutoff", ["1", "4"])
def test_reports_are_strict_json(capsys, cutoff):
    # unfittable band series give unbounded budgets; they are spelled out
    # instead of written as the non-JSON token Infinity
    code, out = run(capsys, "verify-commutativity", "--level_cutoff", cutoff)
    assert code == 0
    rep = _strict_loads(out)
    budgets = [row["budget"] for row in rep["vacuum"]["rows"] + rep["excited"]["rows"]]
    assert "unbounded" in budgets
    assert all(b == "unbounded" or math.isfinite(b) for b in budgets)


def test_verify_lorentz_unperturbed_is_exact(capsys):
    code, out = run(capsys, "verify-lorentz", "--level_cutoff", "6", "--lambda", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["verdict"] == "pass"
    assert rep["summary"]["max_abs_residual"] == 0.0
    assert all(r["tail_budget"] == 0.0 for r in rep["records"])


def test_verify_lorentz_refuses_supercritical(capsys):
    code, _ = run(capsys, "verify-lorentz", "--alpha_multiplier", "2", "--level_cutoff", "6")
    assert code == 1


def test_verify_virasoro_c0_needs_imaginary_scalars(capsys, caplog, tmp_path):
    # unset, the arithmetic defaults to exact-gaussian for this subcommand
    code, out = run(capsys, "verify-virasoro-c0", "--level_cutoff", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["arithmetic"] == "exact-gaussian"
    assert rep["summary"]["verdict"] == "pass"
    assert len(rep["coefficient_identity"]) > 0
    explicit = run(capsys, "verify-virasoro-c0", "--level_cutoff", "6", "--arithmetic", "exact-gaussian")
    assert explicit == (0, out)
    # exact-rational, set by the flag or by the config file, still refuses
    # the imaginary coefficients of lambda != 0
    cfg = tmp_path / "rational.cfg"
    cfg.write_text("arithmetic = exact-rational\n")
    message = "carries imaginary coefficients; use exact-gaussian or float arithmetic"
    for argv in (["--arithmetic", "exact-rational"], [str(cfg)]):
        caplog.clear()
        code, out = run(capsys, "verify-virasoro-c0", "--level_cutoff", "6", *argv)
        assert (code, out) == (1, "")
        assert message in caplog.text
    argv = ["--level_cutoff", "6", "--arithmetic", "exact-rational", "--lambda", "0"]
    code, out = run(capsys, "verify-virasoro-c0", *argv)
    assert code == 0
    assert json.loads(out)["config"]["arithmetic"] == "exact-rational"


def test_explore_d_half_reports_closure_at_unit_charge(capsys):
    code, out = run(
        capsys,
        "explore-d-half",
        "--alpha_multiplier",
        "2",
        "--level_cutoff",
        "6",
        "--n-max",
        "8",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["weight"] == "1/2"
    assert rep["closes_at_this_weight"]
    assert all(r["matches_prediction"] for r in rep["measured_gap"])


def test_float_explore_d_half_band_sums_are_the_converge_rows(capsys):
    # the float band series runs on the recurrence: past n ~ 170 a product of
    # factorials would overflow to nan and make the report non-JSON
    float_args = ("--arithmetic", "float", "--tolerance", "1e-9", "--n-max", "400")
    code, out = run(capsys, "explore-d-half", *float_args)
    assert code == 0
    bands = _strict_loads(out)["band_partial_sums"]
    code, csv = run(capsys, "converge", *float_args)
    assert code == 0
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert len(bands) == len(rows) == 400
    for band, (n, val, total) in zip(bands, rows):
        # 30 significant digits give each float back bit for bit
        assert (band["band"], band["band_norm_sq"], band["partial_sum"]) == (int(n), float(val), float(total))


def test_repeated_probe_samples_warn_and_stay_in_the_report(capsys, caplog):
    # at cutoff 3 only the vacuum fits below the buffer, so both seeded
    # samples draw the vacuum pair again
    code, out = run(capsys, "verify-lorentz", "--level_cutoff", "3")
    assert code == 0
    assert "repeat earlier pairs and check nothing new: sample-0 = vacuum-pair, sample-1 = vacuum-pair" in caplog.text
    probes = [r["probe"] for r in json.loads(out)["records"]]
    assert len(probes) == 36
    assert probes.count("vacuum-pair") == probes.count("sample-0") == probes.count("sample-1") == 9
    caplog.clear()
    run(capsys, "verify-lorentz", "--level_cutoff", "6")
    assert "repeat earlier pairs" not in caplog.text


def test_a_dropped_charge_step_probe_is_announced(capsys, caplog):
    # at charge step 2 the window -3..3 leaves interior sectors -1..1, so the
    # charge-step probe from sector 0 would need sector 2; stdout and exit
    # code stay those of a pass
    argv = ["--alpha0", "1/4", "--alpha_multiplier", "2", "--charge_window=-3,3", "--level_cutoff", "8"]
    code, out = run(capsys, "verify-lorentz", *argv)
    assert code == 0
    assert "charge-step-pair" not in {r["probe"] for r in json.loads(out)["records"]}
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "probe charge-step-pair dropped: sector 2, one charge step from sector 0, is not interior (-1..1);"
        " every remaining pair is same-sector, so the one-bilinear pieces are checked only where they vanish"
    ]


@pytest.mark.parametrize("subcommand", ["verify-lorentz", "verify-virasoro-c0", "explore-d-half"])
def test_no_default_config_drops_the_charge_step_probe(capsys, caplog, subcommand):
    code, _ = run(capsys, subcommand)
    assert code == 0
    assert "charge-step-pair dropped" not in caplog.text


def test_a_buffer_above_the_cutoff_is_the_only_message(capsys, caplog):
    # the default buffer 4 leaves no interior probe at cutoff 3, so no probe
    # warning may describe a run that never happens
    assert main(["verify-virasoro-c0", "--level_cutoff", "3"]) == 1
    assert capsys.readouterr().out == ""
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        (
            "ERROR",
            "the vacuum probe reaches chiral level 0, beyond the interior margin -1 (cutoff 3, buffer 4)",
        )
    ]


def test_verify_commutativity_refuses_clipped_images(capsys, caplog):
    # a one-sector window clips every image: no row may read "exact zero"
    assert main(["verify-commutativity", "--level_cutoff", "6", "--charge_window", "0,0"]) == 1
    assert capsys.readouterr().out == ""
    assert "left the charge window" in caplog.text
    # alpha = 2 alpha0: the probes keep two sectors of margin
    code, out = run(
        capsys, "verify-commutativity", "--level_cutoff", "6", "--alpha0", "1/4", "--alpha_multiplier", "2"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize(
    "subcommand", ["verify-commutativity", "verify-lorentz", "verify-virasoro-c0", "explore-d-half"]
)
def test_a_zero_charge_is_a_usage_error(capsys, caplog, subcommand):
    # alpha = 0 moves no sector, so a charge-step probe pair is one sector
    assert main([subcommand, "--alpha_multiplier", "0", "--level_cutoff", "6"]) == 1
    assert capsys.readouterr().out == ""
    assert f"{subcommand} needs a charged perturbation; --alpha_multiplier 0 gives alpha = 0" in caplog.text


def test_verify_decay_refuses_a_zero_charge_before_any_work(capsys, caplog, monkeypatch):
    # alpha = 0 leaves the vacuum norms 0 past n = 0: no slope to fit
    monkeypatch.setattr(harness, "decay_report", None)
    assert main(["verify-decay", "--alpha_multiplier", "0"]) == 1
    assert capsys.readouterr().out == ""
    assert "--alpha_multiplier 0 gives alpha = 0, whose vacuum mode norms are 0 past n = 0" in caplog.text


NEGATIVE_MULTIPLIERS = [
    *[("verify-lorentz", "--level_cutoff", "8", "--alpha_multiplier=-1", "--seed", str(s)) for s in range(4)],
    *[("verify-virasoro-c0", "--level_cutoff", "8", "--alpha_multiplier=-1", "--seed", str(s)) for s in range(4)],
    ("verify-lorentz", "--alpha0", "1/4", "--alpha_multiplier=-2", "--charge_window=-4,4", "--seed", "1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_MULTIPLIERS, ids=" ".join)
def test_negative_multipliers_draw_probes_inside_the_window(capsys, argv):
    # a charge step of -k sectors needs the same |k| sectors of margin as +k
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["summary"]["verdict"] == "pass"


def test_verify_commutativity_names_the_sectors_its_window_must_hold(capsys, caplog, monkeypatch):
    # refused before any work, naming the option and the sectors it lacks
    monkeypatch.setattr(harness, "commutativity_report", None)
    assert main(["verify-commutativity", "--charge_window", "0,4"]) == 1
    assert "--charge_window 0,4 must hold sectors -1..1" in caplog.text
    argv = ["--alpha0", "1/4", "--alpha_multiplier", "-2", "--charge_window=-2,1"]
    assert main(["verify-commutativity", *argv]) == 1
    assert "--charge_window -2,1 must hold sectors -2..2" in caplog.text
    assert capsys.readouterr().out == ""


# a negative value after its flag: argparse once took each for an option and
# refused the run with "expected one argument"
NEGATIVE_VALUES = [
    (["verify-lorentz", "--lambda", "-1/4"], "lambda", "-1/4"),
    (["verify-lorentz", "--alpha0", "-1/2"], "alpha0", "-1/2"),
    (["verify-commutativity", "--charge_window", "-3,3"], "charge_window", [-3, 3]),
]


def test_a_negative_flag_value_is_a_value(capsys, caplog):
    for argv, key, value in NEGATIVE_VALUES:
        code, out = run(capsys, *argv, "--level_cutoff", "6")
        report = json.loads(out)
        assert code == 0 and report["config"][key] == value, argv
        assert report.get("verdict", report.get("summary", {}).get("verdict")) == "pass"
    # a negative count still reaches its own refusal
    assert main(["verify-lorentz", "--interior-buffer", "-1", "--level_cutoff", "6"]) == 1
    assert capsys.readouterr().out == ""
    assert "interior buffer -1 cannot absorb a level shift of 1" in caplog.text
    assert "expected one argument" not in caplog.text


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(
        capsys, "verify-lorentz", "--level_cutoff", "6", "--lambda", "0", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text(encoding="utf-8"))
    assert rep["subcommand"] == "verify-lorentz"


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "verify-lorentz", "--level_cutoff", "6", "--seed", "3")
    _, second = run(capsys, "verify-lorentz", "--level_cutoff", "6", "--seed", "3")
    assert first == second


# the six JSON subcommands at small cutoffs, each through the one report runner
REPORTS = [
    ("verify-algebra", "--level_cutoff", "4"),
    ("verify-decay", "--level_cutoff", "4"),
    ("verify-commutativity", "--level_cutoff", "4"),
    ("verify-lorentz", "--level_cutoff", "6"),
    ("verify-virasoro-c0", "--level_cutoff", "6"),
    ("explore-d-half", "--level_cutoff", "6", "--n-max", "8"),
]


def _expected_code(rep):
    if rep["subcommand"] == "explore-d-half":
        return 0 if all(row["matches_prediction"] for row in rep["measured_gap"]) else 2
    verdict = rep.get("summary", rep)["verdict"]
    return {"pass": 0, "identity_failure": 2, "budget_exceeded": 3}[verdict]


@pytest.mark.parametrize("argv", REPORTS, ids=[a[0] for a in REPORTS])
def test_every_report_follows_one_contract(capsys, caplog, tmp_path, argv):
    caplog.set_level(logging.INFO)
    subcommand = argv[0]
    code, out = run(capsys, *argv)
    rep = json.loads(out)
    assert rep["subcommand"] == subcommand
    assert code == _expected_code(rep)
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--output", str(path)) == (code, "")
    # the same bytes, but for the config echo of the output path itself
    assert out.count('"output": ""') == 1
    assert path.read_bytes() == out.replace('"output": ""', f'"output": {json.dumps(str(path))}').encode("utf-8")
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith(f"{subcommand} finished in ") for m in messages)
    assert f"report written to {path}" in messages


# where each subcommand's body keeps its verdict: the top level, the summary,
# or (explore-d-half) the measured gaps against the 2d(m - n) law
VERDICT_BODIES = [
    ("verify-decay", harness, "decay_report", {"verdict": "budget_exceeded"}, 3),
    ("verify-lorentz", desitter, "verify_lorentz", {"summary": {"verdict": "identity_failure"}}, 2),
    ("verify-lorentz", desitter, "verify_lorentz", {"summary": {"verdict": "budget_exceeded"}}, 3),
    ("explore-d-half", desitter, "explore_d_half", {"measured_gap": [{"matches_prediction": False}]}, 2),
    ("explore-d-half", desitter, "explore_d_half", {"measured_gap": [{"matches_prediction": True}]}, 0),
]


@pytest.mark.parametrize("subcommand,module,name,body,expected", VERDICT_BODIES)
def test_the_exit_code_is_the_verdicts(capsys, monkeypatch, subcommand, module, name, body, expected):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: body)
    code, out = run(capsys, subcommand, "--level_cutoff", "6")
    assert code == expected
    rep = json.loads(out)
    assert rep.pop("config")["level_cutoff"] == 6
    assert rep == {"subcommand": subcommand, **body}


def test_decay_warnings_reach_the_log(capsys, caplog):
    # a one-sector window has no shifted sector for the exact table
    code, out = run(capsys, "verify-decay", "--charge_window", "0,0")
    assert code == 0
    message = "decay: charge window omits the shifted sector, exact table vacuous"
    assert message in json.loads(out)["warnings"]
    assert ("WARNING", message) in [(r.levelname, r.getMessage()) for r in caplog.records]


SINGLE_CUTOFF = "excited pairs are evaluated at the single cutoff"


def test_a_single_commutativity_cutoff_is_announced(capsys, caplog):
    # at or below the low cutoff 8 the excited pairs run at one cutoff, so
    # their shrinking compares nothing; report and exit code stay a pass
    code, out = run(capsys, "verify-commutativity", "--level_cutoff", "8")
    assert code == 0
    assert json.loads(out)["excited"]["cutoffs"] == [8]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "commutativity: excited pairs are evaluated at the single cutoff 8; shrinking is checked only above 8"
    ]
    caplog.clear()
    code, out = run(capsys, "verify-commutativity")
    assert code == 0
    assert SINGLE_CUTOFF not in caplog.text


PAST_CUTOFF = "commutativity: probes past cutoff"


def test_probes_past_a_cutoff_are_named_with_their_levels(capsys, caplog):
    # sampled probes reach chiral level 2, level-one and charge-transfer level
    # 1; past the cutoff they pair states outside the truncated space, and
    # the report stays as it was
    expected = {
        "1": "1 pair states outside its truncated space, so their rows there check nothing:"
        " sampled-0 at chiral level 2, sampled-1 at chiral level 2",
        "0": "0 pair states outside its truncated space, so their rows there check nothing:"
        " level-one at chiral level 1, charge-transfer at chiral level 1, sampled-0 at chiral level 2,"
        " sampled-1 at chiral level 2",
    }
    for cutoff, tail in expected.items():
        caplog.clear()
        code, _out = run(capsys, "verify-commutativity", "--level_cutoff", cutoff)
        assert code == 0
        past = [r.getMessage() for r in caplog.records if r.getMessage().startswith(PAST_CUTOFF)]
        assert past == [f"{PAST_CUTOFF} {tail}"]
        assert [r.levelname for r in caplog.records if r.getMessage() in past] == ["WARNING"]
    caplog.clear()
    assert run(capsys, "verify-commutativity", "--level_cutoff", "8")[0] == 0
    assert PAST_CUTOFF not in caplog.text
    # the low cutoff counts as well: at cutoffs 1 and 8 the level-2 samples
    # lie past the first
    caplog.clear()
    space, alpha, _lam = build_space(resolve_config(None, {"level_cutoff": "8"}))
    harness.commutativity_report(space, alpha, low_cutoff=1)
    assert f"{PAST_CUTOFF} 1 " in caplog.text


def test_the_benchmark_commutativity_config_checks_two_cutoffs(caplog):
    # the benchmark runs cutoff 7 against a low cutoff of 6
    space, alpha, _lam = build_space(resolve_config(None, {"level_cutoff": "7"}))
    body = harness.commutativity_report(space, alpha, low_cutoff=6)
    assert body["excited"]["cutoffs"] == [6, 7]
    assert SINGLE_CUTOFF not in caplog.text
