"""Tests for the command-line front end."""

import json

import pytest

from shuffle_rdp.cli import _COMMANDS, main

# ln(1/1e-6) - ln 4, the single-entry conversion at lambda = 2, eps = 0.
SINGLE_ENTRY_LAM2_DELTA1E6 = 12.429216196844383


def read(path):
    return path.read_bytes()


class TestBound:
    def test_writes_csv_with_header(self, tmp_path):
        rc = main(
            [
                "bound",
                "--eps0", "1", "--k", "100", "--n", "10000",
                "--lambda-max", "6",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "bound.csv").read_text().splitlines()
        assert lines[0] == "lambda,eps_upper,eps_lower"
        assert len(lines) == 6  # orders 2..6
        assert (tmp_path / "bound.meta.json").exists()

    def test_eps0_zero_all_zero_columns(self, tmp_path):
        rc = main(
            ["bound", "--eps0", "0", "--k", "10", "--n", "100",
             "--lambda-max", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        for line in (tmp_path / "bound.csv").read_text().splitlines()[1:]:
            _, up, lo = line.split(",")
            assert float(up) == 0.0 and float(lo) == 0.0

    def test_sandwich_on_rows(self, tmp_path):
        main(
            ["bound", "--eps0", "1", "--k", "100", "--n", "10000",
             "--lambda-max", "16", "--out", str(tmp_path)]
        )
        for line in (tmp_path / "bound.csv").read_text().splitlines()[1:]:
            _, up, lo = line.split(",")
            assert float(lo) <= float(up)

    def test_invalid_params_exit2_no_file(self, tmp_path):
        out = tmp_path / "sub"
        rc = main(
            ["bound", "--eps0", "1", "--k", "1", "--n", "10",
             "--lambda-max", "4", "--out", str(out)]
        )
        assert rc == 2
        assert not (out / "bound.csv").exists()

    def test_empty_range_exit2(self, tmp_path):
        rc = main(
            ["bound", "--eps0", "1", "--k", "10", "--n", "100",
             "--lambda-min", "9", "--lambda-max", "3", "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(
                ["bound", "--eps0", "2", "--k", "50", "--n", "5000",
                 "--lambda-max", "8", "--out", str(out)]
            )
        assert read(a / "bound.csv") == read(b / "bound.csv")
        assert read(a / "bound.meta.json") == read(b / "bound.meta.json")


class TestConvertCompose:
    def make_curve(self, path):
        path.write_text("lambda,eps\n2,0.000000000000e+00\n", newline="\n")

    def test_convert_single_entry(self, tmp_path):
        curve = tmp_path / "curve.csv"
        self.make_curve(curve)
        rc = main(
            ["convert", "--curve", str(curve), "--delta", "1e-6", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "convert.json").read_text())
        assert payload["eps"] == pytest.approx(SINGLE_ENTRY_LAM2_DELTA1E6, rel=1e-12)
        assert payload["argmin_lambda"] == 2

    def test_compose_scales(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("lambda,eps\n2,1.000000000000e-03\n4,2.000000000000e-03\n", newline="\n")
        rc = main(["compose", "--curve", str(curve), "--T", "10", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "composed.csv").read_text().splitlines()
        assert lines[0] == "lambda,eps"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.01, rel=1e-12)

    def test_missing_curve_exit2(self, tmp_path):
        rc = main(
            ["convert", "--curve", str(tmp_path / "nope.csv"), "--delta", "1e-6",
             "--out", str(tmp_path)]
        )
        assert rc == 2


class TestCompare:
    def test_single_point_sweep(self, tmp_path):
        rc = main(
            ["compare", "--axis", "T", "--values", "100",
             "--eps0", "1", "--k", "100", "--n", "10000", "--delta", "1e-8",
             "--lambda-max", "256", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "axis_value,eps_ours,eps_baseline,eps_lower_ref"
        assert len(lines) == 2

    def test_axis_n_sweep_fixed_cohort(self, tmp_path):
        # Cohort size stays fixed while n (and hence the sampling rate)
        # varies; more clients can only improve the guarantee.
        rc = main(
            ["compare", "--axis", "n", "--values", "1000,10000,100000",
             "--eps0", "2", "--k", "100", "--T", "1000", "--delta", "1e-8",
             "--lambda-max", "256", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        ours = [float(r.split(",")[1]) for r in rows]
        assert len(ours) == 3
        assert ours[0] >= ours[1] >= ours[2]

    def test_degenerate_token(self, tmp_path):
        rc = main(
            ["compare", "--axis", "T", "--values", "100",
             "--eps0", "3", "--k", "1000", "--n", "1000000", "--delta", "1e-8",
             "--lambda-max", "128", "--out", str(tmp_path)]
        )
        assert rc == 0
        row = (tmp_path / "compare.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "degenerate"

    def test_axis_lambda_rejected(self, tmp_path):
        rc = main(
            ["compare", "--axis", "lambda", "--values", "2,3",
             "--eps0", "1", "--k", "10", "--n", "100", "--delta", "1e-8",
             "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_unsorted_values_rejected(self, tmp_path):
        rc = main(
            ["compare", "--axis", "T", "--values", "100,10",
             "--eps0", "1", "--k", "10", "--n", "100", "--delta", "1e-8",
             "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_invalid_point_mid_sweep_no_partial_output(self, tmp_path):
        # One axis value is infeasible (n < k); validation covers the whole
        # sweep before any computation, so nothing is written.
        out = tmp_path / "sweep"
        rc = main(
            ["compare", "--axis", "n", "--values", "500,2000",
             "--eps0", "1", "--k", "1000", "--T", "10", "--delta", "1e-8",
             "--out", str(out)]
        )
        assert rc == 2
        assert not (out / "compare.csv").exists()

    def test_integral_spelling_accepted(self, tmp_path):
        rc = main(
            ["compare", "--axis", "T", "--values", "1e2,1000",
             "--eps0", "1", "--k", "100", "--n", "10000", "--delta", "1e-8",
             "--lambda-max", "64", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["100", "1000"]


class TestSimulate:
    ARGS = [
        "simulate", "--T", "40", "--k", "20", "--n", "200", "--d", "5",
        "--eps0", "2", "--seed", "9",
    ]

    def test_missing_out_exit2(self):
        assert main(self.ARGS) == 2

    def test_writes_artifacts(self, tmp_path):
        rc = main(self.ARGS + ["--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "round,objective"
        payload = json.loads((tmp_path / "privacy.json").read_text())
        assert payload["privacy"]["eps"] > 0
        assert payload["config"]["seed"] == 9

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 40, "k": 20, "n": 200, "d": 5, "eps0": 2.0, "seed": 1}))
        rc = main(
            ["simulate", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "privacy.json").read_text())
        assert payload["config"]["seed"] == 9  # flag beat the file

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(self.ARGS + ["--out", str(out)]) == 0
        assert read(a / "trajectory.csv") == read(b / "trajectory.csv")
        assert read(a / "privacy.json") == read(b / "privacy.json")

    @pytest.mark.filterwarnings("error")
    def test_radius_whose_squared_norm_overflows(self, tmp_path):
        # Iterates inside the ball whose squared norm overflows stay put.
        rc = main(
            ["simulate", "--loss", "logistic", "--radius", "1e300", "--T", "5", "--k", "10",
             "--n", "100", "--eps0", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert float(rows[2].split(",")[1]) > 1.0  # not ln 2, the objective at theta = 0

    def test_bad_cohort_exit2(self, tmp_path):
        rc = main(
            ["simulate", "--T", "5", "--k", "500", "--n", "200", "--d", "5",
             "--eps0", "2", "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_acceptance_configuration_under_budget(self, tmp_path):
        # The d=10, n=1000, k=100, T=2000 configuration must complete well
        # inside its 60 second wall-clock budget.
        import time

        t0 = time.perf_counter()
        rc = main(
            ["simulate", "--T", "2000", "--k", "100", "--n", "1000", "--d", "10",
             "--eps0", "2", "--seed", "0", "--out", str(tmp_path)]
        )
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0, f"simulate took {elapsed:.1f}s"


def assert_usage_error(capsys, argv, out, says=""):
    """Exit 2 with a one-line `error:` message, no traceback, and no files."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert says in err
    assert not out.exists() or not any(out.iterdir())


class TestRejectedInputs:
    def test_bound_eps0_with_infinite_exp(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["bound", "--eps0", "800", "--k", "1000", "--n", "1000000",
             "--lambda-max", "4", "--out", str(out)],
            out,
        )

    def test_compare_eps0_with_infinite_exp(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "eps0", "--values", "1,800", "--k", "100",
             "--n", "10000", "--T", "10", "--delta", "1e-8", "--lambda-max", "8",
             "--out", str(out)],
            out,
        )

    def test_simulate_eps0_with_infinite_exp(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "5", "--k", "10", "--n", "100", "--d", "3",
             "--eps0", "800", "--out", str(out)],
            out,
        )

    def test_simulate_scale_overflow(self, tmp_path, capsys):
        # e^eps0 is finite here, but the randomizer's output scale is not.
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "5", "--k", "10", "--n", "100", "--d", "3",
             "--eps0", "709.7", "--out", str(out)],
            out,
            says="output scale",
        )

    def test_bound_fractional_order(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["bound", "--eps0", "1", "--k", "100", "--n", "10000",
             "--lambdas", "2.5,8", "--out", str(out)],
            out,
        )

    @pytest.mark.parametrize("order", ["2.5", "3.7"])
    @pytest.mark.parametrize("command", ["convert", "compose"])
    def test_curve_fractional_order(self, tmp_path, capsys, command, order):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"lambda,eps\n{order},1.0e-03\n8,2.0e-03\n", newline="\n")
        out = tmp_path / "o"
        flag = ["--delta", "1e-6"] if command == "convert" else ["--T", "10"]
        assert_usage_error(capsys, [command, "--curve", str(curve), *flag, "--out", str(out)], out)

    def test_compare_fractional_rounds(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "T", "--values", "1000.7", "--eps0", "1",
             "--k", "100", "--n", "10000", "--delta", "1e-8", "--out", str(out)],
            out,
        )

    @pytest.mark.parametrize("radius", ["inf", "1e308"])
    def test_simulate_radius_without_finite_diameter(self, tmp_path, capsys, radius):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "5", "--k", "10", "--n", "100", "--eps0", "2",
             "--radius", radius, "--clip-radius", "1", "--out", str(out)],
            out,
            says="radius",
        )

    def test_simulate_zero_dimension(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "5", "--k", "10", "--n", "100", "--d", "0",
             "--eps0", "2", "--out", str(out)],
            out,
        )


CONFIG_WRONG_TYPES = [
    ("bound", ["--k", "100", "--n", "10000", "--lambda-max", "4"], {"eps0": "2"}),
    ("bound", ["--k", "100", "--n", "10000", "--lambda-max", "4"], {"eps0": True}),
    ("convert", ["--curve", "CURVE"], {"delta": [1]}),
    ("simulate", ["--T", "5", "--k", "10", "--n", "100", "--eps0", "2"], {"radius": [1]}),
    ("simulate", ["--T", "5", "--k", "10", "--n", "100", "--eps0", "2"], {"clip-radius": {}}),
]


class TestRejectedConfigAndFlagTypes:
    @pytest.mark.parametrize("command, flags, cfg", CONFIG_WRONG_TYPES)
    def test_wrong_config_type(self, tmp_path, capsys, command, flags, cfg):
        curve = tmp_path / "curve.csv"
        curve.write_text("lambda,eps\n2,1.0e-03\n", newline="\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        flags = [str(curve) if f == "CURVE" else f for f in flags]
        out = tmp_path / "o"
        argv = [command, *flags, "--config", str(cfg_path), "--out", str(out)]
        assert_usage_error(capsys, argv, out, says=next(iter(cfg)))

    def test_infinite_eta(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "5", "--k", "10", "--n", "100", "--eps0", "2",
             "--schedule", "constant", "--eta", "inf", "--out", str(out)],
            out,
            says="eta",
        )

    def test_fractional_rounds_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "2.5", "--k", "10", "--n", "100", "--eps0", "2",
             "--out", str(out)],
            out,
            says="--T",
        )

    def test_integral_spelling_of_rounds_flag(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("lambda,eps\n2,1.0e-03\n", newline="\n")
        assert main(["compose", "--curve", str(curve), "--T", "1e5", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "composed.meta.json").read_text())
        assert meta["T"] == 100000 and isinstance(meta["T"], int)


# Every --config key of every command, with two values that must give
# different outputs.  Base flags for the other parameters are below.
TABLE_VALUES = {
    ("bound", "eps0"): (1.0, 2.0),
    ("bound", "k"): (20, 30),
    ("bound", "n"): (200, 300),
    ("bound", "lambda-min"): (2, 3),
    ("bound", "lambda-max"): (4, 5),
    ("convert", "delta"): (1e-6, 1e-5),
    ("compose", "T"): (10, 20),
    ("compare", "axis"): ("eps0", "T"),
    ("compare", "T"): (100, 200),
    ("compare", "eps0"): (1.0, 2.0),
    ("compare", "k"): (20, 30),
    ("compare", "n"): (10000, 20000),
    ("compare", "delta"): (1e-8, 1e-6),
    ("compare", "lambda-max"): (16, 24),
    ("simulate", "loss"): ("least_squares", "logistic"),
    ("simulate", "d"): (3, 4),
    ("simulate", "n"): (100, 120),
    ("simulate", "radius"): (1.0, 2.0),
    ("simulate", "problem-seed"): (7, 8),
    ("simulate", "T"): (10, 12),
    ("simulate", "k"): (10, 12),
    ("simulate", "eps0"): (2.0, 3.0),
    ("simulate", "clip-radius"): (0.5, 1.0),
    ("simulate", "delta"): (1e-8, 1e-6),
    ("simulate", "seed"): (0, 1),
    ("simulate", "schedule"): ("paper", "constant"),
    ("simulate", "eta"): (0.1, 0.2),
    ("simulate", "record-every"): (2, 3),
}
TABLE_BASE = {
    "bound": {"eps0": 1.0, "k": 20, "n": 200, "lambda-max": 4},
    "convert": {"delta": 1e-6},
    "compose": {"T": 10},
    "compare": {"axis": "eps0", "values": "1", "T": 100, "eps0": 1.0, "k": 20,
                "n": 10000, "delta": 1e-8, "lambda-max": 16},
    "simulate": {"T": 10, "k": 10, "n": 100, "d": 3, "eps0": 2.0, "eta": 0.1},
}


def test_table_values_cover_every_config_key():
    keys = {
        (command, p.name.lstrip("-"))
        for command, (_, _, params) in _COMMANDS.items()
        for p in params
        if p.config
    }
    assert keys == set(TABLE_VALUES)


@pytest.mark.parametrize("command, key", sorted(TABLE_VALUES))
def test_flag_and_config_key_agree(tmp_path, command, key):
    """A value set by flag or by config writes the same files; the flag wins."""
    curve = tmp_path / "curve.csv"
    curve.write_text("lambda,eps\n2,1.0e-03\n4,2.0e-03\n", newline="\n")
    base = {k: v for k, v in TABLE_BASE[command].items() if k != key}
    argv = [command, *[x for k, v in base.items() for x in (f"--{k}", str(v))]]
    if command in ("convert", "compose"):
        argv += ["--curve", str(curve)]
    a, b = TABLE_VALUES[(command, key)]

    def run(tag, flag=None, cfg=None):
        out = tmp_path / tag
        extra = [] if flag is None else [f"--{key}", str(flag)]
        if cfg is not None:
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps({key: cfg}))
            extra += ["--config", str(path)]
        assert main(argv + extra + ["--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    by_flag = run("flag", flag=a)
    assert run("config", cfg=a) == by_flag
    assert run("both", flag=a, cfg=b) == by_flag
    assert run("other", cfg=b) != by_flag


class TestOracle:
    def test_unknown_subcheck_exit2(self, capsys):
        assert main(["oracle", "definitely-not-a-check"]) == 2

    def test_convexity_passes(self, capsys):
        assert main(["oracle", "convexity"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS convexity")
        assert "worst_slack" in out
