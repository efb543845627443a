"""Tests for the command-line front end."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shuffle_rdp import bounds, cli
from shuffle_rdp.bounds import MAX_ORDER
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

    def test_convert_writes_strict_json_below_reciprocal_of_dbl_max(self, tmp_path):
        # 1/delta overflows at this delta; the output must stay RFC 8259 JSON.
        curve = tmp_path / "curve.csv"
        curve.write_text("lambda,eps\n2,1.0e-03\n64,2.0e-02\n", newline="\n")
        rc = main(["convert", "--curve", str(curve), "--delta", "1e-310", "--out", str(tmp_path)])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-finite JSON number {token}")

        payload = json.loads((tmp_path / "convert.json").read_text(), parse_constant=reject)
        assert payload["argmin_lambda"] == 64

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

    def test_delta_below_reciprocal_of_dbl_max(self, tmp_path):
        rc = main(
            ["compare", "--axis", "T", "--values", "10,100", "--eps0", "2", "--k", "1000",
             "--n", "1000000", "--delta", "1e-310", "--lambda-max", "64", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(r.split(",")[1])) for r in rows)

    def test_eps0_log_range_collapses_duplicates(self, tmp_path):
        rc = main(
            ["compare", "--axis", "eps0", "--log-range", "2", "2", "3", "--T", "10",
             "--k", "100", "--n", "10000", "--delta", "1e-8", "--lambda-max", "16",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["2.000000000000e+00"]

    FIXED = ["--eps0", "1", "--k", "100", "--n", "10000", "--delta", "1e-8", "--lambda-max", "512"]

    @staticmethod
    def _counted(log, monkeypatch):
        # Record (bound, orders) for each call of either bound in cli.
        for name in ("rdp_upper", "rdp_lower"):
            bound = getattr(cli, name)

            def fn(lam, params, bound=bound, name=name):
                log.append((name, np.asarray(lam).tolist()))
                return bound(lam, params)

            monkeypatch.setattr(cli, name, fn)

    def _one_value_rows(self, tmp_path, Ts):
        rows = []
        for T in Ts:
            out = tmp_path / str(T)
            assert main(["compare", "--axis", "T", "--values", str(T), *self.FIXED,
                         "--out", str(out)]) == 0
            rows += (out / "compare.csv").read_text().splitlines()[1:]
        return rows

    def test_T_points_share_one_curve_per_bound(self, tmp_path, monkeypatch):
        # RDP composes linearly in T, so the T points of a sweep share one
        # order search per bound: fewer calls than one search per point,
        # and the rows stay those of one-value sweeps.
        Ts = (100, 1000, 10000)
        joint, single = [], []
        self._counted(joint, monkeypatch)
        assert main(["compare", "--axis", "T", "--values", ",".join(map(str, Ts)), *self.FIXED,
                     "--out", str(tmp_path / "all")]) == 0
        rows = (tmp_path / "all" / "compare.csv").read_text().splitlines()[1:]
        monkeypatch.undo()
        self._counted(single, monkeypatch)
        assert rows == self._one_value_rows(tmp_path, Ts)
        for name in ("rdp_upper", "rdp_lower"):
            calls = sum(bound == name for bound, _ in joint)
            assert 0 < calls <= sum(bound == name for bound, _ in single)
        assert sum(b == "rdp_lower" for b, _ in joint) < sum(b == "rdp_lower" for b, _ in single)

    def test_T_points_compute_each_order_once(self, tmp_path, monkeypatch):
        # Each bound computes each order of the mechanism once, however many
        # T points read it.
        Ts = (100, 1000, 10000)
        log = []
        self._counted(log, monkeypatch)
        assert main(["compare", "--axis", "T", "--values", ",".join(map(str, Ts)), *self.FIXED,
                     "--out", str(tmp_path)]) == 0
        computed = [(name, order) for name, orders in log for order in orders]
        assert len(computed) == len(set(computed))
        assert len(log) > 2


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

    def test_second_moment_whose_sum_overflows(self, tmp_path):
        # Each round's ||g_bar||^2 is a finite double, but 200 of them sum
        # past the largest one.  The report holds their finite mean as
        # strict JSON.
        rc = main(
            ["simulate", "--T", "200", "--k", "10", "--eps0", "1", "--d", "1000",
             "--clip-radius", "3e150", "--out", str(tmp_path)]
        )
        assert rc == 0

        def reject(name):
            raise AssertionError(f"privacy.json holds {name}")

        payload = json.loads((tmp_path / "privacy.json").read_text(), parse_constant=reject)
        assert 1e306 < payload["grad_second_moment"] < math.inf

    def test_json_never_holds_a_non_finite_number(self, tmp_path):
        # The text of every file is rendered before the output directory is
        # made, so the refusal leaves no file (see the overflow tests below).
        with pytest.raises(ValueError, match="x.json would hold a non-finite"):
            cli._json_text("x.json", {"x": math.inf})

    def test_step_that_overflows_leaves_no_output(self, tmp_path, capsys):
        # eta times the randomizer's output scale overflows: refused before
        # any round runs, with no warning and no --out directory.
        out = tmp_path / "o"
        argv = ["simulate", "--T", "5", "--k", "2", "--n", "4", "--d", "3", "--eps0", "2",
                "--seed", "0", "--eta", "1e308", "--schedule", "constant", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eta ") and err.count("\n") == 1
        assert not out.exists()

    def test_clip_radius_whose_factor_overflows_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["simulate", "--T", "5", "--k", "2", "--n", "4", "--d", "3", "--eps0", "2",
                "--seed", "0", "--clip-radius", "1e-320", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: clip_radius ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--eta", "1e300", "--schedule", "constant"],  # the largest step stays finite
        ["--clip-radius", "1e-300"],  # so does the clip factor
    ])
    def test_extreme_but_finite_steps_run_quietly(self, tmp_path, capsys, flags):
        argv = ["simulate", "--T", "5", "--k", "2", "--n", "4", "--d", "3", "--eps0", "2",
                "--seed", "0", *flags, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)

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

    @pytest.mark.parametrize("orders", ["8,2,8", "2,2,8"])
    def test_bound_orders_not_strictly_increasing(self, tmp_path, capsys, orders):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["bound", "--eps0", "1", "--k", "100", "--n", "10000",
             "--lambdas", orders, "--out", str(out)],
            out,
            says="--lambdas",
        )

    def test_compare_repeated_value(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "T", "--values", "100,100", "--eps0", "1",
             "--k", "100", "--n", "10000", "--delta", "1e-8", "--out", str(out)],
            out,
            says="--values",
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

    @pytest.mark.parametrize("every", ["-5", "0"])
    def test_simulate_record_every_below_one(self, tmp_path, capsys, every):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["simulate", "--T", "30", "--k", "10", "--n", "100", "--d", "3", "--eps0", "2",
             "--record-every", every, "--out", str(out)],
            out,
            says="record_every",
        )

    def test_compare_round_share_underflow(self, tmp_path, capsys):
        # The baseline gives each round (delta / 2) / T, which is 0 here.
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "T", "--values", "100000000000000", "--eps0", "2",
             "--k", "1000", "--n", "1000000", "--delta", "1e-310", "--lambda-max", "8",
             "--out", str(out)],
            out,
            says="delta 1e-310 split over T=100000000000000",
        )

    # Each oversized value is one past the ceiling, so no test builds a large row.
    @pytest.mark.parametrize("flags, says", [
        (["--lambdas", f"2,{MAX_ORDER + 1}"], "--lambdas"),
        (["--lambdas", "1,8"], "--lambdas"),
        (["--lambda-min", str(MAX_ORDER - 1), "--lambda-max", str(MAX_ORDER + 1)], "--lambda-max"),
        (["--lambda-min", "1", "--lambda-max", "4"], "--lambda-min"),
    ])
    def test_bound_order_outside_domain(self, tmp_path, capsys, flags, says):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["bound", "--eps0", "1", "--k", "20", "--n", "200", *flags, "--out", str(out)],
            out,
            says=says,
        )

    def test_compare_lambda_max_above_ceiling(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "T", "--values", "10", "--eps0", "1", "--k", "20",
             "--n", "2000", "--delta", "1e-8", "--lambda-max", str(MAX_ORDER + 1),
             "--out", str(out)],
            out,
            says="lambda_max",
        )

    def test_compare_log_range_points_capped(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "eps0", "--log-range", "1", "2", "1001", "--T", "10",
             "--k", "20", "--n", "2000", "--delta", "1e-8", "--lambda-max", "4",
             "--out", str(out)],
            out,
            says="--log-range POINTS",
        )

    @pytest.mark.parametrize("start, stop", [("1", "inf"), ("nan", "10")])
    def test_compare_log_range_not_finite(self, tmp_path, capsys, start, stop):
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "T", "--log-range", start, stop, "3", "--eps0", "1",
             "--k", "20", "--n", "2000", "--delta", "1e-8", "--lambda-max", "4",
             "--out", str(out)],
            out,
            says="--log-range requires",
        )

    def test_compare_k_above_lower_bound_ceiling(self, tmp_path, capsys, monkeypatch):
        # Refused before the lower bound builds any array of k + 1 values.
        def no_columns(*args):
            raise AssertionError("an O(k) array was built")

        monkeypatch.setattr(bounds, "binom_log_pmf", no_columns)
        monkeypatch.setattr(bounds, "_rr2_ratio_minus_one", no_columns)
        out = tmp_path / "o"
        assert_usage_error(
            capsys,
            ["compare", "--axis", "T", "--values", "10", "--eps0", "2",
             "--k", "1000001", "--n", "10000000000", "--delta", "1e-8",
             "--lambda-max", "8", "--out", str(out)],
            out,
            says="k <= 1000000",
        )

    def test_compare_k_at_lower_bound_ceiling(self, tmp_path):
        assert main(["compare", "--axis", "T", "--values", "10", "--eps0", "2",
                     "--k", "1000000", "--n", "1000000000", "--delta", "1e-8",
                     "--lambda-max", "64", "--out", str(tmp_path)]) == 0
        _, ours, _, lower = (tmp_path / "compare.csv").read_text().splitlines()[1].split(",")
        assert 0 < float(lower) <= float(ours)

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


class TestFuzz:
    """Each parameter of a subcommand drawn from valid, boundary and junk
    values, or left out: the CLI exits 0 or 2, never with a traceback, and
    writes no file when it exits 2.  Sizes stay small so that a draw runs
    quickly: orders up to MAX_ORDER only through the order search or a
    short --lambdas list, and short simulations."""

    JUNK = ["abc", "nan", "inf", "-inf", "-1", "0", "2.5", "1e400", "", "1,,2"]
    # (valid, boundary) values per parameter.
    POOLS = {
        "--eps0": (["0.5", "2"], ["0", "1e-300", "5e-17", repr(bounds.EPS0_MAX), "709.79"]),
        "--k": (["10", "50"], ["1", "2", "1000001"]),
        "--n": (["1000", "10000"], ["1", "50", "1000000000000"]),
        "--T": (["100", "100000"], ["1", "1000000000000"]),
        "--delta": (["1e-8", "1e-5"], ["5e-324", "1e-310", "0.999999", "0.5"]),
        "--lambda-max": (["16", "64"], ["2", "33", "34", str(MAX_ORDER), str(MAX_ORDER + 1)]),
        "--lambda-min": (["2", "5"], ["1", str(MAX_ORDER)]),
        "--lambdas": (["2,8,32"], [f"2,{MAX_ORDER}", "8,2", "2.5", str(MAX_ORDER + 1)]),
        "--axis": (["T", "n", "eps0"], ["k"]),
        "--values": (["10,100", "1000"], ["1,1000000000000", "100,10", "1"]),
        "--log-range": ([["1", "10", "3"]], [["2", "2", "1"], ["10", "1", "3"], ["1", "10", "1001"]]),
        "--kind": (["upper", "lower", "exact"], ["other"]),
        "--loss": (["least_squares", "logistic"], ["hinge"]),
        "--d": (["3"], ["1"]),
        "--radius": (["1"], ["1e300", "1e-300"]),
        "--problem-seed": (["7"], ["4294967296"]),
        "--clip-radius": (["1"], ["1e-300", "1e300"]),
        "--seed": (["0"], ["18446744073709551616"]),
        "--schedule": (["paper", "constant"], ["other"]),
        "--eta": (["0.1"], ["1e300", "1e-300"]),
        "--record-every": (["5"], ["1"]),
    }
    # simulate runs T rounds over an n x d problem: no large values there.
    SIMULATE = {"--T": (["5", "20"], ["1"]), "--n": (["20", "50"], ["1"]), "--k": (["5"], ["1", "20"])}
    SIMULATE_JUNK = ["abc", "nan", "-1", "0", "2.5", ""]

    @staticmethod
    @st.composite
    def invocations(draw, curve):
        command = draw(st.sampled_from(["bound", "convert", "compose", "compare", "simulate"]))
        argv = [command]
        for param in _COMMANDS[command][2]:
            if param.name in ("--config", "--out"):
                continue
            if param.name == "--curve":
                valid, boundary, junk = [str(curve)], [str(curve) + ".missing"], []
            elif command == "simulate":
                valid, boundary = TestFuzz.SIMULATE.get(param.name, TestFuzz.POOLS[param.name])
                junk = TestFuzz.SIMULATE_JUNK
            else:
                (valid, boundary), junk = TestFuzz.POOLS[param.name], TestFuzz.JUNK
            kind = draw(st.sampled_from(["valid"] * 6 + ["boundary"] * 2 + ["junk", "absent"]))
            pool = {"valid": valid, "boundary": boundary, "junk": junk}.get(kind) or [None]
            value = draw(st.sampled_from(pool))
            if value is None:
                continue
            if param.metavar and not isinstance(value, list):
                value = [value] * len(param.metavar)
            argv += [param.name, *([value] if isinstance(value, str) else value)]
        return argv

    def test_exit_code_is_zero_or_two(self, tmp_path_factory):
        curve = tmp_path_factory.mktemp("curve") / "curve.csv"
        curve.write_text("lambda,eps\n2,0.001\n3,0.002\n8,0.01\n")

        @settings(max_examples=250, deadline=None, derandomize=True)
        @given(argv=self.invocations(curve))
        def check(argv):
            out = tmp_path_factory.mktemp("out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([*argv, "--out", str(out)])
            assert rc in (0, 2), argv
            assert "Traceback" not in err.getvalue()
            if rc == 2:
                assert not any(out.iterdir()), argv

        check()
