"""End-to-end command tests driven through main() with temp directories.

File outputs are checked byte-for-byte where the determinism contract
demands it; exit codes follow the documented 0/2/3/4 map.
"""
import csv
import hashlib
import itertools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execsched import cli, liquidity
from execsched import fills as fills_reader
from execsched.cli import (
    EXIT_AUDIT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    SchemaError,
    main,
    validate_config,
)
from execsched.kernels import mills_psi
from support import balanced_market, bench_solve_config, cap_resolves, traced_peak


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bench_doc(**over):
    doc = {
        "model": "benchmark",
        "formulation": "simple",
        "params": {"theta": 2.0, "sigma_eps": 2.0},
        "horizon": {"periods": 3, "total_shares": 10.0},
        "initial_state": {"price": 100.0},
        "simulation": {"n_paths": 300, "seed": 7, "workers": 1},
    }
    doc.update(over)
    return doc


class TestConfigValidation:
    def test_canonical_form_is_a_fixed_point(self):
        cfg = validate_config(_bench_doc())
        text = json.dumps(cfg, indent=2, sort_keys=True)
        again = validate_config(json.loads(text))
        assert again == cfg
        assert json.dumps(again, indent=2, sort_keys=True) == text

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.pop("model"), "model"),
            (lambda d: d.update(model="brownian"), "model"),
            (lambda d: d.update(frequency="daily"), "frequency"),
            (lambda d: d["params"].pop("sigma_eps"), "params.sigma_eps"),
            (lambda d: d["params"].update(extra=1.0), "params.extra"),
            (lambda d: d["params"].update(theta=True), "params.theta"),
            (lambda d: d["horizon"].update(periods=0), "horizon.periods"),
            (lambda d: d["horizon"].update(total_shares=-1.0), "horizon.total_shares"),
            (lambda d: d["initial_state"].update(price=-5.0), "initial_state.price"),
            (lambda d: d["simulation"].update(seed=2**64), "simulation.seed"),
            (lambda d: d["simulation"].pop("n_paths"), "simulation.n_paths"),
            (lambda d: d["simulation"].update(side="short"), "simulation.side"),
            (lambda d: d.update(formulation="net"), "formulation"),
            (lambda d: d.update(schedule=[5.0, 5.0]), "schedule"),
            (lambda d: d.update(schedule="front-load"), "schedule"),
            (lambda d: d.update(solver={"nodes": 9}), "solver.nodes"),
            (lambda d: d.update(solver={"grid_nodes": 0}), "solver.grid_nodes"),
            (lambda d: d.update(solver={"golden_iters": 72}), "solver.golden_iters"),
            (lambda d: d.update(solver={"foc_tol_factor": 1e-10}), "solver.foc_tol_factor"),
            (lambda d: d.update(solver={"foc_max_iter": 200}), "solver.foc_max_iter"),
            (lambda d: d.update(solver={"grid_lo_frac": 1e-3}), "solver.grid_lo_frac"),
            (lambda d: d.update(solver={"refine": 8}), "solver.refine"),
            (lambda d: d.update(solver={"regression_samples": 15}), "solver.regression_samples"),
            (lambda d: d.update(solver={"regression_degree": 3}), "solver.regression_degree"),
            pytest.param(
                lambda d: d["params"].update(theta=10**400),
                "params.theta",
                id="params.theta-beyond-float",
            ),
            pytest.param(
                lambda d: d["simulation"].update(seed=2**63),
                "simulation.seed",
                id="simulation.seed-2^63",
            ),
        ],
    )
    def test_violations_name_the_field(self, mutate, path):
        doc = _bench_doc()
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            validate_config(doc)
        assert path in str(err.value)

    def test_rho_out_of_range_exits_2_naming_the_field(self, tmp_path, capsys):
        doc = {
            "model": "ar1",
            "params": {"theta": 1.0, "gamma": 0.5, "rho": 1.5,
                       "sigma_eps": 1.0, "sigma_eta": 1.0},
            "horizon": {"periods": 2, "total_shares": 1.0},
            "initial_state": {"price": 100.0, "aux": 1.0},
        }
        rc = main(["solve", _write_json(tmp_path, "c.json", doc),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert "rho" in capsys.readouterr().err

    def test_unreadable_and_malformed_configs_exit_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.json")]) == EXIT_INPUT
        bad = _write_text(tmp_path, "bad.json", "{not json")
        assert main(["solve", bad, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "JSON" in capsys.readouterr().err

    def test_integer_literal_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json.loads hands such a literal to int(), which refuses it
        digits = "1" + "0" * 5000
        limit = sys.get_int_max_str_digits()
        config = json.dumps(_bench_doc(params={"theta": "THETA", "sigma_eps": 2.0}))
        path = _write_text(tmp_path, "c.json", config.replace('"THETA"', digits))
        assert main(["solve", path, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: config: an integer literal is too long (over {limit} digits)\n"
        )
        context = json.dumps({"arrival_price": "P", "horizon": 1, "price_path": [100.0, 101.0]})
        path = _write_text(tmp_path, "ctx.json", context.replace('"P"', digits))
        fills = _write_text(tmp_path, "fills.csv", _fills_text(*_GOOD_FILLS))
        assert main(["attribute", fills, path, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: context: an integer literal is too long (over {limit} digits)\n"
        )


class TestSolve:
    def test_equal_split_schedule_rows(self, tmp_path):
        doc = {
            "model": "benchmark",
            "params": {"theta": 1.0, "sigma_eps": 1.0},
            "horizon": {"periods": 4, "total_shares": 100.0},
        }
        rc = main(["solve", _write_json(tmp_path, "c.json", doc),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "schedule.csv").read_text() == (
            "t,S_t,W_t\n"
            "1,25.0,100.0\n"
            "2,25.0,75.0\n"
            "3,25.0,50.0\n"
            "4,25.0,25.0\n"
        )

    def test_single_period_single_row(self, tmp_path):
        doc = {
            "model": "benchmark",
            "params": {"theta": 1.0, "sigma_eps": 1.0},
            "horizon": {"periods": 1, "total_shares": 5.0},
        }
        main(["solve", _write_json(tmp_path, "c.json", doc), "--output-dir", str(tmp_path)])
        assert (tmp_path / "schedule.csv").read_text() == "t,S_t,W_t\n1,5.0,5.0\n"

    def test_policy_and_manifest_link_up(self, tmp_path):
        cfgpath = _write_json(tmp_path, "c.json", {
            "model": "benchmark",
            "params": {"theta": 1.0, "sigma_eps": 1.0},
            "horizon": {"periods": 4, "total_shares": 100.0},
        })
        main(["solve", cfgpath, "--output-dir", str(tmp_path)])
        policy = json.loads((tmp_path / "policy.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        raw = open(cfgpath, "rb").read()
        assert policy["config_digest"] == hashlib.sha256(raw).hexdigest()
        assert policy["run_id"] == manifest["run_id"]
        assert manifest["command"] == "solve"
        assert manifest["seed"] is None
        for out in manifest["outputs"]:
            data = (tmp_path / out["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == out["sha256"]
        assert policy["stages"][0] == {"kind": "closed-linear", "fraction": 0.25}
        assert policy["method"] == "closed-linear"
        assert len(policy["value_samples"]) == 4

    def test_complex_formulation_emits_interpolated_stages(self, tmp_path):
        doc = {
            "model": "benchmark",
            "formulation": "complex",
            "params": {"theta": 5.0, "sigma_eps": 1.0},
            "horizon": {"periods": 2, "total_shares": 1.0},
        }
        rc = main(["solve", _write_json(tmp_path, "c.json", doc),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        policy = json.loads((tmp_path / "policy.json").read_text())
        assert policy["stages"][0]["kind"] == "interpolated"
        assert len(policy["stages"][0]["residual_grid"]) >= 2

    def test_policy_carries_solver_diagnostics_without_a_clock(self, tmp_path):
        doc = {
            "model": "benchmark",
            "formulation": "complex",
            "params": {"theta": 3.0, "sigma_eps": 1.0},
            "horizon": {"periods": 3, "total_shares": 10.0},
        }
        cfg = _write_json(tmp_path, "c.json", doc)
        texts = []
        for run in ("a", "b"):
            assert main(["solve", cfg, "--output-dir", str(tmp_path / run)]) == EXIT_OK
            texts.append((tmp_path / run / "policy.json").read_text())
        assert texts[0] == texts[1]
        diags = json.loads(texts[0])["metadata"]["diagnostics"]
        assert [d["stage"] for d in diags] == [1, 2]
        for d in diags:
            assert set(d) == {
                "stage", "newton_iterations", "max_abs_foc", "pinned_nodes", "unsettled_nodes",
                "convex", "schedule_iterations",
            }
            assert 0 < d["newton_iterations"] < 100
            assert d["unsettled_nodes"] == 0
            # theta = 3 > 0.75 * sigma_eps: the arithmetic-law certificate holds
            assert d["convex"] is True

    def test_ar1_needs_initial_state(self, tmp_path, capsys):
        doc = {
            "model": "ar1",
            "params": {"theta": 1.0, "gamma": 0.5, "rho": 0.9,
                       "sigma_eps": 1.0, "sigma_eta": 1.0},
            "horizon": {"periods": 3, "total_shares": 90.0},
        }
        path = _write_json(tmp_path, "c.json", doc)
        assert main(["solve", path, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "initial_state" in capsys.readouterr().err
        doc["initial_state"] = {"price": 100.0, "aux": 1.0}
        assert main(["solve", _write_json(tmp_path, "c2.json", doc),
                     "--output-dir", str(tmp_path)]) == EXIT_OK
        first = (tmp_path / "schedule.csv").read_text().splitlines()[1]
        assert first == "1,30.0,90.0"

    def test_percentage_law_is_simple_only(self, tmp_path, capsys):
        doc = {
            "model": "linear_percentage",
            "formulation": "complex",
            "params": {"mu_B": 0.0, "sigma_B": 0.1, "theta": 0.001,
                       "gamma": 0.0, "rho": 0.0, "sigma_eta": 1.0},
            "horizon": {"periods": 1, "total_shares": 10.0},
            "initial_state": {"price": 100.0, "no_impact_price": 100.0},
        }
        path = _write_json(tmp_path, "c.json", doc)
        assert main(["solve", path, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "formulation" in capsys.readouterr().err
        doc["formulation"] = "simple"
        assert main(["solve", _write_json(tmp_path, "c2.json", doc),
                     "--output-dir", str(tmp_path)]) == EXIT_OK
        doc.pop("formulation")
        st = doc["initial_state"].pop("no_impact_price")
        assert st == 100.0
        assert main(["solve", _write_json(tmp_path, "c3.json", doc),
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "no_impact_price" in capsys.readouterr().err

    def test_infeasible_liquidity_exits_3(self, tmp_path, capsys):
        doc = {
            "model": "liquidity",
            "params": {"alpha": 0.01, "theta": 0.05, "gamma": 0.02,
                       "rho": 0.5, "sigma_eps": 0.5, "sigma_eta": 10.0},
            "horizon": {"periods": 1, "total_shares": 26.0},
            "initial_state": {"price": 100.0, "aux": 50.0},
        }
        rc = main(["solve", _write_json(tmp_path, "c.json", doc),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        assert "error:" in capsys.readouterr().err

    def test_unsettled_stage_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        # every solver family's re-solve at the exact residual, capped short
        # of settling while the grid stages settle: the grid recursion's,
        # liquidity stage T-1 and the percentage law's
        runs = [(_bench_doc(formulation="complex"), 1)]
        for model, value in (("liquidity", 20.0), ("linear_percentage", 0.05)):
            cfg = bench_solve_config(model, value)
            cfg = json.loads(json.dumps(cfg, indent=2, sort_keys=True))
            runs += [(cfg, 1), (cfg, 2)]
        for k, (doc, newton_iters) in enumerate(runs):
            cap_resolves(monkeypatch, newton_iters)
            rc = main(["solve", _write_json(tmp_path, f"c{k}.json", doc),
                       "--output-dir", str(tmp_path)])
            assert rc == EXIT_SOLVER, doc
            err = capsys.readouterr().err
            assert err == f"error: stage solve did not converge within {newton_iters} Newton iterations\n"

    def test_unsettled_grid_stage_exits_3(self, tmp_path, capsys):
        # the bench's complex benchmark solve (theta 3, T=10) with Newton
        # capped at 4 iterations leaves grid nodes of its first stage moving;
        # nodes whose 4th step was a last small one count as settled
        cfg = bench_solve_config("benchmark", 3.0)
        cfg = json.loads(json.dumps(cfg, indent=2, sort_keys=True))
        cfg["solver"] = {**(cfg["solver"] or {}), "newton_iters": 4}
        rc = main(["solve", _write_json(tmp_path, "c.json", cfg), "--output-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "error: stage 9 grid solve did not converge within 4 Newton iterations at 76 nodes\n"
        )
        assert not (tmp_path / "policy.json").exists()

    def test_warning_prints_its_category_and_message_only(self, tmp_path, capsys):
        doc = _bench_doc(formulation="complex", params={"theta": 0.5, "sigma_eps": 2.0},
                         horizon={"periods": 4, "total_shares": 10.0})
        shown = warnings.showwarning
        rc = main(["solve", _write_json(tmp_path, "c.json", doc), "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == (
            "ConvexityWarning: stage costs are not certified convex (theta=0.5 against noise "
            "scale 2.0); reported optima may be local\n"
        )
        assert warnings.showwarning is shown

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        outdir = tmp_path / "env_out"
        monkeypatch.setenv("EXECSCHED_OUTPUT_DIR", str(outdir))
        doc = {
            "model": "benchmark",
            "params": {"theta": 1.0, "sigma_eps": 1.0},
            "horizon": {"periods": 1, "total_shares": 5.0},
        }
        assert main(["solve", _write_json(tmp_path, "c.json", doc)]) == EXIT_OK
        assert (outdir / "schedule.csv").exists()


def _fills_csv(rows):
    return "t,participant,side,qty,price\n" + "".join(
        f"{t},{who},{side},{qty},{price}\n" for t, who, side, qty, price in rows
    )


class TestAttribute:
    def _context(self, tmp_path, path, total=None):
        doc = {
            "arrival_price": path[0],
            "horizon": len(path) - 1,
            "price_path": list(path),
        }
        if total is not None:
            doc["total_shares"] = total
        return _write_json(tmp_path, "ctx.json", doc)

    def test_monotone_buyer_has_zero_complex_timing(self, tmp_path):
        path = (100.0, 101.0, 103.0, 106.0, 110.0)
        fills = _fills_csv([
            (t, "desk", "buy", q, p)
            for t, q, p in zip((1, 2, 3, 4), (4.0, 3.0, 2.0, 1.0), path[1:])
        ])
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", fills),
            self._context(tmp_path, path, total=10.0),
            "--formulation", "complex", "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "attribution.json").read_text())
        (report,) = doc["reports"]
        assert report["shortfall"] == 35.0
        assert report["impact"] == 35.0
        assert report["timing"] == 0.0
        assert report["timing_bps"] == 0.0
        assert doc["audit"] is None

    def test_formulation_flag_changes_the_split(self, tmp_path):
        path = (100.0, 103.0, 101.0, 99.0, 104.0)
        fills = _fills_csv([
            (t, "desk", "buy", q, p)
            for t, q, p in zip((1, 2, 3, 4), (4.0, 3.0, 2.0, 1.0), path[1:])
        ])
        fp = _write_text(tmp_path, "fills.csv", fills)
        ctx = self._context(tmp_path, path, total=10.0)
        main(["attribute", fp, ctx, "--output-dir", str(tmp_path)])
        simple = json.loads((tmp_path / "attribution.json").read_text())
        main(["attribute", fp, ctx, "--formulation", "complex",
              "--output-dir", str(tmp_path)])
        cplx = json.loads((tmp_path / "attribution.json").read_text())
        assert simple["reports"][0]["timing"] == 0.0
        assert cplx["reports"][0]["timing"] == -18.0
        assert simple["run_id"] != cplx["run_id"]

    def test_balanced_pair_audits_to_zero(self, tmp_path):
        fills = _fills_csv([
            (1, "buyer", "buy", 5.0, 102.0),
            (1, "dealer", "sell", 5.0, 102.0),
        ])
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", fills),
            self._context(tmp_path, (100.0, 102.0)),
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "attribution.json").read_text())
        assert doc["audit"]["total_impact"] == 10.0
        assert doc["audit"]["total_timing"] == -10.0
        assert doc["audit"]["residual"] == 0.0
        assert doc["audit"]["passed"] is True
        sides = {(r["participant"], r["side"]) for r in doc["reports"]}
        assert sides == {("buyer", "buy"), ("dealer", "sell")}

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        bad = "time,participant,side,qty,price\n1,a,buy,1.0,100.0\n"
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", bad),
            self._context(tmp_path, (100.0, 101.0), total=1.0),
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_INPUT
        assert "header" in capsys.readouterr().err

    def test_unbalanced_interval_exits_4(self, tmp_path, capsys):
        fills = _fills_csv([
            (1, "buyer", "buy", 5.0, 102.0),
            (1, "dealer", "sell", 3.0, 102.0),
        ])
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", fills),
            self._context(tmp_path, (100.0, 102.0)),
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_AUDIT
        assert "interval 1" in capsys.readouterr().err

    def test_off_path_prices_fail_the_audit_but_write_the_report(self, tmp_path):
        fills = _fills_csv([
            (1, "buyer", "buy", 5.0, 102.0),
            (1, "dealer", "sell", 5.0, 101.0),
        ])
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", fills),
            self._context(tmp_path, (100.0, 102.0)),
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_AUDIT
        doc = json.loads((tmp_path / "attribution.json").read_text())
        assert doc["audit"]["passed"] is False
        assert doc["audit"]["residual"] == pytest.approx(5.0)

    def test_single_order_needs_total_shares(self, tmp_path, capsys):
        fills = _fills_csv([(1, "desk", "buy", 5.0, 102.0)])
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", fills),
            self._context(tmp_path, (100.0, 102.0)),
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_INPUT
        assert "context.total_shares" in capsys.readouterr().err

    def test_context_violations_exit_2(self, tmp_path, capsys):
        fills = _write_text(
            tmp_path, "fills.csv", _fills_csv([(1, "desk", "buy", 5.0, 102.0)])
        )
        short_path = _write_json(tmp_path, "ctx1.json", {
            "arrival_price": 100.0, "horizon": 2,
            "price_path": [100.0, 102.0], "total_shares": 5.0,
        })
        assert main(["attribute", fills, short_path,
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "price_path" in capsys.readouterr().err
        drifted = _write_json(tmp_path, "ctx2.json", {
            "arrival_price": 99.0, "horizon": 1,
            "price_path": [100.0, 102.0], "total_shares": 5.0,
        })
        assert main(["attribute", fills, drifted,
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "arrival_price" in capsys.readouterr().err
        # an integer beyond the float range is named, not a traceback
        huge = _write_json(tmp_path, "ctx3.json", {
            "arrival_price": 10**400, "horizon": 1,
            "price_path": [100.0, 102.0], "total_shares": 5.0,
        })
        assert main(["attribute", fills, huge,
                     "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "context.arrival_price: must be finite" in capsys.readouterr().err

    def test_bad_fill_row_points_at_the_line(self, tmp_path, capsys):
        bad = "t,participant,side,qty,price\n1,desk,buy,1.0,100.0\n2,desk,buy,x,101.0\n"
        rc = main([
            "attribute", _write_text(tmp_path, "fills.csv", bad),
            self._context(tmp_path, (100.0, 100.5, 101.0), total=2.0),
            "--output-dir", str(tmp_path),
        ])
        assert rc == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err


_GOOD_FILLS = ("1,b,buy,5,101.0", "1,s,sell,5,101.0", "2,b,buy,5,102.0", "2,s,sell,5,102.0")


def _fills_text(*rows):
    return "t,participant,side,qty,price\n" + "".join(r + "\n" for r in rows)


def _swap(i, row):
    rows = list(_GOOD_FILLS)
    rows[i] = row
    return _fills_text(*rows)


# stderr and exit code of `execsched attribute` on each bad fills file, as
# recorded for the row-by-row parser that the columnar one replaced; the
# context is _ERROR_CONTEXT
_FILLS_ERRORS = [
    ("four-columns", _swap(2, "2,b,buy,5"), 2,
     "fills line 4: expected 5 columns, got 4"),
    ("six-columns", _swap(2, "2,b,buy,5,102.0,x"), 2,
     "fills line 4: expected 5 columns, got 6"),
    ("t-not-integer", _swap(2, "x,b,buy,5,102.0"), 2,
     "fills line 4: t: not an integer: 'x'"),
    ("t-zero", _swap(2, "0,b,buy,5,102.0"), 2,
     "fills line 4: t must be an integer >= 1, got 0"),
    ("t-fraction", _swap(2, "1.5,b,buy,5,102.0"), 2,
     "fills line 4: t: not an integer: '1.5'"),
    ("t-beyond-int64", _swap(3, f"{10**30},s,sell,5,102.0"), 2,
     f"fill at t={10**30} is outside the horizon T=2; no price step exists for it"),
    ("t-beyond-int64-single-order", _fills_text("1,b,buy,5,101.0", f"{10**30},b,buy,5,102.0"), 2,
     f"fill at t={10**30} is outside the horizon T=2; no price step exists for it"),
    ("earlier-t-beyond-horizon",
     _fills_text("1,b,buy,5,101.0", "3,s,sell,5,102.0", f"{10**30},s,sell,5,102.0"), 2,
     "fill at t=3 is outside the horizon T=2; no price step exists for it"),
    ("qty-not-number", _swap(2, "2,b,buy,x,102.0"), 2,
     "fills line 4: qty/price: not a number: 'x', '102.0'"),
    ("qty-negative", _swap(2, "2,b,buy,-1,102.0"), 2,
     "fills line 4: qty must be finite and > 0, got -1.0"),
    ("price-nan", _swap(2, "2,b,buy,5,nan"), 2,
     "fills line 4: price must be finite and > 0, got nan"),
    ("side-hold", _swap(2, "2,b,hold,5,102.0"), 2,
     "fills line 4: side must be 'buy' or 'sell', got 'hold'"),
    ("empty-participant", _swap(2, "2,,buy,5,102.0"), 2,
     "fills line 4: participant must be a nonempty string, got ''"),
    ("blank-lines-before-bad-row",
     _fills_text(_GOOD_FILLS[0], "", "", _GOOD_FILLS[1], "", "2,b,buy,x,102.0", _GOOD_FILLS[3]),
     2, "fills line 7: qty/price: not a number: 'x', '102.0'"),
    ("earlier-of-width-and-qty",
     _fills_text(_GOOD_FILLS[0], "2,b,buy,5", "2,b,buy,-1,102.0", _GOOD_FILLS[3]), 2,
     "fills line 3: expected 5 columns, got 4"),
    ("earlier-of-t-and-width",
     _fills_text(_GOOD_FILLS[0], "x,b,buy,5,102.0", "2,b,buy,5", _GOOD_FILLS[3]), 2,
     "fills line 3: t: not an integer: 'x'"),
    ("earlier-of-participant-and-qty",
     _fills_text(_GOOD_FILLS[0], "2,,buy,5,102.0", "2,b,buy,nan,102.0", _GOOD_FILLS[3]), 2,
     "fills line 3: participant must be a nonempty string, got ''"),
    ("t-before-qty-in-one-row", _swap(2, "x,b,buy,y,102.0"), 2,
     "fills line 4: t: not an integer: 'x'"),
    ("qty-before-side-in-one-row", _swap(2, "2,b,hold,-1,102.0"), 2,
     "fills line 4: qty must be finite and > 0, got -1.0"),
    ("single-order-short-of-total", _fills_text("1,b,buy,5,101.0"), 2,
     "fill quantities sum to 5.0, not the order total 10.0 (tolerance 1e-08)"),
    ("unbalanced", _swap(3, "2,s,sell,4,102.0"), 4,
     "interval 2: bought 5.0 but sold 4.0; the audit needs balanced quantities per interval"),
    ("empty", "", 2, "fills: empty file"),
    ("header-only", _fills_text(), 2, "fills: no fill rows after the header"),
    ("blank-rows-only", _fills_text("", ""), 2, "fills: no fill rows after the header"),
    ("bad-header", "t,who,side,qty,price\n1,b,buy,5,101.0\n", 2,
     "fills: header must be exactly 't,participant,side,qty,price', got 't,who,side,qty,price'"),
]

_ERROR_CONTEXT = {
    "arrival_price": 100.0, "horizon": 2, "price_path": [100.0, 101.0, 102.0],
    "total_shares": 10.0,
}


class TestFillsErrors:
    def _run(self, tmp_path, text, context=_ERROR_CONTEXT):
        fills = tmp_path / "fills.csv"
        fills.write_bytes(text.encode("utf-8"))
        return main([
            "attribute", str(fills), _write_json(tmp_path, "ctx.json", context),
            "--output-dir", str(tmp_path / "out"),
        ])

    @pytest.mark.parametrize(
        "text, code, message", [c[1:] for c in _FILLS_ERRORS], ids=[c[0] for c in _FILLS_ERRORS]
    )
    def test_message_and_exit_code(self, tmp_path, capsys, text, code, message):
        assert self._run(tmp_path, text) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("sells", [2, 0], ids=["audit", "single-order"])
    def test_order_sums_beyond_the_float_range(self, tmp_path, capsys, sells):
        # each quantity is finite, but two of them sum past the float range
        rows = ["1,b,buy,1e308,100"] * 2 + ["1,s,sell,1e308,100"] * sells
        context = {"arrival_price": 100.0, "horizon": 1, "price_path": [100.0, 101.0],
                   "total_shares": 1e308}
        assert self._run(tmp_path, _fills_text(*rows), context) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: order ('b', 'buy'): fill quantities or values sum beyond the float range\n")

    def test_quoted_newline_names_the_physical_line(self, tmp_path, capsys):
        # the quoted participant spans lines 3-4, so the bad row is on line 5
        text = _fills_text("1,b,buy,5,102.0", '1,"s\nx",sell,5,102.0', "1,s,sell,x,102.0")
        assert self._run(tmp_path, text) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: fills line 5: qty/price: not a number: 'x', '102.0'\n"

    def test_form_feed_stays_inside_its_field(self, tmp_path, capsys):
        text = _fills_text("1,b\x0cx,buy,5,101.0", "1,s,sell,x,101.0")
        assert self._run(tmp_path, text) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: fills line 3: qty/price: not a number: 'x', '101.0'\n"

    def test_quoted_fields_are_read_whole(self, tmp_path):
        text = _fills_text('1,"b\x0c,\n1",buy,5,101.0', "1,s,sell,5,101.0",
                           '2,"b\x0c,\n1",buy,5,102.0', "2,s,sell,5,102.0")
        assert self._run(tmp_path, text) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "attribution.json").read_text())
        assert [(r["participant"], r["side"]) for r in doc["reports"]] == [
            ("b\x0c,\n1", "buy"), ("s", "sell"),
        ]


# blanks that int() and float() strip around a number, then some they do not
_BLANKS = " \t\x0b\x0c\x85\xa0\u2028\u3000\x1c\x1f"
_SPECIAL_NUMBERS = [
    "", "inf", "-inf", "nan", "-nan", "Infinity", "iNf", "1e400", "1e-400", "1_0", "1_0.5",
    "\u0663", "\u01fe1", "0x10", "1.0", "1e0", "-0", "+-1", "1 0",
    str(2**63), str(-(2**63) - 1), str(10**30),
]
_ODD_NAMES = st.text(st.sampled_from([*"ab, \t\x0b\x0c\x00\"\r\n\xe9", "\u2028"]), max_size=3)


def _padded(values):
    blanks = st.text(st.sampled_from(" \t\x0b\x0c"), max_size=2)
    return st.tuples(blanks, values, blanks).map("".join)


def _odd(values):
    """Fields near ``values`` that int() or float() may read otherwise or not at all."""
    char = st.one_of(
        st.characters(), st.characters(min_codepoint=0x80), st.sampled_from(_BLANKS)
    )
    return st.one_of(
        st.tuples(char, values).map("".join),
        st.tuples(values, char).map("".join),
        st.sampled_from(_SPECIAL_NUMBERS),
        st.floats().map(repr),
        st.text(st.sampled_from([*"0123456789+-.eE_xin", *_BLANKS, "\x00", "\u0663"]), max_size=6),
    )


# values of the fields of rows both routes accept, in forms int()/float() read alike
_T_VALUES = st.one_of(st.integers(1, 6).map(str), st.sampled_from(["+3", "002"]))
_NUMBER_VALUES = st.one_of(
    st.floats(1e-3, 1e6).map(repr),
    st.integers(1, 10**6).map(str),
    st.sampled_from([".5", "5.", "+3", "1E+02", "0.1e1", "007", "1e-3"]),
)
_GOOD_FIELDS = (
    _padded(_T_VALUES),
    st.one_of(
        st.text(st.sampled_from([*"ab# \t\x0b\x0c\x00\x7f"]), min_size=1, max_size=3),
        # names of many widths, so the plain route reads its fields at many widths
        st.text(st.sampled_from([*"ab# \t\x0b\x0c\x7f"]), min_size=1, max_size=40),
    ),
    st.sampled_from(["buy", "sell"]),
    _padded(_NUMBER_VALUES),
    _padded(_NUMBER_VALUES),
)
_ODD_FIELDS = (
    _odd(_T_VALUES),
    _ODD_NAMES,
    st.sampled_from(["hold", "", " buy", "sell\x0c", "Buy"]),
    _odd(_NUMBER_VALUES),
    _odd(_NUMBER_VALUES),
)
# rows either route may reject: one odd field, a wrong width or blanks only
_ODD_ROWS = st.one_of(
    st.integers(0, 4).flatmap(
        lambda k: st.tuples(*_GOOD_FIELDS[:k], _ODD_FIELDS[k], *_GOOD_FIELDS[k + 1:])
    ).map(",".join),
    st.lists(st.one_of(_GOOD_FIELDS[0], _ODD_NAMES), max_size=7).map(",".join),
    st.text(st.sampled_from(" \t\x0b\x0c"), max_size=2),
)


def _fills_texts():
    """Fills texts: good rows and blank lines, often with one odd row among them."""
    good = st.one_of(st.tuples(*_GOOD_FIELDS).map(",".join), st.just(""))
    header = st.sampled_from(["t,participant,side,qty,price"] * 3 + ["t,participant,side,qty"])

    def text(parts):
        bom, head, body, (k, odd), end = parts
        if odd is not None:
            body.insert(k % (len(body) + 1), odd)
        return bom + head + "".join("\n" + row for row in body) + end

    return st.tuples(
        st.sampled_from(["", "", "", "\ufeff"]),
        header,
        st.lists(good, max_size=5),
        st.tuples(st.integers(0, 5), st.one_of(st.none(), _ODD_ROWS, _ODD_ROWS)),
        st.sampled_from(["", "\n"]),
    ).map(text)


def _fill_outcome(parse, data):
    """The columns ``parse(data)`` gives, bit for bit, or its SchemaError text."""
    try:
        cols = parse(data)
    except SchemaError as e:
        return str(e)
    return (
        cols.t.dtype, cols.t.tolist(), cols.qty.dtype, cols.qty.tobytes(),
        cols.price.dtype, cols.price.tobytes(), cols.order.dtype, cols.order.tolist(),
        cols.orders,
    )


class TestFillsRoutes:
    """An ASCII fills file with no quote, CR or \\x1c-\\x1f is read by numpy's C
    tokenizer; every other file, and every file that route turns down, by ``csv``."""

    @given(_fills_texts())
    @settings(max_examples=400, deadline=None)
    def test_both_routes_agree(self, text):
        raw = text.encode("utf-8")
        assert _fill_outcome(fills_reader._parse_fills, raw) == _fill_outcome(
            fills_reader._csv_fill_columns, raw.decode("utf-8-sig")
        )

    @pytest.mark.parametrize("row, message", [
        # numpy's int64 reader takes these characters for digits
        ("\u01fe1,b,buy,5,101.0", "t: not an integer: '\u01fe1'"),
        ("1\u0761,b,buy,5,101.0", "t: not an integer: '1\u0761'"),
        # and strips \x1c-\x1f around a number, which int() and float() do not
        ("\x1c1,b,buy,5,101.0", "t: not an integer: '\\x1c1'"),
        ("1,b,buy,5\x1f,101.0", "qty/price: not a number: '5\\x1f', '101.0'"),
        ("1,b,buy,5,\x1e101.0", "qty/price: not a number: '5', '\\x1e101.0'"),
    ])
    def test_numbers_numpy_reads_otherwise_are_rejected(self, row, message):
        raw = _fills_text(row).encode("utf-8")
        for parse, data in (
            (fills_reader._parse_fills, raw), (fills_reader._csv_fill_columns, raw.decode()),
        ):
            assert _fill_outcome(parse, data) == f"fills line 2: {message}"

    def test_plain_market_skips_the_csv_reader(self, tmp_path, monkeypatch):
        rows = [
            (t, f"{who}{i}", side, (7 * i + t) % 90 + 1, repr(100.0 + t / 8.0))
            for t in range(1, 31)
            for who, side in (("b", "buy"), ("s", "sell"))
            for i in range(50)
        ]

        def load(name, template, newline="\n"):
            text = _fills_text(*(template.format(*row) for row in rows)).replace("\n", newline)
            path = tmp_path / name
            path.write_bytes(text.encode("utf-8"))
            return _fill_outcome(lambda p: fills_reader.load_fills(p)[0], str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain fills file")

        with monkeypatch.context() as patched:
            patched.setattr(fills_reader.csv, "reader", refuse)
            plain = load("plain.csv", "{},{},{},{},{}")
        assert len(plain[1]) == 3000 and len(plain[-1]) == 100
        assert load("quoted.csv", '{},"{}",{},{},{}') == plain
        assert load("crlf.csv", "{},{},{},{},{}", "\r\n") == plain

    @staticmethod
    def _routes_agree(raw):
        outcome = _fill_outcome(fills_reader._parse_fills, raw)
        assert outcome == _fill_outcome(fills_reader._csv_fill_columns, raw.decode("utf-8-sig"))
        return outcome

    def test_last_line_counts_for_the_width_without_a_newline(self):
        who = "p" * 40
        raw = _fills_text(*_GOOD_FILLS).encode() + f"2,{who},buy,5,102.0".encode()
        cols = fills_reader._plain_fill_columns(raw)
        assert cols is not None and cols.orders[-1] == (who, "buy")
        assert self._routes_agree(raw)[-1] == (("b", "buy"), ("s", "sell"), (who, "buy"))

    def test_nul_in_a_participant_takes_the_csv_route(self, monkeypatch):
        # a fixed-width field drops trailing NULs, so "b\x00" would read as "b"
        raw = _fills_text("1,b\x00,buy,5,101.0", "1,b,buy,5,101.0", "1,s,sell,10,101.0").encode()

        def refuse(raw):
            raise AssertionError("plain route called on a file holding NUL")

        monkeypatch.setattr(fills_reader, "_plain_fill_columns", refuse)
        outcome = self._routes_agree(raw)
        assert outcome[-1] == (("b\x00", "buy"), ("b", "buy"), ("s", "sell"))

    def test_one_very_long_line_takes_the_csv_route(self, monkeypatch):
        rows = [f"{t},{who},{side},5,10{t}.0"
                for t in range(1, 6) for who, side in (("b", "buy"), ("s", "sell"))]
        who = "p" * 100_000
        raw = _fills_text(*rows, f"1,{who},buy,5,101.0").encode()
        # its records would take 2 * 100k bytes for each of the 12 lines
        width = max(map(len, raw.split(b"\n")[1:]))
        assert 12 * 2 * width > fills_reader._PLAIN_RECORD_BYTES_PER_FILE_BYTE * len(raw)

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called past the record-size bound")

        with monkeypatch.context() as patched:
            patched.setattr(fills_reader.np, "loadtxt", refuse)
            assert fills_reader._plain_fill_columns(raw) is None
            outcome = self._routes_agree(raw)
        assert outcome[-1] == (("b", "buy"), ("s", "sell"), (who, "buy"))
        # the same file with a short name stays on the plain route
        assert fills_reader._plain_fill_columns(raw.replace(who.encode(), b"p")) is not None

    def test_shared_prefixes_and_both_sides_code_apart(self):
        stem = "desk-" + "0" * 30
        rows = [
            f"1,{stem}1,buy,5,101.0", f"1,{stem}10,sell,3,101.0", f"1,{stem}1,sell,2,101.0",
            f"2,{stem},buy,4,102.0", f"2,{stem}1,buy,1,102.0", f"2,{stem}10,sell,5,102.0",
        ]
        raw = _fills_text(*rows).encode()
        cols = fills_reader._plain_fill_columns(raw)
        assert cols is not None
        assert cols.orders == (
            (f"{stem}1", "buy"), (f"{stem}10", "sell"), (f"{stem}1", "sell"), (stem, "buy"),
        )
        assert cols.order.tolist() == [0, 1, 2, 3, 0, 1]
        assert self._routes_agree(raw)[-1] == cols.orders

    def test_quoted_field_beyond_the_csv_limit_loads_like_its_plain_twin(
        self, tmp_path, capsys
    ):
        # csv.reader refuses a field over 131072 characters unless its limit
        # is lifted; the numpy route that reads the plain twin has no limit
        who = "p" * 140_000
        context = _write_json(tmp_path, "ctx.json", {
            "arrival_price": 100.0, "horizon": 1,
            "price_path": [100.0, 102.0], "total_shares": 5.0,
        })
        limit = csv.field_size_limit()
        docs = []
        for name, field in (("plain", who), ("quoted", f'"{who}"')):
            fills = _write_text(tmp_path, f"{name}.csv", _fills_text(f"1,{field},buy,5,102.0"))
            out = tmp_path / name
            assert main(["attribute", fills, context, "--output-dir", str(out)]) == EXIT_OK
            doc = json.loads((out / "attribution.json").read_text())
            docs.append({k: v for k, v in doc.items() if k not in ("run_id", "fills_digest")})
            assert csv.field_size_limit() == limit
        assert docs[0] == docs[1]
        assert docs[0]["reports"][0]["participant"] == who
        # the error path finds the bad record's line past the long field too
        bad = _write_text(
            tmp_path, "bad.csv", _fills_text(f'1,"{who}",buy,5,102.0', "1,desk,buy,x,102.0")
        )
        assert main(["attribute", bad, context, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "fills line 3: qty/price: not a number" in capsys.readouterr().err
        assert csv.field_size_limit() == limit

    def test_participant_at_the_width_bound_stays_plain(self):
        # the longest line is valid, every field but the participant one byte
        # or "buy", so the participant takes all the width the route reads
        who = "p" * 30
        row = f"1,{who},buy,5,9"
        raw = _fills_text(*_GOOD_FILLS, row).encode()
        assert len(row) == max(map(len, raw.split(b"\n")))
        assert len(row) - fills_reader._MIN_OTHER_FIELDS == len(who)
        cols = fills_reader._plain_fill_columns(raw)
        assert cols is not None and cols.orders[-1] == (who, "buy")
        assert self._routes_agree(raw) == _fill_outcome(lambda raw: cols, raw)

    @pytest.mark.parametrize("side", ["buyer", "sells", "bu", "sell ", "selling"])
    def test_sides_beyond_or_short_of_the_field_are_worded_by_csv(self, side):
        # the route reads side as 5 bytes: a longer side keeps 5 that are not a side
        raw = _fills_text(*_GOOD_FILLS, f"2,b,{side},5,102.0").encode()
        assert fills_reader._plain_fill_columns(raw) is None
        assert self._routes_agree(raw) == (
            f"fills line 6: side must be 'buy' or 'sell', got {side!r}"
        )

    def test_participant_beyond_the_bound_of_an_invalid_row_is_worded_by_csv(self):
        # a 37-byte line: the plain route reads 27 bytes of this 30-byte name
        who = "p" * 30
        raw = _fills_text(*_GOOD_FILLS, f"1,{who},,5,9").encode()
        assert len(who) > 37 - fills_reader._MIN_OTHER_FIELDS
        assert fills_reader._plain_fill_columns(raw) is None
        assert self._routes_agree(raw) == "fills line 6: side must be 'buy' or 'sell', got ''"

    def test_plain_read_drops_the_line_lengths_before_the_records(self):
        # one int64 per line kept through np.loadtxt read 3.9 bytes per file byte
        raw = balanced_market(300, 300, 40)[0].encode()
        cols, peak = traced_peak(fills_reader._plain_fill_columns, raw)
        assert cols is not None and len(cols) == 600 * 40
        assert peak <= 3.75 * len(raw)

    def test_plain_read_peaks_under_5_bytes_per_file_byte(self):
        raw = balanced_market(300, 300, 40)[0].encode()
        (cols, route), peak = traced_peak(fills_reader._routed_fills, raw)
        assert route == "plain" and len(cols) == 600 * 40
        assert peak <= 5 * len(raw)


class TestJsonText:
    @given(
        st.recursive(
            st.one_of(
                st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(),
                st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                st.integers(-(2**63), 2**63 - 1).map(np.int64),
            ),
            lambda kids: st.one_of(
                st.lists(kids, max_size=4),
                st.lists(kids, max_size=3).map(tuple),
                st.dictionaries(
                    st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.none()),
                    kids,
                    max_size=4,
                ),
            ),
            max_leaves=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_indented_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, default=cli._json_default) + "\n"

    # strings that look like the brackets and separators between items
    TRICKY = st.text(
        st.sampled_from(["}", "]", "{", "[", ",", "\n", " ", '"', "é", "\u2603", "a"])
    )
    SCALARS = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), TRICKY)

    @given(
        st.one_of(
            st.lists(st.dictionaries(TRICKY, SCALARS, min_size=1, max_size=4), min_size=2),
            st.lists(
                st.one_of(
                    st.lists(SCALARS, min_size=1, max_size=4),
                    st.lists(SCALARS, min_size=1, max_size=3).map(tuple),
                ),
                min_size=2,
            ),
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_lists_of_flat_containers_match_indented_dumps(self, items, depth):
        assert cli._flat_items(items)
        doc = items
        for _ in range(depth):
            doc = {"k": doc}
        assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


class TestManifestPhases:
    @pytest.mark.parametrize("command", ["solve", "simulate", "attribute"])
    def test_only_the_manifest_carries_the_clock(self, tmp_path, command):
        if command == "attribute":
            argv = ["attribute",
                    _write_text(tmp_path, "fills.csv", _fills_text(*_GOOD_FILLS)),
                    _write_json(tmp_path, "ctx.json", _ERROR_CONTEXT)]
        else:
            argv = [command, _write_json(tmp_path, "c.json", _bench_doc())]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--output-dir", str(a)]) == EXIT_OK
        assert main([*argv, "--output-dir", str(b)]) == EXIT_OK
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        for manifest in (ma, mb):
            phases = manifest["phases_s"]
            assert list(phases) == ["load", "compute", "write"]
            assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
        assert {k: v for k, v in ma.items() if k not in ("phases_s", "created_utc")} == {
            k: v for k, v in mb.items() if k not in ("phases_s", "created_utc")
        }
        for entry in ma["outputs"]:
            name = entry["path"]
            assert (a / name).read_bytes() == (b / name).read_bytes()
            assert hashlib.sha256((a / name).read_bytes()).hexdigest() == entry["sha256"]


class TestManifestFillsRoute:
    @pytest.mark.parametrize("newline, route", [("\n", "plain"), ("\r\n", "csv")])
    def test_manifest_names_the_route_that_read_the_fills(self, tmp_path, newline, route):
        # a carriage return sends the file to the csv route
        fills = tmp_path / "fills.csv"
        fills.write_bytes(_fills_text(*_GOOD_FILLS).replace("\n", newline).encode())
        argv = ["attribute", str(fills), _write_json(tmp_path, "ctx.json", _ERROR_CONTEXT)]
        assert main([*argv, "--output-dir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"]["fills"]["route"] == route


class TestSolveThreads:
    """A solve runs on the thread that calls it, so its manifest records no
    thread count, and two reruns differ only in the clock."""

    @staticmethod
    def _solve(tmp_path, name):
        doc = bench_solve_config("liquidity", 20.0)
        out = tmp_path / name
        argv = ["solve", _write_json(tmp_path, "c.json", doc), "--output-dir", str(out)]
        assert main(argv) == EXIT_OK
        return json.loads((out / "manifest.json").read_text())

    def test_manifests_of_two_reruns_differ_only_in_the_clock(self, tmp_path):
        one, two = (self._solve(tmp_path, name) for name in ("a", "b"))
        varying = {"created_utc", "phases_s"}
        assert "threads" not in one and one.keys() == two.keys() >= varying
        assert {k: v for k, v in one.items() if k not in varying} == {
            k: v for k, v in two.items() if k not in varying
        }

    def test_an_error_in_one_block_keeps_exit_3(self, monkeypatch, tmp_path, capsys):
        tensor = liquidity._Penultimate._tensor
        calls = itertools.count()

        def failing(self, s, r, nodes):
            if next(calls) == 40:
                raise cli.SolverError("block 40 failed")
            return tensor(self, s, r, nodes)

        monkeypatch.setattr(liquidity._Penultimate, "_tensor", failing)
        argv = ["solve", _write_json(tmp_path, "c.json", bench_solve_config("liquidity", 20.0)),
                "--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_SOLVER
        assert capsys.readouterr().err == "error: block 40 failed\n"


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_json(tmp_path, "c.json", _bench_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--output-dir", str(a)]) == EXIT_OK
        assert main(["simulate", cfg, "--output-dir", str(b)]) == EXIT_OK
        assert (a / "distribution.json").read_bytes() == (b / "distribution.json").read_bytes()
        assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["run_id"] == mb["run_id"]

    def test_run_identity_carries_the_stream_version(self, tmp_path):
        cfg = _write_json(tmp_path, "c.json", _bench_doc())
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        dist = json.loads((tmp_path / "distribution.json").read_text())
        assert manifest["stream_version"] == 2
        assert dist["run_id"] == manifest["run_id"]
        # the identity the same run had on the unversioned stream
        digest = manifest["inputs"]["config"]["sha256"]
        parts = "\n".join(["simulate", digest, "7", "300", "simple", "buy"])
        assert manifest["run_id"] != hashlib.sha256(parts.encode()).hexdigest()[:16]

    def test_parallelism_does_not_change_bytes(self, tmp_path):
        cfg = _write_json(tmp_path, "c.json", _bench_doc())
        a, b = tmp_path / "w1", tmp_path / "w3"
        main(["simulate", cfg, "--workers", "1", "--output-dir", str(a)])
        main(["simulate", cfg, "--workers", "3", "--output-dir", str(b)])
        assert (a / "distribution.json").read_bytes() == (b / "distribution.json").read_bytes()
        assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()

    def test_seed_and_paths_overrides(self, tmp_path):
        cfg = _write_json(tmp_path, "c.json", _bench_doc())
        a, b = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", cfg, "--seed", "21", "--output-dir", str(a)])
        main(["simulate", cfg, "--seed", "22", "--output-dir", str(b)])
        assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()
        main(["simulate", cfg, "--paths", "50", "--output-dir", str(a)])
        doc = json.loads((a / "distribution.json").read_text())
        assert doc["n_paths"] == 50
        assert len((a / "paths.csv").read_text().splitlines()) == 51

    def test_noise_free_run_has_zero_std(self, tmp_path):
        doc = _bench_doc(
            params={"theta": 0.5, "sigma_eps": 0.0},
            schedule=[4.0, 3.0, 3.0],
        )
        cfg = _write_json(tmp_path, "c.json", doc)
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        dist = json.loads((tmp_path / "distribution.json").read_text())
        assert dist["summary"]["shortfall"]["std"] == 0.0
        assert dist["summary"]["impact"]["std"] == 0.0
        assert dist["objective"]["standard_error"] == 0.0
        assert dist["schedule"]["trades"] == [4.0, 3.0, 3.0]

    def test_dust_negative_schedule_trade_runs(self, tmp_path):
        # Schedule admits trades down to -1e-12; the simulator executes them as 0
        doc = _bench_doc(schedule=[5.0, -5e-13, 5.0000000000005])
        cfg = _write_json(tmp_path, "c.json", doc)
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        dist = json.loads((tmp_path / "distribution.json").read_text())
        assert dist["n_feasible"] == 300

    def test_noise_free_config_cannot_be_solved(self, tmp_path, capsys):
        doc = _bench_doc(params={"theta": 0.5, "sigma_eps": 0.0})
        cfg = _write_json(tmp_path, "c.json", doc)
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "sigma_eps" in capsys.readouterr().err

    def test_objective_estimate_tracks_closed_form(self, tmp_path):
        doc = _bench_doc(simulation={"n_paths": 20_000, "seed": 3, "workers": 1})
        cfg = _write_json(tmp_path, "c.json", doc)
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        dist = json.loads((tmp_path / "distribution.json").read_text())
        s = 10.0 / 3
        closed = 3 * s * 2.0 * mills_psi(2.0 * s / 2.0)
        est, se = dist["objective"]["estimate"], dist["objective"]["standard_error"]
        assert se > 0.0
        assert abs(est - closed) <= 3.0 * se

    def test_liquidity_exclusions_are_reported(self, tmp_path):
        doc = {
            "model": "liquidity",
            "params": {"alpha": 0.01, "theta": 0.05, "gamma": 0.02,
                       "rho": 0.5, "sigma_eps": 0.5, "sigma_eta": 10.0},
            "horizon": {"periods": 2, "total_shares": 40.0},
            "initial_state": {"price": 100.0, "aux": 50.0},
            "schedule": [20.0, 20.0],
            "simulation": {"n_paths": 300, "seed": 5, "workers": 1},
        }
        cfg = _write_json(tmp_path, "c.json", doc)
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        dist = json.loads((tmp_path / "distribution.json").read_text())
        assert dist["n_infeasible"] > 0
        assert dist["n_feasible"] + dist["n_infeasible"] == 300
        rows = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(rows) - 1 == dist["n_feasible"]
        counted = sum(
            cell["count"]
            for row in dist["buckets"].values()
            for cell in row.values()
        )
        assert counted == dist["n_feasible"]

    def test_simulation_block_required(self, tmp_path, capsys):
        doc = _bench_doc()
        doc.pop("simulation")
        cfg = _write_json(tmp_path, "c.json", doc)
        assert main(["simulate", cfg, "--output-dir", str(tmp_path)]) == EXIT_INPUT
        assert "simulation" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["kernels", "attribution", "zero-sum", "solvers"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", suite]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["selector"] == suite
        assert doc["passed"] is True
        assert doc["checks"]
        assert all(c["passed"] for c in doc["checks"])
        assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0.0 for c in doc["checks"])

    def test_parser_offers_every_suite_in_run_order(self):
        from execsched import verify

        assert cli.VERIFY_SUITES == tuple(verify._SUITES)

    def test_unknown_selector_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "everything"])
        assert err.value.code == 2

    @pytest.mark.parametrize("suite", ["kernels", "solvers"])
    def test_quadrature_suites_pass_in_a_fresh_interpreter(self, suite):
        # scipy.integrate is imported on demand; nothing else loads it first here
        proc = subprocess.run(
            [sys.executable, "-m", "execsched", "verify", suite],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "execsched", "verify", "attribution"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


class TestColdImport:
    @pytest.mark.parametrize("module", ["execsched.cli", "execsched"])
    def test_import_leaves_unused_scipy_subpackages_unloaded(self, module):
        code = (
            f"import json, sys, {module}; "
            "print(json.dumps([m for m in ('scipy.interpolate', 'scipy.stats', "
            "'scipy.integrate') if m in sys.modules]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_cli_import_leaves_the_verify_suites_unloaded(self):
        code = "import sys, execsched.cli; print('execsched.verify' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_the_liquidity_pool_unloaded(self):
        # solve loads the liquidity solver, and with it the thread pool, on use
        loaded, _ = _fresh_json(
            "import json, sys, execsched.cli; print(json.dumps([m for m in "
            "('execsched.liquidity', 'concurrent.futures') if m in sys.modules]))"
        )
        assert loaded == []

    @pytest.mark.parametrize(
        "module, prefix", [("execsched", "execsched."), ("execsched.cli", "scipy")]
    )
    def test_import_loads_no_later_layer(self, module, prefix):
        loaded, _ = _fresh_json(
            f"import json, sys, {module}; "
            f"print(json.dumps([m for m in sys.modules if m.startswith({prefix!r})]))"
        )
        assert loaded == []

    @pytest.mark.parametrize("text, code, err", [
        (_fills_text(*_GOOD_FILLS), EXIT_OK, ""),
        (_swap(1, "1,s,sell,3,101.0"), EXIT_AUDIT, "interval 1"),
        (_swap(0, "x,b,buy,5,101.0"), EXIT_INPUT, "error: fills line 2: t: not an integer: 'x'\n"),
    ], ids=["balanced", "unbalanced", "malformed"])
    def test_attribute_loads_no_solver_layer(self, tmp_path, text, code, err):
        fills = _write_text(tmp_path, "fills.csv", text)
        argv = ["attribute", fills, _write_json(tmp_path, "ctx.json", _ERROR_CONTEXT),
                "--output-dir", str(tmp_path / "out")]
        rc, stderr, loaded = _cold_main(argv)
        assert (rc, loaded) == (code, [])
        assert (err in stderr) if err else stderr == ""

    def test_cold_solve_maps_a_solver_error_to_exit_3(self, tmp_path):
        # one period of 26 shares against a volume bound of 25
        doc = {**_TINY_LIQUIDITY, "horizon": {"periods": 1, "total_shares": 26.0}}
        argv = ["solve", _write_json(tmp_path, "c.json", doc), "--output-dir", str(tmp_path)]
        rc, stderr, loaded = _cold_main(argv)
        assert rc == EXIT_SOLVER
        assert stderr.startswith("error: ") and "execsched.dp" in loaded


# the layers that `attribute` never calls
_SOLVER_LAYER = (
    "scipy", "execsched.dp", "execsched.kernels", "execsched.gbm", "execsched.liquidity",
    "execsched.simulate", "execsched.verify",
)


def _fresh_json(code, *args):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _cold_main(argv):
    """Exit code, stderr and the loaded modules of ``_SOLVER_LAYER`` of
    ``main(argv)`` run in a fresh interpreter."""
    (rc, loaded), stderr = _fresh_json(
        "import json, sys; from execsched import cli; rc = cli.main(sys.argv[1:]); "
        f"print(json.dumps([rc, [m for m in {_SOLVER_LAYER!r} if m in sys.modules]]))",
        *argv,
    )
    return rc, stderr, loaded


_TINY_LIQUIDITY = {
    "model": "liquidity",
    "params": {"alpha": 0.01, "theta": 0.05, "gamma": 0.02,
               "rho": 0.5, "sigma_eps": 0.5, "sigma_eta": 10.0},
    "horizon": {"periods": 1, "total_shares": 10.0},
    "initial_state": {"price": 100.0, "aux": 50.0},
}


class TestWrappedCallSites:
    """The benchmark's tracer (``bench/tracing.py``) wraps these functions as
    attributes of ``execsched.cli``: each command calls the one set there."""

    def _argv(self, tmp_path, command):
        if command.startswith("attribute"):
            # two balanced orders go to the audit, one order to ``attribute``
            rows = _GOOD_FILLS if command == "attribute-pair" else _GOOD_FILLS[::2]
            fills = _write_text(tmp_path, "fills.csv", _fills_text(*rows))
            context = _write_json(tmp_path, "ctx.json", _ERROR_CONTEXT)
            return ["attribute", fills, context, "--output-dir", str(tmp_path)]
        doc = {
            "solve-complex": _bench_doc(formulation="complex"),
            "solve-liquidity": _TINY_LIQUIDITY,
            "simulate": _bench_doc(),
        }[command]
        name = command.split("-")[0]
        return [name, _write_json(tmp_path, "c.json", doc), "--output-dir", str(tmp_path)]

    @pytest.mark.parametrize("site, command", [
        ("solve_benchmark_complex", "solve-complex"),
        ("solve_liquidity", "solve-liquidity"),
        ("load_fills", "attribute-single"),
        ("attribute", "attribute-single"),
        ("zero_sum_audit", "attribute-pair"),
        ("evaluate_policy", "simulate"),
        ("_write_output", "solve-complex"),
    ])
    def test_command_calls_the_wrapper_set_on_the_module(self, tmp_path, monkeypatch, site,
                                                         command):
        original = getattr(cli, site)
        calls = []

        def counted(*args, **kwargs):
            calls.append(site)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, site, counted)
        assert main(self._argv(tmp_path, command)) == EXIT_OK
        assert calls
