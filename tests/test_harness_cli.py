import json

import numpy as np
import pytest

from umaxent import (
    Distribution,
    SyntheticSpec,
    ValidationError,
    ZeroMarginal,
    dump_json,
    generate,
    is_deterministic_channel,
    load_problem,
)
from umaxent.cli import EXIT_MAX_ITER, EXIT_OK, EXIT_VALIDATION, main


def write_problem(tmp_path, name="prob", **kwargs):
    spec = SyntheticSpec(**{"n_elements": 3, "n_observations": 4,
                            "n_features": 2, "seed": 0, **kwargs})
    doc, sidecar = generate(spec)
    dump_json(doc, tmp_path / f"{name}.json")
    dump_json(sidecar, tmp_path / f"{name}_truth.json")
    return tmp_path / f"{name}.json", tmp_path / f"{name}_truth.json"


def test_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(3, 4, 2, epsilon=1.5)
    with pytest.raises(ValidationError):
        SyntheticSpec(3, 4, 2, n_samples=0)
    with pytest.raises(ValidationError):
        SyntheticSpec(4, 3, 2)


def test_generate_deterministic_per_seed():
    a_doc, a_side = generate(SyntheticSpec(4, 6, 3, seed=11))
    b_doc, b_side = generate(SyntheticSpec(4, 6, 3, seed=11))
    assert dump_json(a_doc) == dump_json(b_doc)
    assert dump_json(a_side) == dump_json(b_side)
    c_doc, _ = generate(SyntheticSpec(4, 6, 3, seed=12))
    assert dump_json(a_doc) != dump_json(c_doc)


def test_generate_zero_noise_channel_is_deterministic():
    doc, sidecar = generate(SyntheticSpec(3, 5, 2, epsilon=0.0, seed=1))
    loaded = load_problem(doc)
    model = Distribution(sidecar["pr_true"])
    assert is_deterministic_channel(loaded.problem.channel, model)
    assert sidecar["exact_marginal"]


def test_generate_full_noise_marginal_is_uniform():
    doc, _ = generate(SyntheticSpec(3, 5, 2, epsilon=1.0, lambda_range=2.0, seed=2))
    loaded = load_problem(doc)
    assert np.allclose(loaded.problem.empirical.probs, 0.2)


def test_generate_sampled_counts():
    doc, sidecar = generate(SyntheticSpec(3, 4, 2, n_samples=1000, seed=3))
    loaded = load_problem(doc)
    assert loaded.problem.empirical.counts.sum() == 1000
    assert not sidecar["exact_marginal"]


def test_load_problem_missing_section():
    doc, _ = generate(SyntheticSpec(3, 4, 2, seed=4))
    del doc["channel"]
    with pytest.raises(ValidationError) as exc:
        load_problem(doc)
    assert "missing section" in str(exc.value)


def test_load_problem_revalidates_channel(tmp_path):
    doc, _ = generate(SyntheticSpec(2, 3, 1, seed=5))
    doc["channel"]["matrix"][0][0] += 0.5
    with pytest.raises(ValidationError) as exc:
        load_problem(doc)
    assert "column 0" in str(exc.value)


def test_cli_generate_writes_files(tmp_path, capsys):
    code = main(["generate", "--elements", "3", "--observations", "4",
                 "--features", "2", "--seed", "7", "--name", "demo",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "demo.json").exists()
    assert (tmp_path / "demo_truth.json").exists()
    assert str(tmp_path / "demo.json") in capsys.readouterr().out


def test_cli_generate_byte_identical_across_runs(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        main(["generate", "--elements", "4", "--observations", "6",
              "--features", "2", "--seed", "9", "--out", str(tmp_path / sub)])
    for name in ("problem.json", "problem_truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_solve_exact_marginal_residual(tmp_path):
    problem, _ = write_problem(tmp_path, epsilon=0.2, seed=10)
    code = main(["solve", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_OK
    result = json.loads((tmp_path / "prob_result.json").read_text())
    assert result["converged"] and result["termination"] == "residual"
    assert result["residual"] <= 1e-5
    lines = (tmp_path / "prob_trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["iter", "loglik", "Q", "H", "U_star", "residual"]
    assert header[6:] == ["lambda_0", "lambda_1"]
    assert len(lines) == result["iterations"] + 2


def test_cli_solve_identity_channel_matches_standard_mode(tmp_path):
    problem, _ = write_problem(tmp_path, epsilon=0.0, seed=11)
    (tmp_path / "em").mkdir()
    (tmp_path / "std").mkdir()
    assert main(["solve", str(problem), "--out", str(tmp_path / "em")]) == EXIT_OK
    assert main(["solve", str(problem), "--mode", "standard",
                 "--out", str(tmp_path / "std")]) == EXIT_OK
    em, std = tmp_path / "em", tmp_path / "std"
    assert (std / "prob_trace.csv").read_bytes() == (em / "prob_trace.csv").read_bytes()
    r_em = json.loads((em / "prob_result.json").read_text())
    r_std = json.loads((std / "prob_result.json").read_text())
    assert (r_em.pop("mode"), r_std.pop("mode")) == ("umaxent", "standard")
    assert r_std == r_em
    assert r_std["iterations"] == 1


def test_cli_standard_mode_honours_tol(tmp_path):
    problem, _ = write_problem(tmp_path, epsilon=0.0, seed=11)
    code = main(["solve", str(problem), "--mode", "standard", "--tol", "10",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    result = json.loads((tmp_path / "prob_result.json").read_text())
    assert result["iterations"] == 0 and result["termination"] == "residual"
    assert len((tmp_path / "prob_trace.csv").read_text().splitlines()) == 2


def test_cli_standard_mode_needs_disjoint_supports(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, epsilon=0.2, seed=11)
    code = main(["solve", str(problem), "--mode", "standard", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: channel columns do not have disjoint supports\n"
    assert not (tmp_path / "prob_result.json").exists()


def test_cli_solve_malformed_channel_exit_code(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    doc["channel"]["matrix"][0][0] += 0.5
    problem.write_text(json.dumps(doc))
    code = main(["solve", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "column 0" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda d: d.update(solver={"step_size": 0.1}),
    lambda d: d.update(em={"lambda_tolerance": 1e-6}),
    lambda d: d.update(solver={"method": "newton"}),
    lambda d: d.update(solver={"grad_tol": -1.0}),
    lambda d: d["features"]["values"][0].__setitem__(0, "x"),
    lambda d: d["channel"]["matrix"][0].pop(),
    lambda d: d.update(elements=[[i] for i in range(len(d["elements"]))]),
    lambda d: d.update(em={"restarts": 3}),
    lambda d: d.update(em={"init_scale": 0.5}),
    lambda d: d.update(em={"likelihood_tol": 1e-10}),
    lambda d: d.update(em={"max_em_iter": -1}),
    lambda d: d.update(em={"zero_marginal": "skip"}),
    lambda d: d.update(seed=1.5),
    lambda d: d.update(seed=True),
    lambda d: d.update(seed="7"),
    lambda d: d.update(solver={"grad_tol": float("nan")}),
    lambda d: d.update(em={"lambda_tol": float("nan")}),
    lambda d: d.update(solver={"divergence_guard": -1.0}),
    lambda d: d.update(solver={"divergence_guard": float("nan")}),
], ids=["unknown-solver-key", "unknown-em-key", "removed-method-key", "negative-grad-tol",
        "string-feature", "ragged-channel", "list-element-ids", "removed-restarts-key",
        "removed-init-scale-key", "removed-likelihood-tol-key", "negative-max-em-iter",
        "removed-zero-marginal-key", "float-seed", "bool-seed", "string-seed", "nan-grad-tol",
        "nan-lambda-tol", "negative-divergence-guard", "nan-divergence-guard"])
def test_cli_solve_malformed_file_is_validation_error(tmp_path, capsys, edit):
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    edit(doc)
    problem.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_problem(doc)
    code = main(["solve", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_solve_em_prior_block(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    doc["em"] = {"init_mode": "prior", "prior": [0.2, 0.3, 0.5]}
    problem.write_text(json.dumps(doc))
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "prob_trace.csv").read_text().splitlines()
    assert len(rows) >= 3

    for bad in ([0.5, 0.5], [0.2, 0.3, 0.6]):
        doc["em"]["prior"] = bad
        problem.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="malformed em"):
            load_problem(doc)
        assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: malformed em: ") and err.count("\n") == 1


def test_cli_solve_init_prior_without_prior_exit_code(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=12)
    code = main(["solve", str(problem), "--init", "prior", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "prior" in err and err.count("\n") == 1
    assert not (tmp_path / "prob_result.json").exists()


def test_cli_solve_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_cli_solve_iteration_budget_exit_code(tmp_path):
    problem, _ = write_problem(tmp_path, epsilon=0.5, seed=13)
    code = main(["solve", str(problem), "--max-iter", "1",
                 "--tol", "1e-12", "--out", str(tmp_path)])
    assert code == EXIT_MAX_ITER
    result = json.loads((tmp_path / "prob_result.json").read_text())
    assert not result["converged"]
    assert result["termination"] == "max_em_iter"


def test_cli_solve_unproducible_observation_is_validation_error(tmp_path, capsys):
    # observation 1 has mass but a zero channel row: no element produces it
    doc = {"elements": [0, 1], "features": {"values": [[1.0, 0.0]]},
           "channel": {"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]},
           "empirical": {"exact": [0.5, 0.2, 0.3]}}
    with pytest.raises(ZeroMarginal) as exc:
        load_problem(doc)
    assert exc.value.index == 1
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: observation 1 has mass but no element can produce it\n"
    assert not (tmp_path / "prob_result.json").exists()


def test_cli_solve_nan_tol_is_validation_error(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=13)
    code = main(["solve", str(problem), "--tol", "nan", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: lambda_tol must be positive\n"
    assert not (tmp_path / "prob_result.json").exists()


def test_cli_solve_negative_max_iter_is_validation_error(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=13)
    code = main(["solve", str(problem), "--max-iter", "-3", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: max_em_iter must be nonnegative\n"
    assert not (tmp_path / "prob_result.json").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "{problem}", "--mode", "bogus"],
    ["solve", "{problem}", "--no-such-flag"],
    ["solve", "{problem}", "--max-iter", "many"],
    ["frobnicate"],
    [],
], ids=["bad-mode", "unknown-flag", "non-integer-max-iter", "unknown-command", "no-command"])
def test_cli_usage_error_exits_validation(tmp_path, capsys, argv):
    problem, _ = write_problem(tmp_path, seed=13)
    code = main([a.format(problem=problem) for a in argv])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["solve", "--help"]) == EXIT_OK
    assert "--mode" in capsys.readouterr().out


def test_cli_solve_byte_identical_across_runs(tmp_path):
    problem, _ = write_problem(tmp_path, epsilon=0.3, seed=14)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["solve", str(problem), "--seed", "14",
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    for name in ("prob_result.json", "prob_trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_roundtrip_file_solve_matches_in_memory(tmp_path):
    from umaxent import EmConfig, em_solve, log_linear_distribution

    doc, _ = generate(SyntheticSpec(3, 4, 2, epsilon=0.2, seed=15))
    problem = tmp_path / "prob.json"
    dump_json(doc, problem)
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_OK
    result = json.loads((tmp_path / "prob_result.json").read_text())

    loaded = load_problem(doc)
    lam, trace = em_solve(loaded.problem, loaded.em_config)
    assert result["lambda"] == lam.lam.tolist()
    assert result["pr_x"] == log_linear_distribution(lam, loaded.problem.features).probs.tolist()
    assert result["iterations"] == trace.rows[-1].iteration


def test_cli_check_exact_marginal(tmp_path, capsys):
    problem, truth = write_problem(tmp_path, epsilon=0.2, seed=16)
    code = main(["check", str(problem), str(truth), "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "prob_check.json").read_text())
    assert report["expectation_error"] <= 1e-5
    assert report["exact_marginal"]
    assert json.loads(capsys.readouterr().out) == report


def test_cli_check_sampled_reports_without_failing(tmp_path):
    problem, truth = write_problem(tmp_path, n_samples=10_000, seed=17)
    code = main(["check", str(problem), str(truth), "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "prob_check.json").read_text())
    assert np.isfinite(report["expectation_error"])
    assert not report["exact_marginal"]


def test_cli_check_mismatched_sidecar(tmp_path, capsys):
    problem, truth = write_problem(tmp_path, seed=18)
    side = json.loads(truth.read_text())
    side["lambda_true"] = side["lambda_true"] + [0.0]
    truth.write_text(json.dumps(side))
    code = main(["check", str(problem), str(truth), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "sidecar" in capsys.readouterr().err


def test_cli_reduce_deterministic_channel(tmp_path):
    problem, _ = write_problem(tmp_path, epsilon=0.0, seed=19)
    code = main(["reduce", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_OK
    reports = json.loads((tmp_path / "prob_reduce.json").read_text())
    assert reports[0]["reduction"] == "standard"
    assert reports[0]["tv_distance"] <= 1e-6
    assert reports[0]["extra_term_norm"] <= 1e-10


def test_cli_reduce_honours_common_flags(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, epsilon=0.0, seed=19)
    code = main(["reduce", str(problem), "--tol", "-1", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: lambda_tol must be positive\n"
    assert not (tmp_path / "prob_reduce.json").exists()

    code = main(["reduce", str(problem), "--max-iter", "0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    reports = json.loads((tmp_path / "prob_reduce.json").read_text())
    assert reports[0]["reduction"] == "standard" and reports[0]["iterations"] == 0


def test_cli_reduce_latent_block(tmp_path):
    doc = {
        "elements": ["x0", "x1", "x2", "x3"],
        "features": {"names": ["f0"], "values": [[1.0, 0.0, 1.0, 0.0]]},
        "channel": {
            "observations": ["y0", "y1"],
            "matrix": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        },
        "empirical": {"exact": [0.6, 0.4]},
        "latent": {
            "y": ["y0", "y1"], "z": ["z0", "z1"],
            "embed": [[0, 0, 0], [0, 1, 1], [1, 0, 2], [1, 1, 3]],
        },
        "seed": 0,
    }
    problem = tmp_path / "lat.json"
    dump_json(doc, problem)
    code = main(["reduce", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_OK
    reports = json.loads((tmp_path / "lat_reduce.json").read_text())
    kinds = {r["reduction"] for r in reports}
    assert "latent" in kinds
    latent = next(r for r in reports if r["reduction"] == "latent")
    assert latent["identity_gap"] <= 1e-12


def test_cli_reduce_no_applicable_reduction(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, epsilon=0.5, seed=20)
    code = main(["reduce", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "no applicable reduction" in capsys.readouterr().err


def batch_problem_doc():
    return {
        "elements": ["x0", "x1"],
        "features": {"names": ["f0"], "values": [[1.0, 0.0]]},
        "channel": {"observations": ["xi0", "xi1"],
                    "matrix": [[0.9, 0.1], [0.1, 0.9]]},
        "empirical": {"exact": [0.5, 0.5]},
        "classifier": {
            "labels": ["xi0", "xi1"],
            "label_map": [0, 1],
            "training_prior": [0.5, 0.5],
            "batch_csv": "batch.csv",
        },
        "seed": 0,
    }


def test_cli_classifier_mode_with_batch(tmp_path):
    rng = np.random.default_rng(22)
    problem = tmp_path / "cls.json"
    dump_json(batch_problem_doc(), problem)
    rows = rng.dirichlet(np.ones(2), size=50)
    lines = ["xi0,xi1"] + [",".join(repr(float(v)) for v in row) for row in rows]
    (tmp_path / "batch.csv").write_text("\n".join(lines) + "\n")

    code = main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    result = json.loads((tmp_path / "cls_result.json").read_text())
    assert result["mode"] == "classifier"
    assert result["converged"]

    (tmp_path / "abl").mkdir()
    code = main(["solve", str(problem), "--mode", "classifier",
                 "--ablate-correction", "--out", str(tmp_path / "abl")])
    assert code == EXIT_OK


@pytest.mark.parametrize("text, message", [
    ("xi0,xi1\n0.5,0.5\n0.25,x\n", "malformed batch CSV"),
    ("xi0,xi1\n", "has no rows"),
    ("xi0,xi1\n0.5,0.5\n0.2,0.3,0.5\n", "malformed batch CSV"),
], ids=["non-numeric-cell", "header-only", "ragged-row"])
def test_cli_classifier_malformed_batch_csv_is_validation_error(tmp_path, capsys, text,
                                                                 message):
    problem = tmp_path / "cls.json"
    dump_json(batch_problem_doc(), problem)
    (tmp_path / "batch.csv").write_text(text)
    code = main(["solve", str(problem), "--mode", "classifier", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "batch.csv" in err and message in err
    assert "Traceback" not in err


def test_cli_classifier_mode_requires_block(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=23)
    code = main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "classifier" in capsys.readouterr().err


def test_cli_classifier_hard_profile_path(tmp_path):
    doc = {
        "elements": ["x0", "x1", "x2"],
        "features": {"names": ["f0", "f1"],
                     "values": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]},
        "channel": {"observations": ["xi0", "xi1", "xi2"],
                    "matrix": np.eye(3).tolist()},
        "empirical": {"exact": [0.5, 0.3, 0.2]},
        "classifier": {
            "labels": ["xi0", "xi1", "xi2"],
            "label_map": [0, 1, 2],
            "confusion": (0.8 * np.eye(3) + 0.2 / 3).tolist(),
        },
        "seed": 0,
    }
    problem = tmp_path / "hard.json"
    dump_json(doc, problem)
    code = main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    result = json.loads((tmp_path / "hard_result.json").read_text())
    assert result["converged"]
