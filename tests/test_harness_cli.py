import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umaxent import (
    DimensionMismatch,
    Distribution,
    EmConfig,
    SoftClassifierBatch,
    SyntheticSpec,
    UMaxEntError,
    ValidationError,
    ZeroMarginal,
    classifier_em_solve,
    dump_json,
    em_solve,
    generate,
    is_deterministic_channel,
    load_problem,
    log_linear_distribution,
    observation_marginal,
    verify_latent_reduction,
    verify_maxent_reduction,
)
from umaxent.cli import EXIT_MAX_ITER, EXIT_OK, EXIT_VALIDATION, main
from umaxent.reductions import induced_empirical_x


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
    for sizes in [(0, 4, 2), (-1, 4, 2), (3, 4, 0), (3.0, 4, 2), (3, 4, True)]:
        with pytest.raises(ValidationError, match="must be an integer of at least 1"):
            SyntheticSpec(*sizes)
    with pytest.raises(ValidationError, match="n_samples"):
        SyntheticSpec(3, 4, 2, n_samples=2.5)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            SyntheticSpec(3, 4, 2, seed=seed)
    for bound in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValidationError, match="lambda_range must be finite"):
            SyntheticSpec(3, 4, 2, lambda_range=bound)


@pytest.mark.parametrize("flags", [
    ["--elements", "0"], ["--elements", "-1"], ["--seed", "-1"], ["--lambda-range", "nan"],
], ids=["zero-elements", "negative-elements", "negative-seed", "nan-lambda-range"])
def test_cli_generate_rejects_invalid_spec(tmp_path, capsys, flags):
    # a repeated flag overrides the valid value before it
    code = main(["generate", "--elements", "3", "--observations", "4", "--features", "2",
                 *flags, "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    counts = doc["empirical"]["counts"]
    assert all(isinstance(c, int) for c in counts) and sum(counts) == 1000
    assert not sidecar["exact_marginal"]


def test_load_problem_normalizes_counts():
    doc = {"elements": ["a", "b"], "features": {"values": [[1.0, 0.0]]},
           "channel": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, "empirical": {"counts": [3, 1]}}
    assert load_problem(doc).problem.empirical.probs.tolist() == [0.75, 0.25]


@pytest.mark.parametrize("elements", [[], [0, 1], [0, 1, 2, 3]])
def test_element_count_must_match_the_feature_columns(tmp_path, capsys, elements):
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    doc["elements"] = elements
    problem.write_text(json.dumps(doc))
    message = f"dimension mismatch on axis 'elements': expected {len(elements)}, got 3"
    with pytest.raises(DimensionMismatch, match=message):
        load_problem(doc)
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


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


# classifier blocks with two labels over write_problem's 3 elements, and one
# label count too many in the training prior or the confusion matrix
LONG_TRAINING_PRIOR = {"labels": ["l0", "l1"], "label_map": [0, 1, 1],
                       "training_prior": [0.2, 0.3, 0.5], "batch_csv": "batch.csv"}
LARGE_CONFUSION = {"labels": ["l0", "l1"], "label_map": [0, 1, 1],
                   "confusion": np.eye(3).tolist()}


def latent_block(first_entry):
    """A latent block over the 3 elements of write_problem's file, first entry replaced."""
    return {"y": ["y0", "y1"], "z": ["z0", "z1"],
            "embed": [first_entry, [0, 1, 1], [1, 0, 2]]}


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
    # divergence_guard is a fixed bound, not a key: any value is malformed
    lambda d: d.update(solver={"divergence_guard": -1.0}),
    lambda d: d.update(solver={"divergence_guard": float("nan")}),
    lambda d: d.update(solver={"max_iter": 1.5}),
    lambda d: d.update(em={"seed": 1.5, "init_mode": "random"}),
    lambda d: d.update(em={"max_em_iter": 2.5}),
    lambda d: d.update(em={"max_em_iter": True}),
    lambda d: d.update(classifier={"labels": ["l0", "l1"], "label_map": [-1, 0, 1]}),
    lambda d: d.update(classifier={"labels": ["l0", "l1", "l2"],
                                   "label_map": [True, False, False]}),
    lambda d: d["channel"]["matrix"][0].__setitem__(0, float("nan")),
    lambda d: d["channel"]["matrix"][0].__setitem__(0, float("inf")),
    lambda d: d["channel"]["matrix"][0].__setitem__(0, True),
    lambda d: d.update(classifier={"labels": ["l0", "l1"], "label_map": [0, 1, 1],
                                   "batch_csv": "batch.csv"}),
    lambda d: d.update(classifier={"labels": ["l0", "l1"], "label_map": [0, 1, 1],
                                   "training_prior": [0.5, 0.5], "batch_csv": 5}),
    lambda d: d.update(classifier={"labels": ["l0", "l1"], "label_map": [0, 1, 1],
                                   "training_prior": [0.5, 0.5], "batch_csv": ["batch.csv"]}),
    lambda d: d.update(latent=latent_block([0.7, 0, 0])),
    lambda d: d.update(latent=latent_block(["0", 0, 0])),
    lambda d: d.update(latent=latent_block([False, 0, 0])),
    lambda d: d.update(latent=latent_block([0.0, 0.0, 0.0])),
    lambda d: d.update(classifier={"labels": "l0l1", "label_map": [0, 1, 1]}),
    lambda d: d.update(elements="abc"),
    lambda d: d["features"].update(names="ab"),
    lambda d: d["channel"].update(observations="wxyz"),
    lambda d: d.update(latent={**latent_block([0, 0, 0]), "y": "ab"}),
    lambda d: d.update(latent={**latent_block([0, 0, 0]), "z": "xy"}),
    lambda d: d.update(elements=[0, 0, 1]),
    lambda d: d.update(elements=[], features={"values": [[], []]}),
    lambda d: d.update(empirical={"counts": [0, 0, 0, 0]}),
    lambda d: d.update(empirical={"counts": [-1, 2, 1, 1]}),
    lambda d: d.update(empirical={"counts": [[1, 1], [1, 1]]}),
    lambda d: d["empirical"].update(counts=[9, 1, 0, 0]),
    lambda d: d.update(classifier={"labels": ["l0", "l1"], "label_map": [0, 1]}),
    lambda d: d["features"].update(names=["f0"]),
    lambda d: d["channel"].update(observations=["w0", "w1", "w2"]),
    lambda d: d.update(classifier=LONG_TRAINING_PRIOR),
    lambda d: d.update(classifier=LARGE_CONFUSION),
    lambda d: d.update(empirical={"counts": [float("inf"), 1, 1, 1]}),
    lambda d: d.update(empirical={"counts": [1e308, 1e308, 1, 1]}),
    lambda d: d.update(em={"init_mode": "prior", "prior": [0.2, 0.3, 0.5]}),
    lambda d: d.update(em={"seed": 3}),
], ids=["unknown-solver-key", "unknown-em-key", "removed-method-key", "negative-grad-tol",
        "string-feature", "ragged-channel", "list-element-ids", "removed-restarts-key",
        "removed-init-scale-key", "removed-likelihood-tol-key", "negative-max-em-iter",
        "removed-zero-marginal-key", "float-seed", "bool-seed", "string-seed", "nan-grad-tol",
        "nan-lambda-tol", "negative-divergence-guard", "nan-divergence-guard",
        "float-max-iter", "float-em-seed", "float-max-em-iter", "bool-max-em-iter",
        "negative-label-map-entry", "bool-label-map", "nan-in-row", "infinity-in-row",
        "bool-in-row", "batch-csv-without-training-prior", "int-batch-csv", "list-batch-csv",
        "float-embed-index", "string-embed-index", "bool-embed-index", "float-embed-entry",
        "string-labels", "string-elements", "string-feature-names",
        "string-observation-names", "string-latent-y", "string-latent-z",
        "duplicate-elements", "no-elements", "zero-counts", "negative-counts", "2d-counts",
        "exact-and-counts", "short-label-map", "short-feature-names",
        "short-observation-names", "long-training-prior", "large-confusion",
        "infinite-counts", "overflowing-counts", "removed-init-mode-key",
        "removed-em-seed-key"])
def test_cli_solve_malformed_file_is_validation_error(tmp_path, capsys, edit):
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    edit(doc)
    problem.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as from_doc:
        load_problem(doc)
    with pytest.raises(ValidationError) as from_file:
        load_problem(str(problem))
    assert str(from_file.value) == str(from_doc.value)
    code = main(["solve", str(problem), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["empirical"].update(counts=[9, 1, 0, 0]),
     "malformed empirical: give either exact or counts, not both"),
    (lambda d: d.update(classifier={"labels": ["l0", "l1"], "label_map": [0, 1]}),
     "malformed classifier: dimension mismatch on axis 'elements': expected 3, got 2"),
    (lambda d: d["features"].update(names=["f0"]),
     "malformed features: dimension mismatch on axis 'features': expected 2, got 1"),
    (lambda d: d["channel"].update(observations=["w0", "w1", "w2"]),
     "malformed channel: dimension mismatch on axis 'observations': expected 4, got 3"),
    (lambda d: d.update(classifier=LONG_TRAINING_PRIOR),
     "malformed classifier: dimension mismatch on axis 'labels': expected 2, got 3"),
    (lambda d: d.update(classifier=LARGE_CONFUSION),
     "malformed classifier: dimension mismatch on axis 'labels': expected 2, got 3"),
], ids=["exact-and-counts", "short-label-map", "short-feature-names",
        "short-observation-names", "long-training-prior", "large-confusion"])
@pytest.mark.parametrize("mode", ["umaxent", "standard", "classifier"])
def test_cli_malformed_block_is_named_in_every_mode(tmp_path, capsys, edit, message, mode):
    problem, _ = write_problem(tmp_path, epsilon=0.0, seed=12)
    doc = json.loads(problem.read_text())
    edit(doc)
    problem.write_text(json.dumps(doc))
    assert main(["solve", str(problem), "--mode", mode, "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edit", [
    lambda t: t[:len(t) // 2],
    lambda t: t[:t.index("[[") + 30],
    lambda t: t[:t.index('"w1"') + 2],
    lambda t: t + ' {"seed": 0}',
    lambda t: t.replace("[[", "[[0.5 0.5, ", 1),
    lambda t: t.replace("[[", "[[0.5,, ", 1),
    lambda t: t.replace("[[", "[[.5, ", 1),
], ids=["truncated", "truncated-in-row", "truncated-in-name", "trailing-data",
        "missing-comma-in-row", "double-comma-in-row", "bare-fraction-in-row"])
def test_cli_solve_undecodable_file_is_validation_error(tmp_path, capsys, edit):
    problem, _ = write_problem(tmp_path, seed=12)
    text = edit(json.dumps(json.loads(problem.read_text())))
    problem.write_text(text)
    with pytest.raises(json.JSONDecodeError) as stdlib:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as exc:
        load_problem(str(problem))
    assert str(exc.value) == str(stdlib.value)
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {stdlib.value}\n"


@pytest.mark.parametrize("depth", [2000, 100000])
def test_cli_solve_deeply_nested_file_is_validation_error(tmp_path, capsys, depth):
    # the decoder recurses per nesting level; past the recursion limit the
    # file is malformed, reported in one line, not a RecursionError
    problem, _ = write_problem(tmp_path, seed=12)
    text = problem.read_text().rstrip()[:-1] + ', "notes": ' + "[" * depth + "]" * depth + "}"
    problem.write_text(text)
    with pytest.raises(ValidationError, match="nests too deeply"):
        load_problem(str(problem))
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def load_outcome(source):
    """What load_problem makes of a path or a document: the error, or the bits of
    every array."""
    try:
        loaded = load_problem(source)
    except UMaxEntError as exc:
        return type(exc), str(exc)
    p = loaded.problem
    arrays = [p.channel.matrix, p.features.values, p.empirical.probs]
    if loaded.em_config.prior is not None:
        arrays.append(loaded.em_config.prior.probs)
    return [(a.dtype, a.shape, a.view(np.int64).tolist()) for a in arrays]


def test_load_problem_accepts_a_path_object(tmp_path):
    problem, _ = write_problem(tmp_path, seed=12)
    assert load_outcome(problem) == load_outcome(str(problem))
    assert isinstance(load_outcome(problem), list)


def assert_file_loads_as_json_load(path, text):
    path.write_text(text)
    with open(path) as fh:
        expected = load_outcome(json.load(fh))
    assert load_outcome(str(path)) == expected


# Finite doubles, most with 17-digit reprs, and the extremes of the format.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [sys.float_info.max, -sys.float_info.max, 5e-324, -0.0, 1e-05])
UNIT = st.one_of(st.floats(0, 1), st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                                                   1e-05, 2e-05]))
NAME = st.text(st.sampled_from('ab[]{}",:\\ \u00e9\u96ea\U0001f4a7'), max_size=5)
LABELS = {
    "int": st.integers(-3, 10**20),
    "float": FINITE,
    "str": NAME,
    "mixed": st.one_of(st.integers(-3, 3), FINITE, NAME),
}
JUNK = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), FINITE, NAME),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(NAME, inner, max_size=2), max_leaves=8)


def unit_columns(draw, m, n):
    """An m x n column-stochastic matrix whose entries are arbitrary doubles in [0, 1]."""
    w = np.array(draw(st.lists(st.lists(UNIT, min_size=n, max_size=n), min_size=m, max_size=m)))
    w[0, w.sum(axis=0) == 0] = 1.0
    return w / w.sum(axis=0)


@st.composite
def problem_documents(draw):
    """Valid problem documents, and a few with an empty or ragged array, holding
    float rows, int-only rows, labels of every JSON type and unused junk."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    elements = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    entries = [FINITE, st.integers(-9, 9), FINITE | st.integers(-10**20, 10**20)]
    values = [draw(st.lists(draw(st.sampled_from(entries)), min_size=n, max_size=n))
              for _ in range(k)]
    if draw(st.booleans()):
        owner = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        matrix = np.zeros((m, n), dtype=int)
        matrix[owner, np.arange(n)] = 1
    else:
        matrix = unit_columns(draw, m, n)
    marginal = matrix @ np.full(n, 1.0 / n)
    if draw(st.booleans()):
        empirical = {"exact": marginal.tolist()}
    else:
        counts = [draw(st.integers(1, 2**40)) if x > 0 else 0 for x in marginal]
        empirical = {"counts": [float(c) for c in counts] if draw(st.booleans()) else counts}
    doc = {"elements": elements, "features": {"values": values},
           "channel": {"matrix": matrix.tolist()}, "empirical": empirical,
           "notes": draw(JUNK)}
    if draw(st.booleans()):
        doc["features"]["names"] = draw(st.lists(NAME, min_size=k, max_size=k, unique=True))
        doc["channel"]["observations"] = draw(st.lists(NAME, min_size=m, max_size=m,
                                                       unique=True))
    if draw(st.booleans()):
        doc["em"] = {"prior": unit_columns(draw, n, 1)[:, 0].tolist()}
    broken = draw(st.sampled_from([None, None, None, "empty", "ragged"]))
    if broken == "empty":
        doc["elements"] = []
    elif broken == "ragged":
        doc["channel"]["matrix"][0].append(0.5)
    return doc


@settings(max_examples=80, deadline=None)
@given(problem_documents())
def test_load_problem_file_matches_json_load(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "problem.json"
    assert_file_loads_as_json_load(path, json.dumps(doc))
    assert_file_loads_as_json_load(path, dump_json(doc))


@pytest.mark.parametrize("edit", [
    lambda d: d.update(empirical={"counts": [2**70, 1, 1, 1]}),
    lambda d: d.update(empirical={"counts": [2**64, 1.5, 1.0, 1.0]}),
    lambda d: d["channel"].update(observations=["\ud800", "b", "c", "d"]),
    lambda d: d.update(elements=[0.5, 1.5, 2.5]),
    lambda d: d.update(elements=[0, 1.5, 2.5]),
    lambda d: d.update(elements=[True, 0.5, 2.5]),
], ids=["int-beyond-64-bits-in-counts", "huge-int-among-float-counts", "lone-surrogate-name",
        "float-element-labels", "int-and-float-element-labels", "bool-and-float-element-labels"])
def test_cli_solve_accepts_what_json_load_accepts(tmp_path, edit):
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    edit(doc)
    assert_file_loads_as_json_load(problem, json.dumps(doc))
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_OK


def test_load_problem_allocation_budget(tmp_path):
    # Decoding float rows straight into float64 keeps the traced peak near the
    # file's bytes plus its str: 2.00x the file size measured, against 2.44x
    # when every entry became a Python float. The bound leaves 0.2x (550 kB)
    # for allocator and library drift.
    doc, _ = generate(SyntheticSpec(300, 400, 5, epsilon=0.3, seed=2))
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_problem(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * size, peak / size


def test_cli_solve_em_prior_block(tmp_path, capsys):
    # a prior on its own selects the prior start: row 0 is its M-projection
    problem, _ = write_problem(tmp_path, seed=12)
    doc = json.loads(problem.read_text())
    doc["em"] = {"prior": [0.2, 0.3, 0.5]}
    problem.write_text(json.dumps(doc))
    assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "prob_trace.csv").read_text().splitlines()
    assert len(rows) >= 3
    em_problem = load_problem(doc).problem
    _, trace = em_solve(em_problem, EmConfig(prior=Distribution([0.2, 0.3, 0.5])))
    _, zero = em_solve(em_problem)
    assert rows[:2] == trace.to_csv_string().splitlines()[:2]
    assert rows[1] != zero.to_csv_string().splitlines()[1]

    for bad in ([0.5, 0.5], [0.2, 0.3, 0.6]):
        doc["em"]["prior"] = bad
        problem.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="malformed em"):
            load_problem(doc)
        assert main(["solve", str(problem), "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: malformed em: ") and err.count("\n") == 1


def reduction_problem(tmp_path):
    """write_problem's file at epsilon 0 with a latent block: both verifiers apply."""
    problem, truth = write_problem(tmp_path, epsilon=0.0, seed=12)
    doc = json.loads(problem.read_text())
    doc["latent"] = latent_block([0, 0, 0])
    problem.write_text(json.dumps(doc))
    return problem, truth, load_problem(doc)


def test_cli_check_and_reduce_seed_the_verifiers(tmp_path):
    problem, truth, loaded = reduction_problem(tmp_path)
    p, fact, config = loaded.problem, loaded.factorization, loaded.em_config
    empirical_y = observation_marginal(induced_empirical_x(p), fact.y_channel())

    def reports(seed):
        return json.loads(dump_json([
            dataclasses.asdict(verify_maxent_reduction(p, config, seed=seed)),
            dataclasses.asdict(verify_latent_reduction(fact, empirical_y, p.features, config,
                                                       seed=seed)),
        ]))

    assert main(["check", str(problem), str(truth), "--seed", "7",
                 "--out", str(tmp_path)]) == EXIT_OK
    check = json.loads((tmp_path / "prob_check.json").read_text())
    assert check["standard_reduction"] == reports(7)[0]
    assert main(["reduce", str(problem), "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "prob_reduce.json").read_text()) == reports(7)
    # the latent identity gap is drawn at seed-dependent models
    assert reports(7) != reports(0)


@pytest.mark.parametrize("command", ["solve", "check", "reduce"])
def test_cli_negative_seed_is_validation_error(tmp_path, capsys, command):
    problem, truth, _ = reduction_problem(tmp_path)
    paths = [str(problem), str(truth)] if command == "check" else [str(problem)]
    code = main([command, *paths, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, not -1\n"
    assert not (tmp_path / "out").exists()


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
    ["solve", "{problem}", "--init", "zero"],
    ["check", "{problem}", "{truth}", "--init", "zero"],
    ["reduce", "{problem}", "--init", "random"],
], ids=["bad-mode", "unknown-flag", "non-integer-max-iter", "unknown-command", "no-command",
        "removed-init-flag-solve", "removed-init-flag-check", "removed-init-flag-reduce"])
def test_cli_usage_error_exits_validation(tmp_path, capsys, argv):
    problem, truth = write_problem(tmp_path, seed=13)
    code = main([a.format(problem=problem, truth=truth) for a in argv])
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


NEEDS_KEYS = "error: truth sidecar needs lambda_true and feature_expectations_true\n"
NOT_A_BOOL = "error: truth sidecar's exact_marginal must be true or false\n"
NON_FINITE = "error: truth sidecar's {} contains non-finite entries\n"


@pytest.mark.parametrize("edit, message", [
    (lambda side: [0.1, 0.2], NEEDS_KEYS),
    (lambda side: {"lambda_true": [0.1, 0.2]}, NEEDS_KEYS),
    (lambda side: {**side, "exact_marginal": "false"}, NOT_A_BOOL),
    (lambda side: {**side, "exact_marginal": 1}, NOT_A_BOOL),
    (lambda side: {**side, "exact_marginal": None}, NOT_A_BOOL),
    (lambda side: {**side, "feature_expectations_true": [float("nan")] * 2},
     NON_FINITE.format("feature_expectations_true")),
    (lambda side: {**side, "lambda_true": [0.0, float("inf")]}, NON_FINITE.format("lambda_true")),
], ids=["list", "no-expectations", "string-exact-marginal", "int-exact-marginal",
        "null-exact-marginal", "nan-expectations", "infinite-lambda"])
def test_cli_check_malformed_sidecar_is_validation_error(tmp_path, capsys, edit, message):
    problem, truth = write_problem(tmp_path, seed=18)
    truth.write_text(json.dumps(edit(json.loads(truth.read_text()))))
    code = main(["check", str(problem), str(truth), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_cli_check_sidecar_that_is_not_json_is_named(tmp_path, capsys):
    problem, truth = write_problem(tmp_path, seed=18)
    truth.write_text("{not json")
    code = main(["check", str(problem), str(truth), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: truth sidecar {truth} is not JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


def test_library_soft_batch_solve_matches_the_cli(tmp_path):
    # the calls a library user (and the benchmark) makes on a soft-batch file
    rng = np.random.default_rng(23)
    path = tmp_path / "cls.json"
    dump_json(batch_problem_doc(), path)
    rows = rng.dirichlet(np.ones(2), size=40)
    lines = ["xi0,xi1"] + [",".join(repr(float(v)) for v in row) for row in rows]
    (tmp_path / "batch.csv").write_text("\n".join(lines) + "\n")
    loaded = load_problem(path)
    batch = SoftClassifierBatch.from_csv(path.parent / loaded.batch_csv, loaded.training_prior)
    lam, trace = classifier_em_solve(loaded.problem.features, batch=batch,
                                     label_map=loaded.label_map, config=loaded.em_config)
    assert trace.converged
    assert main(["solve", str(path), "--mode", "classifier", "--out", str(tmp_path)]) == EXIT_OK
    result = json.loads((tmp_path / "cls_result.json").read_text())
    assert lam.lam.tolist() == result["lambda"]


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


@pytest.mark.parametrize("ablate", [False, True], ids=["corrected", "ablated"])
def test_cli_classifier_non_finite_batch_row_is_validation_error(tmp_path, capsys, ablate):
    # the row used to be accepted as NaN and then blamed on a channel
    problem = tmp_path / "cls.json"
    dump_json(batch_problem_doc(), problem)
    (tmp_path / "batch.csv").write_text("xi0,xi1\n0.5,0.5\nnan,1.0\n")
    flags = ["--ablate-correction"] if ablate else []
    code = main(["solve", str(problem), "--mode", "classifier", *flags,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: batch row 1 has a non-finite entry\n"
    assert not (tmp_path / "out").exists()


def test_cli_classifier_mode_requires_block(tmp_path, capsys):
    problem, _ = write_problem(tmp_path, seed=23)
    code = main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "classifier" in capsys.readouterr().err


def hard_problem_doc():
    return {
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


def test_confusion_rows_are_checked_once_with_the_channel_slack(tmp_path, capsys):
    # a confusion row is a column of the channel C^T, so NORMALIZATION_SLACK
    # (1e-9) is the one rule, at load and at solve time alike
    doc = hard_problem_doc()
    doc["classifier"]["confusion"][0][0] += 5e-10
    problem = tmp_path / "hard.json"
    dump_json(doc, problem)
    assert load_problem(str(problem)).profile is not None
    assert main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)]) == EXIT_OK
    doc["classifier"]["confusion"][0][0] += 5e-6
    dump_json(doc, problem)
    # the failure names the file's confusion row, not the channel's column
    message = "malformed classifier: confusion row 0 sums to 1.000005"
    with pytest.raises(ValidationError, match=message):
        load_problem(str(problem))
    capsys.readouterr()
    assert main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_cli_classifier_hard_profile_path(tmp_path):
    problem = tmp_path / "hard.json"
    dump_json(hard_problem_doc(), problem)
    code = main(["solve", str(problem), "--mode", "classifier",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    result = json.loads((tmp_path / "hard_result.json").read_text())
    assert result["converged"]


@pytest.mark.parametrize("command, mode", [
    ("solve", "umaxent"), ("solve", "standard"), ("solve", "classifier"), ("check", "classifier"),
])
def test_cli_ablate_correction_needs_a_soft_batch(tmp_path, capsys, command, mode):
    # the flag changes only the soft-batch problem; elsewhere it is a usage error
    problem = tmp_path / "hard.json"
    dump_json(hard_problem_doc(), problem)
    truth = tmp_path / "hard_truth.json"
    dump_json({"lambda_true": [0.0, 0.0], "feature_expectations_true": [0.5, 0.5]}, truth)
    paths = [str(problem), str(truth)] if command == "check" else [str(problem)]
    code = main([command, *paths, "--mode", mode, "--ablate-correction",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: --ablate-correction needs --mode classifier on a soft batch\n"
    assert not (tmp_path / "out").exists()
