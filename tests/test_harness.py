"""Tests for config handling, dataset generation, runs, checks, and the CLI."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geominimax import ConfigError, problems
from geominimax.checks import check_gradients, check_manifolds, check_rate, check_triangles
from geominimax.cli import main
from geominimax.harness import (
    TRACE_HEADER,
    ExperimentConfig,
    build_problem,
    generate_dataset,
    parse_config,
    parse_config_text,
    run_experiment,
    run_replicates,
    write_trace,
)
from geominimax.solvers import IterationRecord

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
problem = spd_bilinear
n = 10
algo = rceg
iters = 100
"""


def strip_wall_ms(text: str) -> str:
    """Drop the wall_ms column so traces can be compared for determinism."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.problem == "spd_bilinear"
        assert cfg.n == 10
        assert cfg.algo == "rceg"
        assert cfg.iters == 100
        assert cfg.eta == "auto"
        assert cfg.record_every == 1
        assert cfg.gap_every == 50
        assert cfg.seed == 0
        assert cfg.out is None

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# a comment\n\n" + MINIMAL + "\n# trailing\n")
        assert cfg.n == 10
        # A comment after a value ends the value.
        cfg = parse_config_text(
            "problem = spd_bilinear\nn = 5  # dim\nalgo = rceg\niters = 3 #\nout = results/x  # note\n"
        )
        assert (cfg.n, cfg.iters, cfg.out) == (5, 3, "results/x")

    def test_full_config_text_parses_to_every_field(self):
        text = """
problem = robust_pca
n = 6
algo = rgda
iters = 50
eta = 0.125
seed = 9
k = 4
alpha = 0.5
mu = 0.2
l = 4.5
record_every = 2
gap_every = off
out = some/dir
"""
        assert parse_config_text(text) == ExperimentConfig(
            problem="robust_pca",
            n=6,
            algo="rgda",
            iters=50,
            eta=0.125,
            seed=9,
            k=4,
            alpha=0.5,
            mu=0.2,
            l=4.5,
            record_every=2,
            gap_every="off",
            out="some/dir",
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'momentum'"):
            parse_config_text(MINIMAL + "momentum = 0.9\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate config key 'n'"):
            parse_config_text(MINIMAL + "n = 11\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("problem spd_bilinear\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required config key 'iters'"):
            parse_config_text("problem = spd_bilinear\nn = 4\nalgo = rceg\n")

    def test_negative_alpha_names_field(self):
        with pytest.raises(ConfigError, match="'alpha'"):
            parse_config_text(MINIMAL + "alpha = -1\n")

    def test_zero_iters_rejected(self):
        with pytest.raises(ConfigError, match="'iters'"):
            parse_config_text("problem = spd_bilinear\nn = 4\nalgo = rceg\niters = 0\n")

    def test_bad_eta_rejected(self):
        with pytest.raises(ConfigError, match="'eta'"):
            parse_config_text(MINIMAL + "eta = -0.5\n")
        with pytest.raises(ConfigError, match="'eta'"):
            parse_config_text(MINIMAL + "eta = fast\n")

    def test_robust_pca_requires_k_and_alpha(self):
        base = "problem = robust_pca\nn = 5\nalgo = rceg\niters = 10\n"
        with pytest.raises(ConfigError, match="'k'"):
            parse_config_text(base + "alpha = 1.0\n")
        with pytest.raises(ConfigError, match="'alpha'"):
            parse_config_text(base + "k = 3\n")

    def test_unknown_problem_and_algo(self):
        with pytest.raises(ConfigError, match="'problem'"):
            parse_config_text("problem = tictactoe\nn = 4\nalgo = rceg\niters = 10\n")
        with pytest.raises(ConfigError, match="'algo'"):
            parse_config_text("problem = spd_bilinear\nn = 4\nalgo = adam\niters = 10\n")

    def test_mu_l_ordering_enforced(self):
        with pytest.raises(ConfigError, match="'mu'/'l'"):
            parse_config_text(MINIMAL + "mu = 3.0\nl = 1.0\n")

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_gap_every_off(self):
        cfg = parse_config_text(MINIMAL + "gap_every = off\n")
        assert cfg.gap_every == "off"


class TestGenerateDataset:
    def test_shapes_and_spectrum(self):
        data = generate_dataset(6, 5, 0.2, 4.5, seed=1)
        assert len(data) == 5
        for m in data:
            assert m.shape == (6, 6)
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            eig = np.linalg.eigvalsh(m)
            assert eig.min() >= 0.2 - 1e-10
            assert eig.max() <= 4.5 + 1e-10

    def test_deterministic_per_seed(self):
        a = generate_dataset(4, 3, 0.5, 2.0, seed=7)
        b = generate_dataset(4, 3, 0.5, 2.0, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_distinct_seeds_differ(self):
        a = generate_dataset(4, 3, 0.5, 2.0, seed=7)
        b = generate_dataset(4, 3, 0.5, 2.0, seed=8)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_single_matrix(self):
        data = generate_dataset(3, 1, 0.5, 2.0, seed=0)
        assert len(data) == 1

    def test_bad_k(self):
        with pytest.raises(ConfigError, match="'k'"):
            generate_dataset(3, 0, 0.5, 2.0, seed=0)


class TestBuildProblem:
    def test_spd_bilinear_starts_at_identity(self):
        cfg = parse_config_text(MINIMAL)
        problem, x0, y0 = build_problem(cfg)
        np.testing.assert_array_equal(x0.value, np.eye(10))
        np.testing.assert_array_equal(y0.value, np.eye(10))
        assert problem.known_saddle is not None

    def test_robust_pca_start_is_data_derived(self):
        cfg = parse_config_text("problem = robust_pca\nn = 4\nk = 3\nalpha = 1.0\nalgo = rceg\niters = 5\n")
        problem, x0, y0 = build_problem(cfg)
        data = generate_dataset(4, 3, cfg.mu, cfg.l, cfg.seed)
        np.testing.assert_allclose(y0.value, np.mean(data, axis=0), atol=1e-12)
        assert np.linalg.norm(x0.value) == pytest.approx(1.0, abs=1e-12)
        # x0 is an eigenvector of the data mean
        mean = np.mean(data, axis=0)
        mx = mean @ x0.value
        cos = abs(mx @ x0.value) / np.linalg.norm(mx)
        assert cos == pytest.approx(1.0, abs=1e-10)

    def test_robust_pca_start_sign_and_bits(self, monkeypatch):
        """``sym_eig`` keeps LAPACK's eigenvector signs, so the start fixes
        its own: the first entry above 1e-12 in magnitude is positive. The
        shipped configs then start where they always have, bit for bit,
        and flipping the sign ``eigh`` returns moves nothing."""
        cfg = parse_config(CONFIGS / "robust_pca_a2.cfg")
        _, x0, _ = build_problem(cfg)
        lead = x0.value[np.argmax(np.abs(x0.value) > 1e-12)]
        assert lead > 0.0
        pinned = [
            "0x1.b08d87b629c34p-3", "0x1.7013ed76d4bfdp-10", "-0x1.9786cb4592dc6p-2", "0x1.ae37068275b7ep-3",
            "-0x1.8eb0b725c8fe8p-5", "-0x1.9d29eab7318e9p-2", "0x1.6f7e212b7f4b9p-2", "-0x1.4d068216ba9cdp-1",
            "-0x1.83aaeac7ff264p-3", "0x1.f3d0583eeaa8ap-9",
        ]
        assert [v.hex() for v in x0.value.tolist()] == pinned
        eigh = np.linalg.eigh

        def flipped(a):
            lam, q = eigh(a)
            return lam, -q

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        assert np.array_equal(build_problem(cfg)[1].value, x0.value)

    def test_same_seed_same_problem_data(self):
        cfg = parse_config_text(MINIMAL)
        p1, _, _ = build_problem(cfg)
        p2, _, _ = build_problem(cfg)
        assert p1.known_saddle[0].value == pytest.approx(p2.known_saddle[0].value, abs=0)

    def test_augmented_lagrangian_start(self):
        cfg = parse_config_text("problem = augmented_lagrangian\nn = 3\nalpha = 0.1\nalgo = rceg\niters = 5\n")
        problem, x0, lam0 = build_problem(cfg)
        np.testing.assert_array_equal(x0.value, np.eye(3))
        np.testing.assert_array_equal(lam0.value, np.zeros(1))


class TestWriteTrace:
    def test_exact_bytes(self, tmp_path):
        """Every column, the header and the final newline, with empty cells
        for None and numbers that need all 17 digits."""
        records = [
            IterationRecord(0, 0.1 + 0.2, 1 / 3, -0.0, None, None, 1e-300),
            IterationRecord(20000, 7.0, 2.5, 1e-300, 1 / 3, -0.0, 12.345678901234567),
        ]
        path = tmp_path / "trace.csv"
        write_trace(records, path)
        assert path.read_bytes() == (
            b"iter,value,grad_norm_x,grad_norm_y,dist_to_ref,gap_estimate,wall_ms\n"
            b"0,0.30000000000000004,0.33333333333333331,-0,,,1e-300\n"
            b"20000,7,2.5,1e-300,0.33333333333333331,-0,12.345678901234567\n"
        )


class TestRunExperiment:
    def test_writes_trace_and_meta(self, tmp_path):
        cfg = parse_config_text(
            "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 8\nseed = 5\ngap_every = off\n"
        )
        outcome = run_experiment(cfg, tmp_path / "run")
        assert outcome.status == "ok"
        text = outcome.trace_path.read_text()
        lines = text.splitlines()
        assert lines[0] == TRACE_HEADER
        iters = [int(line.split(",", 1)[0]) for line in lines[1:]]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)
        assert iters[0] == 0 and iters[-1] == 8
        meta = json.loads(outcome.meta_path.read_text())
        assert meta["status"] == "ok"
        assert meta["eta"] > 0
        assert meta["tau_m"] == 1.0 and meta["tau_n"] == 1.0
        assert meta["config"]["problem"] == "euclidean_quadratic"
        assert meta["diameter_bound"] == [10.0, 10.0]
        assert meta["max_dist_from_start"] == list(outcome.result.max_dist_from_start)
        assert meta["domain_exceeded"] is False
        # eta = auto on a flat pair is 1 / (2 L), with L the operator norm of b
        assert meta["smoothness"] == pytest.approx(1.0 / (2.0 * meta["eta"]), rel=1e-12)
        assert meta["smoothness_source"] == "operator_norm"
        assert meta["gap_unavailable"] == 0 and meta["gap_unavailable_reason"] is None

    def test_meta_smoothness_is_null_when_no_constant_is_needed(self, tmp_path, monkeypatch):
        """A fixed step with gap estimation off needs no L, and none is sampled."""
        def refuse(*args, **kwargs):
            raise AssertionError("smoothness was estimated only to be reported")

        monkeypatch.setattr(problems, "estimate_smoothness", refuse)
        cfg = parse_config_text("problem = spd_bilinear\nn = 3\nalgo = rceg\neta = 0.2\niters = 3\ngap_every = off\n")
        meta = json.loads(run_experiment(cfg, tmp_path).meta_path.read_text())
        assert meta["smoothness"] is None and meta["smoothness_source"] is None

    def test_fixed_flat_run_takes_no_operator_norm(self, tmp_path, monkeypatch):
        """``euclidean_quadratic`` computes ``||b||_2`` only when ``L`` is asked
        for: building the problem and running a fixed step with gap estimation
        off take no ``np.linalg.norm(., 2)``; asking for ``L`` takes one."""
        norm = np.linalg.norm
        calls = []

        def counted(a, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.shape(a))
            return norm(a, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        cfg = parse_config_text("problem = euclidean_quadratic\nn = 4\nalgo = rceg\neta = 0.1\niters = 5\ngap_every = off\n")
        outcome = run_experiment(cfg, tmp_path)
        assert outcome.result.status == "ok"
        assert calls == []
        problem = build_problem(cfg)[0]
        assert calls == []
        assert problem.smoothness() == problem.smoothness() and problem.smoothness_source == "operator_norm"
        assert calls == [(4, 4)]

    def test_meta_counts_unavailable_gap_estimates(self, tmp_path):
        """The flat bilinear slices are unbounded away from the saddle, so no
        cadence point gets an estimate."""
        cfg = parse_config_text(
            "problem = euclidean_quadratic\nn = 2\nalgo = rceg\neta = 0.1\niters = 8\nseed = 5\ngap_every = 4\n"
        )
        outcome = run_experiment(cfg, tmp_path)
        meta = json.loads(outcome.meta_path.read_text())
        assert meta["gap_unavailable"] == 2
        assert meta["gap_unavailable_reason"] == outcome.result.gap_diagnostic
        assert meta["gap_unavailable_reason"].startswith("inner ascent did not reach tolerance")

    @pytest.mark.parametrize("name, exceeded", [("robust_pca_a05", True), ("robust_pca_a2", False)])
    def test_meta_reports_domain_excursion(self, tmp_path, name, exceeded):
        """The shipped alpha = 0.5 instance leaves the pi/4 sphere diameter
        that eta = auto assumes within 100 iterations; alpha = 2 stays in."""
        cfg = parse_config(CONFIGS / f"{name}.cfg")
        outcome = run_experiment(replace(cfg, iters=100, gap_every="off"), tmp_path)
        meta = json.loads(outcome.meta_path.read_text())
        far, diameter = meta["max_dist_from_start"], meta["diameter_bound"]
        assert diameter[0] == pytest.approx(np.pi / 4.0)
        assert meta["domain_exceeded"] is exceeded
        assert (far[0] > diameter[0] or far[1] > diameter[1]) is exceeded
        assert meta["status"] == "ok"
        assert meta["smoothness_source"] == "sampled" and meta["smoothness"] > 0.0

    def test_seventeen_digit_round_trip(self, tmp_path):
        cfg = parse_config_text(
            "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\nseed = 2\ngap_every = off\n"
        )
        outcome = run_experiment(cfg, tmp_path)
        row = outcome.trace_path.read_text().splitlines()[1].split(",")
        rec = outcome.result.records[0]
        assert float(row[1]) == rec.value
        assert float(row[2]) == rec.grad_norm_x
        assert float(row[3]) == rec.grad_norm_y
        assert float(row[4]) == rec.dist_to_ref

    def test_determinism_excluding_wall_ms(self, tmp_path):
        text = "problem = spd_bilinear\nn = 4\nalgo = rceg\niters = 15\nseed = 11\ngap_every = off\n"
        a = run_experiment(parse_config_text(text), tmp_path / "a")
        b = run_experiment(parse_config_text(text), tmp_path / "b")
        ta = strip_wall_ms(a.trace_path.read_text())
        tb = strip_wall_ms(b.trace_path.read_text())
        assert ta == tb
        assert a.trace_path.read_text() != "" and ta != ""

    def test_divergent_baseline_recorded_not_raised(self, tmp_path):
        cfg = parse_config_text(
            "problem = euclidean_quadratic\nn = 3\nalgo = rgda\niters = 4000\nseed = 1\neta = 0.5\ngap_every = off\n"
        )
        outcome = run_experiment(cfg, tmp_path)
        assert outcome.status == "diverged"
        meta = json.loads(outcome.meta_path.read_text())
        assert meta["status"] == "diverged"
        assert meta["iterations"] < 4000
        assert meta["diagnostic"] != ""
        lines = outcome.trace_path.read_text().splitlines()
        assert len(lines) > 1  # partial trace present

    def test_gap_cells_present_at_cadence(self, tmp_path):
        cfg = parse_config_text(
            "problem = robust_pca\nn = 3\nk = 2\nalpha = 1.0\nalgo = rceg\niters = 6\nseed = 4\ngap_every = 3\n"
        )
        outcome = run_experiment(cfg, tmp_path)
        rows = [line.split(",") for line in outcome.trace_path.read_text().splitlines()[1:]]
        by_iter = {int(r[0]): r for r in rows}
        assert by_iter[3][5] != ""
        assert by_iter[6][5] != ""
        assert by_iter[1][5] == ""
        assert float(by_iter[3][5]) >= 0.0

    def test_empty_dist_when_no_reference(self, tmp_path):
        cfg = parse_config_text(
            "problem = robust_pca\nn = 3\nk = 2\nalpha = 1.0\nalgo = rceg\niters = 3\nseed = 4\ngap_every = off\n"
        )
        outcome = run_experiment(cfg, tmp_path)
        rows = [line.split(",") for line in outcome.trace_path.read_text().splitlines()[1:]]
        assert all(r[4] == "" for r in rows)

    def test_output_dir_required(self):
        cfg = parse_config_text(MINIMAL)
        with pytest.raises(ConfigError, match="output directory"):
            run_experiment(cfg)

    def test_config_out_field_used(self, tmp_path):
        cfg = parse_config_text(
            f"problem = euclidean_quadratic\nn = 2\nalgo = rceg\niters = 2\ngap_every = off\nout = {tmp_path}/from-config\n"
        )
        outcome = run_experiment(cfg)
        assert outcome.out_dir == tmp_path / "from-config"
        assert outcome.trace_path.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replicates_default_to_config_out(self, tmp_path, jobs):
        cfg = parse_config_text(
            f"problem = euclidean_quadratic\nn = 2\nalgo = rceg\niters = 2\nseed = 3\ngap_every = off\n"
            f"out = {tmp_path}/from-config\n"
        )
        base = tmp_path / "from-config"
        expected = [base] if jobs == 1 else [base / "seed-3", base / "seed-4"]
        results = run_replicates(cfg, None, jobs)
        assert [Path(d) for _, _, d in results] == expected
        assert all((d / "trace.csv").exists() for d in expected)
        seeds = [json.loads((d / "meta.json").read_text())["config"]["seed"] for d in expected]
        assert seeds == [3, 4][:jobs]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replicates_need_an_output_directory(self, jobs):
        with pytest.raises(ConfigError, match="output directory"):
            run_replicates(parse_config_text(MINIMAL), None, jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replicates_validate_the_config_first(self, tmp_path, jobs):
        cfg = replace(parse_config_text(MINIMAL), seed=-1)
        with pytest.raises(ConfigError, match="'seed'"):
            run_replicates(cfg, tmp_path / "out", jobs)
        assert not (tmp_path / "out").exists()


class TestChecks:
    def test_manifold_suite_passes(self):
        lines = check_manifolds(trials=40, seed=0)
        assert lines and all(line.passed for line in lines)
        names = {line.name for line in lines}
        assert "sphere4.log_exp_roundtrip" in names
        assert "product.componentwise_exact" in names

    def test_triangle_suite_passes(self):
        lines = check_triangles(trials=120, seed=0)
        assert [line.name for line in lines] == [
            "triangles.euclidean5",
            "triangles.sphere4",
            "triangles.spd3",
        ]
        assert all(line.passed for line in lines)

    def test_gradient_suite_passes(self):
        lines = check_gradients(trials=6, seed=0)
        assert len(lines) == 4
        assert all(line.passed for line in lines)
        assert all(line.worst <= 1e-5 for line in lines)

    def test_rate_suite_passes(self):
        (line,) = check_rate(iters=120, seed=0)
        assert line.passed
        assert line.worst <= 0.0

    def test_line_format(self):
        (line,) = check_rate(iters=30, seed=0)
        text = line.format()
        assert "rate.euclidean_quadratic" in text
        assert "PASS" in text or "FAIL" in text


class TestCli:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 5\ngap_every = off\n"
        )
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "status=ok" in capsys.readouterr().out
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_run_expected_divergence_is_exit_zero(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            "problem = euclidean_quadratic\nn = 3\nalgo = rgda\niters = 4000\neta = 0.5\ngap_every = off\n",
        )
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_missing_config_flag_is_usage_error(self, capsys):
        assert main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_bad_config_file_is_exit_one(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "problem = spd_bilinear\nn = 0\nalgo = rceg\niters = 5\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_is_exit_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]) == 1

    def test_unknown_check_target_is_usage_error(self, capsys):
        assert main(["check", "spectra"]) == 1

    def test_check_ok(self, capsys):
        rc = main(["check", "rate", "--trials", "50", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rate.euclidean_quadratic" in out and "PASS" in out

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 5\nseed = 1\ngap_every = off\n"
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
        ta = strip_wall_ms((tmp_path / "a" / "trace.csv").read_text())
        tb = strip_wall_ms((tmp_path / "b" / "trace.csv").read_text())
        assert ta != tb

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--jobs", "0"]])
    def test_bad_run_overrides_are_exit_one(self, tmp_path, capsys, flag):
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\ngap_every = off\n"
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *flag]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_without_output_directory_is_exit_one(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\ngap_every = off\n"
        )
        assert main(["run", "--config", cfg]) == 1
        assert "output directory" in capsys.readouterr().err

    def test_jobs_make_seed_subdirectories(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\nseed = 20\ngap_every = off\n"
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--out", str(out), "--jobs", "2"])
        assert rc == 0
        assert (out / "seed-20" / "trace.csv").exists()
        assert (out / "seed-21" / "trace.csv").exists()
        meta = json.loads((out / "seed-21" / "meta.json").read_text())
        assert meta["config"]["seed"] == 21
        assert capsys.readouterr().out.splitlines() == [
            f"seed=20 status=ok out={out / 'seed-20'}",
            f"seed=21 status=ok out={out / 'seed-21'}",
        ]
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "single")]) == 0
        assert capsys.readouterr().out.splitlines() == [f"seed=20 status=ok out={tmp_path / 'single'}"]

    def test_meta_echoes_the_directory_it_was_written_to(self, tmp_path):
        """``--out`` overrides the config's ``out``, and meta.json records the
        override; a replicate records its own seed directory."""
        cfg = self._write_cfg(
            tmp_path,
            f"problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\nseed = 20\ngap_every = off\n"
            f"out = {tmp_path}/from-config\n",
        )
        single, multi = tmp_path / "single", tmp_path / "multi"
        assert main(["run", "--config", cfg, "--out", str(single)]) == 0
        assert json.loads((single / "meta.json").read_text())["config"]["out"] == str(single)
        assert main(["run", "--config", cfg, "--out", str(multi), "--jobs", "2"]) == 0
        for seed in (20, 21):
            meta = json.loads((multi / f"seed-{seed}" / "meta.json").read_text())
            assert meta["config"]["out"] == str(multi / f"seed-{seed}")
        assert not (tmp_path / "from-config").exists()

    def test_jobs_pool_capped_at_usable_cores(self, tmp_path, monkeypatch):
        """More replicates than cores still all run, on at most one worker per core."""
        import concurrent.futures
        import os

        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        recorded = []

        class InlinePool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\nseed = 20\ngap_every = off\n"
        )
        jobs = cores + 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 0
        assert len(recorded) == 1 and 1 <= recorded[0] <= cores
        for seed in range(20, 20 + jobs):
            assert (tmp_path / "out" / f"seed-{seed}" / "trace.csv").exists()

    def test_replicate_matches_single_run(self, tmp_path):
        """A jobs replicate is byte-identical (minus wall_ms) to the same
        seed run on its own."""
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 4\nseed = 20\ngap_every = off\n"
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "multi"), "--jobs", "2"]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "single"), "--seed", "21"]) == 0
        a = strip_wall_ms((tmp_path / "multi" / "seed-21" / "trace.csv").read_text())
        b = strip_wall_ms((tmp_path / "single" / "trace.csv").read_text())
        assert a == b

    def test_io_error_is_exit_three(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cfg = self._write_cfg(
            tmp_path, "problem = euclidean_quadratic\nn = 3\nalgo = rceg\niters = 2\ngap_every = off\n"
        )
        rc = main(["run", "--config", cfg, "--out", str(blocker / "sub")])
        assert rc == 3

    def test_bad_trials_and_seed_values(self, capsys):
        assert main(["check", "rate", "--trials", "0"]) == 1
        assert main(["check", "rate", "--seed", "-3"]) == 1
