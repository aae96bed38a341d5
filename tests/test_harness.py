import ast
import hashlib
import logging
import math
import os
import re
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nonlocfem import harness
from nonlocfem.cli import main
from nonlocfem.coefficient import GuardStatus
from nonlocfem.harness import (_CONFIG_KEYS, ENERGY_HEADER, SWEEP_HEADER,
                               ConfigError, RunConfig, SweepError,
                               SweepResult, _fit_slope, _pairwise_rates,
                               config_from_sources, emit_outputs, energy_csv,
                               energy_study, parse_config_file, run_solve,
                               sweep, sweep_csv)
from nonlocfem.manufactured import CASE_IDS, make_case
from nonlocfem.stepper import SteppingError, TimeGrid, TrajectorySummary


def _quick_config(**kw):
    base = dict(case="example1", k=1, n=8, delta=0.02, t_end=0.2)
    base.update(kw)
    return RunConfig(**base)


# --- configuration ---

def test_defaults_resolved_from_case():
    cfg = RunConfig(case="example3").resolved()
    assert cfg.k == 3 and cfg.n == 16
    assert cfg.delta == 1e-2 and cfg.t_end == 1.0


def test_unknown_case_rejected():
    with pytest.raises(ConfigError):
        RunConfig(case="example7").resolved()


def test_invalid_numerics_rejected():
    with pytest.raises(ConfigError):
        _quick_config(k=4).resolved()
    with pytest.raises(ConfigError):
        _quick_config(delta=-1.0).resolved()
    with pytest.raises(ConfigError):
        _quick_config(guard_policy="ignore").resolved()
    for floor, ceiling in ((2.0, 1.0), (1.0, 1.0)):   # an empty guard window
        with pytest.raises(ConfigError, match="guard_ceiling must exceed"):
            _quick_config(guard_floor=floor, guard_ceiling=ceiling).resolved()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# experiment\ncase = example2\nk = 1\n"
                    "delta = 0.01  # fine\nsnapshots = 0.5, 1.0\n")
    values = parse_config_file(str(path))
    cfg = config_from_sources(values, {})
    assert cfg.case == "example2" and cfg.k == 1
    assert cfg.delta == 0.01
    assert cfg.snapshots == (0.5, 1.0)


def test_cli_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("case = example1\nk = 1\nn = 4\n")
    cfg = config_from_sources(parse_config_file(str(path)), {"k": 3})
    assert cfg.k == 3 and cfg.n == 4


def test_unknown_config_key_rejected(tmp_path):
    # dim and solver_method follow from the case, so they are not keys
    path = tmp_path / "run.cfg"
    for line in ("mesh_size = 0.5", "dim = 1", "solver_method = direct-banded"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))


def test_duplicate_config_key_rejected(tmp_path):
    # the later value used to win silently
    path = tmp_path / "run.cfg"
    path.write_text("case = example1\nk = 1\nk = 3\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3: duplicate key 'k'"):
        parse_config_file(str(path))


def test_snapshot_times_outside_run_rejected():
    for times in ((-3.0,), (50.0,), (0.0, 0.2000001)):
        with pytest.raises(ConfigError, match="outside"):
            _quick_config(snapshots=times).resolved()
    assert _quick_config(snapshots=(0.0, 0.2)).resolved().snapshots == (0.0, 0.2)


def test_snapshot_times_sharing_a_file_tag_rejected():
    # both would be written to ..._snapshot_t0.123456.csv
    for times in ((0.1234561, 0.1234562), (0.1, 0.1)):
        with pytest.raises(ConfigError, match="file tag"):
            _quick_config(snapshots=times).resolved()


def test_cli_refuses_bad_snapshot_times(tmp_path):
    code = main(["solve", "--case", "example1", "--k", "1", "--n", "8",
                 "--delta", "0.01", "--t-end", "0.1", "--out-dir", str(tmp_path),
                 "--snapshots", "0.1234561,0.1234562,-3,50"])
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_snapshot_off_the_grid_is_reported(tmp_path, caplog):
    # 0.00049 is nearest to t = 0 at delta = 1e-3: the field written is U_0,
    # so the run warns and the metadata records the grid time of each tag
    with caplog.at_level(logging.WARNING, logger="nonlocfem.stepper"):
        code = main(["solve", "--case", "example1", "--k", "1", "--n", "8",
                     "--delta", "1e-3", "--t-end", "0.01",
                     "--out-dir", str(tmp_path),
                     "--snapshots", "0.00049,0.005"])
    assert code == 0
    [record] = [r for r in caplog.records if "snapshot" in r.getMessage()]
    assert "0.00049" in record.getMessage()
    meta = (tmp_path / "run_example1_k1.meta.txt").read_text().splitlines()
    assert "snapshot_t0.00049 = 0.0" in meta
    [line] = [m for m in meta if m.startswith("snapshot_t0.005 = ")]
    assert float(line.split(" = ")[1]) == pytest.approx(0.005, abs=1e-15)
    assert (tmp_path / "run_example1_k1_snapshot_t0.00049.csv").exists()


_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_every_config_key():
    listed = re.search(r"Recognized keys: `([^`]*)`", _README.read_text()).group(1)
    assert [key.strip() for key in listed.split(",")] == list(_CONFIG_KEYS)
    assert list(_CONFIG_KEYS) == [f.name for f in fields(RunConfig)]


def test_readme_case_table_matches_cases():
    # the rows below the "| case | Ω | γ |" header, up to the first non-row
    lines = _README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| case"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [row[0] for row in rows] == list(CASE_IDS)
    for case_id, omega, gamma, *_ in rows:
        case = make_case(case_id)
        assert float(Fraction(gamma)) == case.gamma
        assert omega == {1: "(0,1)", 2: "(0,1)²"}[case.dim]


def test_bad_config_value_rejected():
    with pytest.raises(ConfigError):
        config_from_sources({"delta": "soon"}, {})


# --- runs and sweeps ---

def test_run_solve_report_contents():
    report = run_solve(_quick_config())
    assert report.final.space.mesh.h == pytest.approx(1.0 / 8.0)
    assert report.final_error > 0.0
    assert len(report.energy) == 11
    assert len(report.coefficient) == len(report.guard_status) == 10
    assert report.metadata["assembly_quadrature_degree"] == 4
    assert report.metadata["solver_method"] == "direct-banded"


def test_run_solve_warns_when_delta_is_rounded(caplog):
    # 0.2 / 0.03 is not an integer: 7 steps of 0.2 / 7 are taken
    with caplog.at_level(logging.WARNING, logger="nonlocfem.harness"):
        report = run_solve(_quick_config(delta=0.03))
    [record] = caplog.records
    assert "delta 0.03 does not divide t_end 0.2" in record.getMessage()
    assert repr(0.2 / 7) in record.getMessage()
    assert report.metadata["delta"] == 0.2 / 7
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="nonlocfem.harness"):
        run_solve(_quick_config())
    assert caplog.records == []


def test_sweep_h_rows_and_rates():
    result = sweep(_quick_config(k=1), "h", [4, 8, 16])
    assert [row.h for row in result.rows] == [0.25, 0.125, 0.0625]
    assert result.rows[0].pairwise_rate is None
    for prev, row in zip(result.rows, result.rows[1:]):
        expect = math.log2(prev.error_l2 / row.error_l2)
        assert row.pairwise_rate == expect
    assert result.fitted_slope == pytest.approx(2.0, abs=0.4)


def test_sweep_delta_rows():
    result = sweep(_quick_config(k=2, n=32), "delta", [0.05, 0.025, 0.0125])
    assert [row.delta for row in result.rows] == [0.05, 0.025, 0.0125]
    assert result.fitted_slope is not None


def test_sweep_row_failing_numerically_reports_its_effective_delta(
        monkeypatch, tmp_path, capsys):
    # 0.1 / 0.03 is not an integer, so that row steps with delta 0.1 / 3;
    # its row says so even when its run fails
    real_run = harness.run

    def run(space, u0, f, coeff, grid, **kwargs):
        if grid.n_steps == 3:
            raise SteppingError("injected failure")
        return real_run(space, u0, f, coeff, grid, **kwargs)

    monkeypatch.setattr(harness, "run", run)
    with pytest.raises(SweepError) as info:
        sweep(_quick_config(n=4, t_end=0.1), "delta", [0.05, 0.03])
    ran, failed = info.value.partial.rows
    assert (ran.delta, failed.delta) == (0.05, 0.1 / 3)
    assert ran.error_l2 > 0.0 and failed.error_l2 is None
    assert str(info.value) == ("1 of 2 sweep rows failed: "
                               "delta=0.03: injected failure")

    code = main(["sweep-dt", "--case", "example1", "--k", "1", "--n", "4",
                 "--t-end", "0.1", "--delta-list", "0.05,0.03",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert "injected failure" in capsys.readouterr().err
    rows = (tmp_path / "sweep_dt_example1_k1.csv").read_text().splitlines()
    assert rows[2].split(",")[3] == format(0.1 / 3, ".17g")


def test_sweep_error_names_every_failed_row():
    # both rows trip the guard at extinction under the abort policy; the
    # message names each by its ladder value, with its reason
    config = RunConfig(case="example2", k=1, delta=0.05, t_end=1.2,
                       guard_policy="abort")
    with pytest.raises(SweepError) as info:
        sweep(config, "h", [2, 4])
    reason = "guard degenerate at step 21 (t=1.05): coefficient inf"
    assert str(info.value) == (f"2 of 2 sweep rows failed: n=2: {reason}; "
                               f"n=4: {reason}")
    assert [row.error_l2 for row in info.value.partial.rows] == [None, None]


@pytest.mark.parametrize("command, ladder", [
    ("sweep-h", ["--n-list", "0,8"]),
    ("sweep-dt", ["--n", "4", "--delta-list", "0,0.03"]),
])
def test_cli_sweep_bad_ladder_value_is_a_config_error(command, ladder,
                                                       tmp_path, capsys):
    # every row is checked before the first one runs, so nothing is written
    code = main([command, "--case", "example1", "--k", "1", "--t-end", "0.1",
                 *ladder, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "must be positive, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep-h", "--case", "example1", "--n-list", ","],
    ["sweep-dt", "--case", "example1", "--delta-list", ""],
    ["energy", "--cases", ","],
], ids=["sweep-h", "sweep-dt", "energy"])
def test_cli_empty_list_is_a_config_error(argv, tmp_path, capsys):
    # a ladder or case list with no value would run nothing and write a
    # table with only its header
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert "empty list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("study", [
    lambda: sweep(RunConfig(case="example1", k=1), "h", []),
    lambda: sweep(RunConfig(case="example1", k=1), "delta", []),
    lambda: energy_study([]),
    lambda: energy_study(iter(())),
], ids=["sweep_h", "sweep_delta", "energy_study", "energy_study-iterator"])
def test_empty_study_is_a_config_error(study):
    # the library refuses what the CLI refuses: with no row it would hand
    # emit_outputs a table with only its header
    with pytest.raises(ConfigError, match="empty"):
        study()


def test_energy_study_refuses_a_repeated_case(monkeypatch):
    # the study keys its metadata and chart series by case, so a repeated
    # case would write its rows twice and draw one line that doubles back;
    # it is refused before any run
    runs = []
    monkeypatch.setattr(harness, "run_solve", runs.append)
    with pytest.raises(ConfigError, match="repeats a case"):
        energy_study([_quick_config(case="example2"), _quick_config(),
                      _quick_config(case="example2")])
    assert runs == []


def test_cli_energy_refuses_a_repeated_case(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["energy", "--cases", "example2,example2",
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "repeats a case: example2, example2" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_energy_study_resolves_every_config_before_any_run(monkeypatch):
    # like the sweeps, the study meets a bad config before it solves the
    # cases listed ahead of it
    runs = []
    monkeypatch.setattr(harness, "run_solve", runs.append)
    with pytest.raises(ConfigError, match="polynomial degree"):
        energy_study([RunConfig(case="example1"),
                      RunConfig(case="example2", k=7)])
    assert runs == []


def test_cli_energy_refuses_an_unknown_case(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["energy", "--cases", "example2,foo",
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert ("unknown case 'foo'; expected one of example1, example2, example3"
            in captured.err)
    assert captured.out == ""
    assert not out.exists()


# sha256 of every file that solve writes for small 1D runs. 1D outputs are
# bit-identical across refactors of the solver (2D ones, pinned below, also
# change when the CG start or stop changes); a change that alters these
# bytes must update the pin and say why.
_PINNED_1D_OUTPUTS = {
    "example1": {
        "run_example1_k2.csv":
            "be85c25b3be08fe77d59cee4e49aac16b29ee36fab100ff5d1466ab8c234a0b6",
        "run_example1_k2.meta.txt":
            "0ffeb1608bafc9b0de4d6ff602d48e7b1fdefa90dabed4bc9fb7734b7a529289",
        "run_example1_k2_snapshot_t0.5.csv":
            "f78facacde1330f4bff690be65a9bd376e472ea4c6d2282908ac42363b68cbcf",
        "run_example1_k2_snapshot_t1.5.csv":
            "e80b4249cb868b2eaa41b95368191f5f1d5d81dd947ca7053b061904e25177b6",
    },
    "example2": {
        "run_example2_k2.csv":
            "ed75c6caf28de424d1bd4987350ee424e602aee08bfc5581e4bcff57a8edb4ea",
        "run_example2_k2.meta.txt":
            "79d82854cb848004b597818565419da27ad7c137b9f7388d0cf3a2a16726dd42",
        "run_example2_k2_snapshot_t0.5.csv":
            "bcee22253a5d8fb791410317eee366e0250380ab23188146186f67ca7662ede1",
        "run_example2_k2_snapshot_t1.5.csv":
            "6326fff722c1a608acfd2d84f534ca8ab0bef806e5377d79378e19cb9080c7c3",
    },
}


def _digests(out_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out_dir.iterdir()}


@pytest.mark.parametrize("case", sorted(_PINNED_1D_OUTPUTS))
def test_1d_solve_outputs_are_pinned(case, tmp_path, capsys):
    # n = 8, delta = 0.01 at the case's k and t_end; example2 freezes at
    # t = 1.01, so its .meta.txt has a first guard trip
    assert main(["solve", "--case", case, "--n", "8", "--delta", "0.01",
                 "--snapshots", "0.5,1.5", "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == _PINNED_1D_OUTPUTS[case]


# sha256 of every file that the sweeps and the energy study write for 1D
# runs (the energy study at the cases' defaults, example2 first, so its
# rows come before example1's and its chart series after), under the same
# rule as _PINNED_1D_OUTPUTS
_PINNED_1D_STUDIES = {
    ("sweep-h", "--case", "example1", "--k", "1", "--n-list", "4,8",
     "--delta", "0.02", "--t-end", "0.2"): {
        "sweep_h_example1_k1.csv":
            "40f6b43745ef8c82b34015981b50b2641e113843480e9678e5c7c91b8b59bd08",
        "sweep_h_example1_k1.meta.txt":
            "6eea360005c325514b55572f53a702fcb2013f959e413b57c68faec02d5232ea",
        "sweep_h_example1_k1.svg":
            "d20d3927c059fb4b709a1d9dcbdbaa7890f11739612b95fcfd476a0f4a9b8737",
    },
    ("sweep-dt", "--case", "example1", "--k", "2", "--n", "16",
     "--delta-list", "0.04,0.02", "--t-end", "0.2"): {
        "sweep_dt_example1_k2.csv":
            "95f605ca9c4a7285f00e4192f6b31f74e7b3ef62b073571038df8b6dfeee7edc",
        "sweep_dt_example1_k2.meta.txt":
            "1d34df5e31f4994d4e1debd7a9fc7c1b1c4405e4e6bc07e777d15c20ad02ed2e",
        "sweep_dt_example1_k2.svg":
            "98b19556dd6f08c9c3b4a45ae1a220cb31de02aacaa4571416195587ea471700",
    },
    ("energy", "--cases", "example2,example1"): {
        "energy_study.csv":
            "7e60b255a867e1352c5410bbf461163bab1854ad72e8f5a1461e2e52fa79de9f",
        "energy_study.meta.txt":
            "b5419ba901ec6a8e32d01f8e18744e719ceeb6c0ff32ca41ea086b6ba0c5fcff",
        "energy_study.svg":
            "5ee884bd1d93b7b4e81d1aed5abb7ddc8ead372ef8282d8d871a0bf84d63a3bb",
    },
}


@pytest.mark.parametrize("argv", sorted(_PINNED_1D_STUDIES),
                         ids=lambda argv: argv[0])
def test_1d_study_outputs_are_pinned(argv, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == _PINNED_1D_STUDIES[argv]


# sha256 of every file that a small 2D solve and a 2D h-sweep write, under
# the same rule as _PINNED_1D_OUTPUTS: a change to the mesh, the assembly or
# the CG start and stop that alters these bytes must update the pin and
# say why. Re-pinned when CG's reductions moved from an einsum loop to
# chunked BLAS ddot, which rounds differently; at k <= 2 the block Jacobi
# preconditioner is exactly 1 / diag, so nothing else moved these bytes.
# The k = 3 solve is the one whose CG runs the 2x2 edge-pair blocks
_PINNED_2D_OUTPUTS = {
    ("solve", "--case", "example3", "--k", "3", "--n", "4", "--delta", "0.05",
     "--t-end", "0.5", "--snapshots", "0.25"): {
        "run_example3_k3.csv":
            "0faee4cead346ee523fb03b50d0c176a73a2e2b518b58135102572ac0af4d483",
        "run_example3_k3.meta.txt":
            "f570d16ebcb1942fac51825e61f1df45f8e3f643ac0e5bb8c9a898523dbc753e",
        "run_example3_k3_snapshot_t0.25.csv":
            "51ce7abf0ea0ed7141fb42c86c98338421ebe764166d3b6f46533f57244455c6",
    },
    ("solve", "--case", "example3", "--k", "2", "--n", "4", "--delta", "0.05",
     "--t-end", "0.5", "--snapshots", "0.25"): {
        "run_example3_k2.csv":
            "845e7d33978fbc51896f1a5609d42f0ef7a528d5d9e407a20da6235dcee43bb2",
        "run_example3_k2.meta.txt":
            "d696e8f224e087eabe799e64aba10563cbf77568719b3399b5bcff2c76015428",
        "run_example3_k2_snapshot_t0.25.csv":
            "d4727a801f26df580d6f9f6df46621d24e826e9e6ea93a7ccd966358610dda18",
    },
    ("sweep-h", "--case", "example3", "--k", "1", "--n-list", "2,4",
     "--delta", "0.05", "--t-end", "0.2"): {
        "sweep_h_example3_k1.csv":
            "07b76a083c5ae92bd28acde1fcf2cfc808847b4957c3ae5ebff682e6045789d5",
        "sweep_h_example3_k1.meta.txt":
            "3d7b27fa1a320d9aa01d5006eb4d786ec60cf0c82ea1aedb900dfd789d5d5f23",
        "sweep_h_example3_k1.svg":
            "722489f4be61cb0e42cb87770a5fda845ee403408aa0b77fc85b74245769aaa0",
    },
}


@pytest.mark.parametrize("argv", sorted(_PINNED_2D_OUTPUTS),
                         ids=lambda argv: argv[0] + "-k3" * (argv[4] == "3"))
def test_2d_outputs_are_pinned(argv, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == _PINNED_2D_OUTPUTS[argv]


# sha256 of every file of a solve with snapshots at t = 0 (one of them
# requested off the time grid) and of an h-sweep whose rows all fail at
# extinction under the abort policy (exit 3, rows without errors), under
# the same rule as _PINNED_1D_OUTPUTS
_PINNED_EDGE_OUTPUTS = {
    ("solve", "--case", "example1", "--k", "1", "--n", "8", "--delta", "1e-3",
     "--t-end", "0.01", "--snapshots", "0,0.00049,0.005"): (0, {
        "run_example1_k1.csv":
            "33a22a5e0e69f756c5812ea1bfc90635627b7fb80970ea414e5dd76c95cd8b72",
        "run_example1_k1.meta.txt":
            "e1c187a1f94e560a3e977a5745f1d10f2bcebeeadcda2df0ad5275c82c3d7259",
        "run_example1_k1_snapshot_t0.csv":
            "7a459fbacb64a2ef4f98e025d77286babc08571df54371ade517dbc6e4d4de66",
        "run_example1_k1_snapshot_t0.00049.csv":
            "7a459fbacb64a2ef4f98e025d77286babc08571df54371ade517dbc6e4d4de66",
        "run_example1_k1_snapshot_t0.005.csv":
            "c0f9a22a52a5a88cbe9fd0d25ba9d23ae136b7cfb72ae440155b63ab7784d4f3",
    }),
    ("sweep-h", "--case", "example2", "--k", "1", "--n-list", "2,4",
     "--delta", "0.05", "--t-end", "1.2", "--guard-policy", "abort"): (3, {
        "sweep_h_example2_k1.csv":
            "be489257eab5b2269d9f7347817611bf694d9e7521f12ca3c7314155abe774e9",
        "sweep_h_example2_k1.meta.txt":
            "1bddb33a82b8285d3904217ff724d72862abecd475003167f17785866641bffb",
        "sweep_h_example2_k1.svg":
            "0bbb3c2589d29dda10a2f626d6c1b831411279b1b04743c1ae2eeda03bbd7b54",
    }),
}


@pytest.mark.parametrize("argv", sorted(_PINNED_EDGE_OUTPUTS),
                         ids=lambda argv: argv[0])
def test_edge_outputs_are_pinned(argv, tmp_path, capsys):
    code, digests = _PINNED_EDGE_OUTPUTS[argv]
    assert main([*argv, "--out-dir", str(tmp_path)]) == code
    assert _digests(tmp_path) == digests


def test_zero_error_rows_have_undefined_rates():
    assert _pairwise_rates([0.0, 0.0, 0.0]) == [None, None, None]
    assert _fit_slope([0.1, 0.05], [0.0, 0.0]) is None
    assert _fit_slope([0.1, 0.05], [1e-3, None]) is None


def test_example3_reference_resolution_run():
    # the 2D case at its reference resolution: small error, decaying profile
    report = run_solve(RunConfig(case="example3"))
    assert report.final_error <= 1e-4
    energies = report.energy
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_example1_log_energy_strictly_decreasing():
    report = run_solve(_quick_config(k=1, n=16, delta=0.01, t_end=1.0))
    assert np.all(np.diff(np.log(report.energy)) < 0.0)


def test_example3_log_energy_slope_matches_closed_form():
    # energy of the closed form is proportional to (4t+1)^(-1/2), so
    # d(log E)/dt = -2/(4t+1)
    report = run_solve(RunConfig(case="example3", k=3, n=8))
    E, time = report.energy, report.grid.time
    mid = len(E) // 2
    t_mid = time(mid)
    slope = ((math.log(E[mid + 1]) - math.log(E[mid - 1]))
             / (time(mid + 1) - time(mid - 1)))
    assert slope == pytest.approx(-2.0 / (4.0 * t_mid + 1.0), rel=5e-3)


def test_energy_study_rows():
    study = energy_study([_quick_config(), _quick_config(case="example2",
                                                         t_end=0.1)])
    assert list(study.reports) == ["example1", "example2"]
    e1 = study.reports["example1"]
    assert len(e1.energy) == 11
    assert e1.grid.time(0) == 0.0
    lines = energy_csv(study.reports).splitlines()
    assert len(lines) == 1 + 11 + 6
    assert lines[1].startswith("example1,0,") and lines[12].startswith("example2,0,")


# --- CSV schemas and determinism ---

def test_sweep_csv_schema():
    result = sweep(_quick_config(k=1), "h", [4, 8])
    text = sweep_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    first = lines[1].split(",")
    assert first[0] == "example1" and first[1] == "1"
    assert first[6] == ""  # empty pairwise_rate on the first row
    assert len(lines) == 3


def test_empty_sweep_gives_header_only():
    result = SweepResult(case="example1", kind="h", k=1, rows=[],
                         fitted_slope=None)
    assert sweep_csv(result) == SWEEP_HEADER + "\n"


def _energy_record(t_end, energy):
    """A one-step run's record with these two energies, on [0, t_end]."""
    return TrajectorySummary(
        final=None, grid=TimeGrid(t_end=t_end, n_steps=1),
        energy=np.array(energy), coefficient=np.array([1.0]),
        guard_status=[GuardStatus.OK], snapshots={})


def test_energy_csv_extinct_sentinel():
    lines = energy_csv({"example2": _energy_record(1.5, [2.5, 0.0])}
                       ).strip().split("\n")
    assert lines[0] == ENERGY_HEADER
    assert lines[1].endswith(f",{format(math.log(2.5), '.17g')}")
    assert lines[2].split(",")[3] == "-inf"


def test_float_format_17_significant_digits():
    record = _energy_record(1.0 / 3.0, [1.0, 2.0 / 3.0])
    line = energy_csv({"example1": record}).strip().split("\n")[2]
    parts = line.split(",")
    assert parts[1] == "0.33333333333333331"
    assert parts[2] == "0.66666666666666663"


def test_emitted_outputs_are_deterministic(tmp_path):
    result = sweep(_quick_config(k=1), "h", [4, 8])
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_outputs(result, str(dir_a))
    emit_outputs(result, str(dir_b))
    for name in sorted(os.listdir(dir_a)):
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        assert a == b, name


def test_emit_writes_csv_svg_meta(tmp_path):
    result = sweep(_quick_config(k=1), "h", [4, 8])
    paths = emit_outputs(result, str(tmp_path))
    names = {os.path.basename(p) for p in paths}
    assert names == {"sweep_h_example1_k1.csv", "sweep_h_example1_k1.meta.txt",
                     "sweep_h_example1_k1.svg"}
    svg = (tmp_path / "sweep_h_example1_k1.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_emit_run_report_with_snapshots(tmp_path):
    report = run_solve(_quick_config(snapshots=(0.0, 0.2)))
    paths = emit_outputs(report, str(tmp_path))
    names = {os.path.basename(p) for p in paths}
    assert "run_example1_k1.csv" in names
    assert "run_example1_k1_snapshot_t0.csv" in names
    assert "run_example1_k1_snapshot_t0.2.csv" in names
    body = (tmp_path / "run_example1_k1.csv").read_text()
    assert body.startswith(ENERGY_HEADER)


def test_guard_log_complete_in_report():
    report = run_solve(_quick_config())
    times = [t for t, _, _ in report.coefficient_history]
    np.testing.assert_allclose(times, 0.02 * np.arange(1, 11), rtol=1e-12)


# --- CLI ---

# at the default solve tolerance example3's printed decimals are those of
# the exact root 1 / (2 pi^2) = 0.0506605918211689
_ALPHA_DECIMALS = {"example1": "0.223688785954835",
                   "example2": "0.108016681670528",
                   "example3": "0.050660591821169"}


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_cli_alpha(case_id, capsys):
    assert main(["alpha", case_id]) == 0
    out = capsys.readouterr().out
    assert f"alpha({case_id}) = {_ALPHA_DECIMALS[case_id]}" in out


def test_cli_solve_and_outputs(tmp_path, capsys):
    code = main(["solve", "--case", "example1", "--k", "1", "--n", "8",
                 "--delta", "0.02", "--t-end", "0.2",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "L2 error at t_end" in out
    assert (tmp_path / "run_example1_k1.csv").exists()


def test_cli_sweep_dt(tmp_path, capsys):
    code = main(["sweep-dt", "--case", "example1", "--k", "2", "--n", "16",
                 "--t-end", "0.2", "--delta-list", "0.02,0.01",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert "fitted slope" in capsys.readouterr().out


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_cli_verify(case_id, capsys):
    assert main(["verify", case_id]) == 0
    out = capsys.readouterr().out
    assert "fixed-point residual" in out
    assert "boundary trace max:       0.000e+00" in out


def test_cli_config_error_exit_code(capsys):
    assert main(["solve", "--case", "example1", "--k", "9"]) == 2
    assert "config error" in capsys.readouterr().err
    # the backend follows the dimension; there is no flag to choose it
    with pytest.raises(SystemExit) as info:
        main(["solve", "--solver-method", "direct-banded"])
    assert info.value.code == 2


_GUARD_COMMANDS = {
    "solve": ["--case", "example1", "--k", "1", "--n", "4", "--t-end", "0.1"],
    "energy": ["--cases", "example1"],
    "sweep-h": ["--case", "example1", "--k", "1", "--t-end", "0.1",
                "--n-list", "4,8"],
}


@pytest.mark.parametrize("route", ["flags", "file"])
@pytest.mark.parametrize("command", sorted(_GUARD_COMMANDS))
def test_cli_inverted_guard_window_is_a_config_error(command, route,
                                                     tmp_path, capsys):
    # refused before any run, so nothing is written
    out = tmp_path / "out"
    if route == "flags":
        guards = ["--guard-floor", "2", "--guard-ceiling", "1"]
    else:
        path = tmp_path / "run.cfg"
        path.write_text("guard_floor = 2\nguard_ceiling = 1\n")
        guards = ["--config", str(path)]
    code = main([command, *_GUARD_COMMANDS[command], *guards,
                 "--out-dir", str(out)])
    assert code == 2
    assert "guard_ceiling must exceed guard_floor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance, code", [
    ("0", 2), ("-1", 2), ("nan", 2),
    ("1e-20", 3),    # below what the search can reach in double precision
])
def test_cli_alpha_bad_tolerance_exit_code(tolerance, code, capsys):
    # main returns a code instead of raising, so no traceback is printed
    assert main(["alpha", "example3", "--tolerance", tolerance]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error" if code == 2 else "numerical failure")


def test_cli_missing_config_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["solve", "--config", missing]) == 2


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # abort policy with an unreachable ceiling trips immediately
    code = main(["solve", "--case", "example2", "--k", "1", "--n", "16",
                 "--delta", "0.01", "--t-end", "2.0",
                 "--guard-ceiling", "1e-6", "--guard-policy", "abort",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = main(["solve", "--case", "example1", "--k", "1", "--n", "4",
                 "--delta", "0.05", "--t-end", "0.1",
                 "--out-dir", str(target)])
    assert code == 4
    assert "io error" in capsys.readouterr().err


class _FailingStdout:
    """A stdout whose every write raises the given OSError."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


def test_cli_broken_pipe_is_not_an_io_error(monkeypatch, capsys):
    # `nonlocfem alpha example1 | head -1`: the reader closed stdout early
    failing = _FailingStdout(BrokenPipeError(32, "Broken pipe"))
    monkeypatch.setattr(sys, "stdout", failing)
    assert main(["alpha", "example1"]) == 0
    assert sys.stdout is not failing   # now os.devnull, so exit cannot raise
    print("dropped")
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_cli_other_stdout_error_is_an_io_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError(5, "EIO")))
    assert main(["alpha", "example1"]) == 4
    assert "io error" in capsys.readouterr().err


def test_cli_energy(tmp_path, capsys):
    code = main(["energy", "--cases", "example1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "energy_study.csv").exists()


def test_cli_energy_passes_common_flags_to_every_case(tmp_path, capsys):
    code = main(["energy", "--cases", "example2,example3",
                 "--solver-tol", "1e-11", "--guard-ceiling", "1e9",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "energy_study.meta.txt").read_text()
    entries = dict(line.split(" = ", 1) for line in text.splitlines())
    assert sorted(entries) == ["example2", "example3"]
    for case, entry in entries.items():
        meta = ast.literal_eval(entry)
        assert meta["case"] == case
        assert meta["solver_tol"] == 1e-11
        assert meta["guard_ceiling"] == 1e9


def test_cli_energy_rejects_flags_it_does_not_use(capsys):
    # energy runs every case at its reference settings; a discretization
    # flag would be silently ignored, so argparse refuses it
    with pytest.raises(SystemExit) as info:
        main(["energy", "--cases", "example2", "--n", "7"])
    assert info.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_cli_energy_rejects_config_keys_it_does_not_use(tmp_path, capsys):
    # the same keys from a config file would be silently ignored as well
    path = tmp_path / "run.cfg"
    path.write_text("n = 7\nk = 1\nguard_policy = warn\n")
    code = main(["energy", "--cases", "example2", "--config", str(path),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "energy does not use n, k" in err
    assert not (tmp_path / "energy_study.csv").exists()


_SWEEPS = {   # command -> (its ladder flag and value, the key it sweeps)
    "sweep-h": (["--n-list", "4,8", "--delta", "0.05"], "n"),
    "sweep-dt": (["--n", "4", "--delta-list", "0.05,0.025"], "delta"),
}


@pytest.mark.parametrize("command", sorted(_SWEEPS))
def test_cli_sweep_rejects_the_flag_it_sweeps(command, tmp_path, capsys):
    # the ladder overwrites the swept key row by row, so a flag for it
    # would be silently ignored; nor may it pass as a prefix of the ladder
    ladder, key = _SWEEPS[command]
    with pytest.raises(SystemExit) as info:
        main([command, "--case", "example1", "--k", "1", "--t-end", "0.1",
              *ladder, f"--{key}", "7", "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert f"--{key} 7" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(_SWEEPS))
def test_cli_sweep_rejects_the_config_key_it_sweeps(command, tmp_path, capsys):
    ladder, key = _SWEEPS[command]
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = 7\n")
    code = main([command, "--case", "example1", "--k", "1", "--t-end", "0.1",
                 *ladder, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{command} does not use {key}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
