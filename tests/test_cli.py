import csv
import json

import numpy as np
import pytest

from gridtopo.cli import main
from gridtopo.errors import UsageError
from gridtopo.grid import ScalarGrid, save_raw, synthetic_gaussians


def run_cli(args):
    return main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def normalized_rows(rows):
    """(branch_id, volume, parent) with the trunk symbolic.

    The trunk row names the tree root, and the root vertex can differ
    across pre-simplification thresholds when the global extremum sits
    inside a pruned subtree; comparisons must treat the trunk by role.
    """
    trunk_id = next(r["branch_id"] for r in rows if r["parent_branch_id"] == "")

    def norm(value):
        return "TRUNK" if value == trunk_id else value

    return sorted(
        (norm(r["branch_id"]), r["volume"], norm(r["parent_branch_id"]))
        for r in rows
    )


def test_serial_monotone_volume(tmp_path):
    branches = tmp_path / "b.csv"
    metrics = tmp_path / "m.json"
    rc = run_cli(
        [
            "run", "--synthetic", "ramp", "--dims", "32,32,32",
            "--mode", "serial",
            "--branches-out", str(branches), "--metrics-out", str(metrics),
        ]
    )
    assert rc == 0
    rows = read_rows(branches)
    assert len(rows) == 1
    assert int(rows[0]["volume"]) == 32**3
    doc = json.loads(metrics.read_text())
    assert doc["supernodes"] == 2 and doc["branches"] == 1


def _noisy_volume(tmp_path, dims=(32, 32, 16), seed=11):
    # Smooth lobes with fine noise: large top branches plus many small
    # interior subtrees for the threshold to prune.
    base = synthetic_gaussians(dims, seed)
    rng = np.random.default_rng(99)
    grid = ScalarGrid(dims=dims, values=base.values + 0.02 * rng.random(base.n))
    path = tmp_path / "vol.raw"
    save_raw(grid, path, 64, "little")
    return path, dims


def test_serial_and_distributed_agree_at_lambda_zero(tmp_path):
    path, dims = _noisy_volume(tmp_path)
    dims_arg = ",".join(map(str, dims))
    out = {}
    for mode, extra in (("serial", []), ("distributed", ["--blocks", "2,2,1"])):
        branches = tmp_path / f"{mode}.csv"
        rc = run_cli(
            [
                "run", "--input", str(path), "--dims", dims_arg,
                "--dtype", "f64", "--mode", mode, "--lambda", "0",
                "--branches-out", str(branches),
            ]
            + extra
        )
        assert rc == 0
        out[mode] = branches.read_bytes()
    assert out["serial"] == out["distributed"]


def test_paired_lambda_runs(tmp_path):
    """Pre-simplified run exchanges fewer points, same top branches."""
    path, dims = _noisy_volume(tmp_path)
    dims_arg = ",".join(map(str, dims))
    results = {}
    for lam in (0, 100):
        branches = tmp_path / f"lam{lam}.csv"
        metrics = tmp_path / f"lam{lam}.json"
        rc = run_cli(
            [
                "run", "--input", str(path), "--dims", dims_arg,
                "--dtype", "f64", "--mode", "distributed",
                "--blocks", "2,2,1", "--lambda", str(lam),
                "--top-branches", "5",
                "--branches-out", str(branches), "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(metrics.read_text())
        ap = doc["commlog"]["phases"]["augmentation"]["max"]["attachment_points_recv"]
        results[lam] = (ap, read_rows(branches), doc)
    ap0, rows0, doc0 = results[0]
    ap100, rows100, doc100 = results[100]
    assert ap100 <= ap0
    assert 100 < doc0["lambda_b"], "test data must keep lambda below Lambda_b"
    assert normalized_rows(rows0) == normalized_rows(rows100)


def test_paired_lambda_runs_large(tmp_path):
    """Seeded 64x64x32 random volume, quadrant blocks, lambda 0 vs 100."""
    results = {}
    for lam in (0, 100):
        branches = tmp_path / f"large{lam}.csv"
        metrics = tmp_path / f"large{lam}.json"
        rc = run_cli(
            [
                "run", "--synthetic", "random", "--seed", "4",
                "--dims", "64,64,32", "--mode", "distributed",
                "--blocks", "2,2,1", "--lambda", str(lam),
                "--branches-out", str(branches), "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(metrics.read_text())
        ap = doc["commlog"]["phases"]["augmentation"]["max"]["attachment_points_recv"]
        results[lam] = (ap, read_rows(branches), doc)
    ap0, rows0, doc0 = results[0]
    ap100, rows100, doc100 = results[100]
    assert ap100 <= ap0
    if 100 < doc0["lambda_b"]:
        assert normalized_rows(rows0) == normalized_rows(rows100)


def test_lambda_sweep_csv(tmp_path):
    sweep = tmp_path / "sweep.csv"
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--seed", "5", "--dims", "16,16,1",
            "--blocks", "2,2,1",
            "--lambda-sweep", "0,1,10,100,1000,10000,100000",
            "--sweep-out", str(sweep),
        ]
    )
    assert rc == 0
    lines = sweep.read_text().strip().split("\n")
    assert lines[0] == "lambda,max_attachment_points,max_bestupdown,max_branchinfo"
    assert len(lines) == 8
    aps = [int(line.split(",")[1]) for line in lines[1:]]
    assert aps == sorted(aps, reverse=True)
    assert aps[-1] == 0


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for attempt in ("a", "b"):
        branches = tmp_path / f"{attempt}.csv"
        metrics = tmp_path / f"{attempt}.json"
        rc = run_cli(
            [
                "run", "--synthetic", "random", "--seed", "9",
                "--dims", "14,14,2", "--mode", "distributed",
                "--blocks", "2,2,1", "--lambda", "3",
                "--branches-out", str(branches), "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        outputs.append((branches.read_bytes(), metrics.read_bytes()))
    assert outputs[0] == outputs[1]


def test_concurrent_ranks_byte_identical(tmp_path):
    outputs = []
    for exec_mode in ("sequential", "concurrent"):
        branches = tmp_path / f"{exec_mode}.csv"
        metrics = tmp_path / f"{exec_mode}.json"
        rc = run_cli(
            [
                "run", "--synthetic", "random", "--seed", "9",
                "--dims", "14,14,2", "--mode", "distributed",
                "--blocks", "2,2,1", "--lambda", "3",
                "--rank-exec", exec_mode,
                "--branches-out", str(branches), "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        outputs.append((branches.read_bytes(), metrics.read_bytes()))
    assert outputs[0] == outputs[1]


def test_oracle_check_flag(tmp_path):
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--seed", "2", "--dims", "9,9,1",
            "--mode", "serial", "--oracle-check",
        ]
    )
    assert rc == 0


def test_usage_error_exit_code():
    assert run_cli(["run", "--synthetic", "random", "--dims", "4,4"]) == 1
    assert run_cli(["run", "--dims", "4,4,1"]) == 1
    assert (
        run_cli(
            ["run", "--synthetic", "random", "--dims", "4,4,1", "--lambda", "-1"]
        )
        == 1
    )


@pytest.mark.parametrize(
    "args,message",
    [
        (["--dims", "4,4,1"], "exactly one of --input and --synthetic is required"),
        (
            ["--input", "vol.raw", "--synthetic", "random", "--dims", "4,4,1"],
            "exactly one of --input and --synthetic is required",
        ),
        (["--synthetic", "random", "--dims", "4,4,1", "--lambda", "-1"],
         "--lambda must be non-negative"),
        (["--synthetic", "random", "--dims", "4,4,1", "--top-branches", "0"],
         "--top-branches must be at least 1"),
        (["--synthetic", "random", "--dims", "4,4,1", "--threshold", "nan"],
         "--threshold must be a finite non-negative number"),
        (
            ["--synthetic", "random", "--dims", "4,4,1", "--top-branches", "5",
             "--threshold", "1"],
            "--top-branches and --threshold are mutually exclusive",
        ),
        (["--synthetic", "random", "--dims", "4,4,1", "--blocks", "0,1,1"],
         "--blocks entries must be positive"),
        (
            ["--synthetic", "random", "--dims", "4,4,1", "--mode", "distributed",
             "--blocks", "2,1,1", "--lambda", "1", "--oracle-check"],
            "--oracle-check needs --lambda 0 in distributed mode",
        ),
        (["--synthetic", "random", "--dims", "4,4,1", "--seed", "-1"],
         "--seed must be non-negative"),
        (["--synthetic", "random", "--dims=-1,2,2"], "--dims entries must be positive"),
        (["--synthetic", "gaussians", "--dims=-2,-2,1"], "--dims entries must be positive"),
        (["--input", "vol.raw", "--dims=-2,-2,1"], "--dims entries must be positive"),
        (["--synthetic", "ramp", "--dims", "4,0,1"], "--dims entries must be positive"),
        (["--synthetic", "random", "--dims", "10000000,10000000,1000000"],
         f"--dims give more than {np.iinfo(np.intp).max} vertices"),
        (["--synthetic", "gaussians", "--dims", "10000000,10000000,1000000"],
         f"--dims give more than {np.iinfo(np.intp).max} vertices"),
        (["--input", "vol.raw", "--dims", "10000000,10000000,1000000"],
         f"--dims give more than {np.iinfo(np.intp).max} vertices"),
    ],
)
def test_validate_rules(args, message, capsys):
    """One row per ``validate`` rule, with a run that breaks only that rule."""
    for sweep in ([], ["--lambda-sweep", "0,1"]):
        assert run_cli(["run"] + args + sweep) == 1
        assert capsys.readouterr().err == f"error (UsageError): {message}\n"


@pytest.mark.parametrize(
    "flag", [["--blocks", "2,2,1"], ["--lambda", "5"], ["--rank-exec", "concurrent"]]
)
def test_serial_mode_rejects_distributed_only_flags(flag, capsys):
    """Serial runs would ignore these flags, so they are an error unless a sweep reads them."""
    base = ["run", "--synthetic", "random", "--dims", "4,4,1"]
    message = "--blocks, --lambda and --rank-exec only apply to --mode distributed"
    for mode in ([], ["--mode", "serial"]):
        assert run_cli(base + mode + flag) == 1
        assert capsys.readouterr() == ("", f"error (UsageError): {message}\n")
    assert run_cli(base + ["--mode", "distributed"] + flag) == 0
    if flag[0] != "--lambda":
        assert run_cli(base + flag + ["--lambda-sweep", "0"]) == 0


SWEEP_ONLY = "--lambda-sweep cannot take --oracle-check, --branches-out, --metrics-out or --lambda"


@pytest.mark.parametrize(
    "args,message",
    [
        (["--lambda-sweep", "0", "--oracle-check"], SWEEP_ONLY),
        (["--lambda-sweep", "0", "--branches-out", "x.csv"], SWEEP_ONLY),
        (["--lambda-sweep", "0,10", "--metrics-out", "x.json"], SWEEP_ONLY),
        (["--lambda-sweep", "0", "--lambda", "5"], SWEEP_ONLY),
        (["--lambda-sweep", "0", "--mode", "serial", "--oracle-check"], SWEEP_ONLY),
        (["--sweep-out", "s.csv"], "--sweep-out needs --lambda-sweep"),
        (["--mode", "distributed", "--sweep-out", "s.csv"], "--sweep-out needs --lambda-sweep"),
        (["--lambda-sweep", ""], "--lambda-sweep needs at least one value"),
    ],
)
def test_validate_rejects_flags_a_sweep_would_ignore(args, message, capsys, tmp_path, monkeypatch):
    """A flag that only a single run reads is an error with ``--lambda-sweep``, and vice versa."""
    monkeypatch.chdir(tmp_path)
    base = ["run", "--synthetic", "random", "--seed", "4", "--dims", "8,8,4", "--blocks", "2,1,1"]
    assert run_cli(base + args) == 1
    assert capsys.readouterr() == ("", f"error (UsageError): {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_lambda_sweep_with_explicit_zero_lambda_runs(capsys):
    """``--lambda 0`` is the default, so a sweep accepts it."""
    args = ["run", "--synthetic", "random", "--dims", "8,8,4", "--blocks", "2,1,1"]
    assert run_cli(args + ["--lambda-sweep", "0,10", "--lambda", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda,max_attachment_points,") and len(out.splitlines()) == 3


def test_default_selects_one_hundred_branches(tmp_path):
    metrics = tmp_path / "m.json"
    rc = run_cli(
        ["run", "--synthetic", "random", "--dims", "16,16,4", "--metrics-out", str(metrics)]
    )
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert doc["branches"] > 100
    assert doc["config"]["top_branches"] == 100 and doc["selected"] == 100


def test_lambda_sweep_bad_value_exit_code(capsys):
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--dims", "8,8,1",
            "--blocks", "2,1,1", "--lambda-sweep", "0,abc",
        ]
    )
    assert rc == 1
    assert "--lambda-sweep" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path):
    path = tmp_path / "short.raw"
    path.write_bytes(b"\x00" * 10)
    rc = run_cli(["run", "--input", str(path), "--dims", "4,4,1"])
    assert rc == 2


def test_unreadable_input_is_data_error(tmp_path, capsys):
    """A directory whose size matches ``--dims`` passes the size check but cannot be read."""
    folder = tmp_path / "volume"
    folder.mkdir()
    size = folder.stat().st_size
    if size == 0 or size % 4:
        pytest.skip(f"directories here report {size} bytes, no f32 volume's size")
    assert run_cli(["run", "--input", str(folder), "--dims", f"{size // 4},1,1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error (DataError): cannot read input volume {folder}: Is a directory\n"


@pytest.mark.parametrize(
    "flag,target,extra,reason",
    [
        ("--metrics-out", "missing/m.json", [], "No such file or directory"),
        ("--branches-out", "folder", [], "Is a directory"),
        ("--metrics-out", "file/m.json", [], "Not a directory"),
        (
            "--sweep-out", "missing/s.csv", ["--blocks", "2,1,1", "--lambda-sweep", "0"],
            "No such file or directory",
        ),
    ],
    ids=["metrics-in-missing-dir", "branches-at-dir", "metrics-under-file", "sweep-in-missing-dir"],
)
def test_unwritable_output_is_usage_error(
    flag, target, extra, reason, tmp_path, capsys, monkeypatch
):
    """Each output path is checked before the grid is loaded."""
    from gridtopo import cli

    loads = []
    monkeypatch.setattr(cli, "load_grid", loads.append)
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").touch()
    path = tmp_path / target
    args = ["run", "--synthetic", "random", "--dims", "8,8,1", flag, str(path)] + extra
    assert run_cli(args) == 1
    assert loads == []
    assert capsys.readouterr().err == f"error (UsageError): cannot write {path}: {reason}\n"


def test_write_turns_os_errors_into_usage_errors(tmp_path):
    from gridtopo import cli

    path = tmp_path / "missing" / "m.json"
    with pytest.raises(UsageError) as err:
        cli._write(str(path), "{}")
    assert str(err.value) == f"cannot write {path}: No such file or directory"


def test_infeasible_blocks_exit_code():
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--dims", "4,4,1",
            "--mode", "distributed", "--blocks", "4,1,1",
        ]
    )
    assert rc == 1


def test_advise_reference_numbers(capsys):
    rc = run_cli(
        [
            "advise", "--n", str(2048**3), "--ranks", "16",
            "--mem-per-rank", "512e9", "--bytes-per-ap", "209.02",
            "--base-mem", str(133.26 * 1024**3),
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["memory_criterion_lambda_min"] == 4
    assert doc["communication_criterion_floor"] == 2048


def test_advise_infeasible(capsys):
    rc = run_cli(
        [
            "advise", "--n", "1000000", "--ranks", "8",
            "--mem-per-rank", "1e9", "--bytes-per-ap", "200",
            "--base-mem", "2e9",
        ]
    )
    assert rc == 2


def test_missing_input_file_exit_code(tmp_path):
    rc = run_cli(["run", "--input", str(tmp_path / "nope.raw"), "--dims", "4,4,1"])
    assert rc == 2


def test_oracle_check_rejects_simplified_distributed_run(capsys):
    # A tree pre-simplified at lambda > 0 cannot match the full-grid census.
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--dims", "8,8,4",
            "--mode", "distributed", "--blocks", "2,2,1", "--lambda", "1",
            "--oracle-check",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "UsageError" in err and "--oracle-check" in err


def test_oracle_check_distributed_lambda_zero_passes():
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--dims", "8,8,4",
            "--mode", "distributed", "--blocks", "2,2,1", "--lambda", "0",
            "--oracle-check",
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("oracle_check", [False, True], ids=["plain", "oracle-check"])
def test_distributed_run_orders_the_whole_grid_only_for_the_oracle(oracle_check, monkeypatch):
    """Each rank orders its own block; only ``--oracle-check`` orders the whole grid, once."""
    from gridtopo import cli
    from gridtopo.dist import decompose, pipeline

    sizes = []
    for module in (cli, pipeline):

        def recording(grid, real=module.sos_order):
            sizes.append(grid.n)
            return real(grid)

        monkeypatch.setattr(module, "sos_order", recording)
    args = ["run", "--synthetic", "random", "--dims", "8,8,4", "--mode", "distributed",
            "--blocks", "2,2,1"]
    assert run_cli(args + ["--oracle-check"] * oracle_check) == 0
    grid = ScalarGrid(dims=(8, 8, 4), values=np.zeros(256))
    blocks = [int(np.prod(e.shape)) for e in decompose(grid, (2, 2, 1)).extents]
    assert blocks == [64, 80, 80, 100]
    assert sizes == [256] * oracle_check + blocks


def test_oracle_mismatch_is_internal_error(monkeypatch, capsys):
    from gridtopo import oracle

    real = oracle.level_set_census
    monkeypatch.setattr(oracle, "level_set_census", lambda *a: real(*a) + 1)
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--seed", "2", "--dims", "6,6,1",
            "--oracle-check",
        ]
    )
    assert rc == 3
    assert "error (InternalError): oracle mismatch at gap 0" in capsys.readouterr().err


def test_oracle_check_names_the_first_mismatch_at_a_later_gap(monkeypatch, capsys):
    """One census call covers every sampled gap; the error names the lowest wrong one."""
    from gridtopo import oracle

    real, calls = oracle.level_set_census, []

    def census(grid, order, gaps):
        counts = real(grid, order, gaps)
        calls.append((list(gaps), counts.copy()))
        counts[[3, 5]] += 1
        return counts

    monkeypatch.setattr(oracle, "level_set_census", census)
    rc = run_cli(
        [
            "run", "--synthetic", "random", "--seed", "2", "--dims", "9,9,9",
            "--oracle-check",
        ]
    )
    assert rc == 3
    ((gaps, counts),) = calls
    assert gaps == list(range(0, 728, 728 // 64))
    want = f"oracle mismatch at gap {gaps[3]}: tree {counts[3]}, oracle {counts[3] + 1}"
    assert f"error (InternalError): {want}\n" in capsys.readouterr().err


def test_grid_too_large_to_allocate(monkeypatch, capsys):
    from gridtopo import cli

    def no_memory(config):
        raise MemoryError

    monkeypatch.setattr(cli, "load_grid", no_memory)
    rc = run_cli(["run", "--synthetic", "random", "--dims", "100000,100000,100"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error (UsageError)" in err and str(100000 * 100000 * 100) in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_threshold_must_be_finite_non_negative(value, capsys):
    rc = run_cli(
        ["run", "--synthetic", "random", "--dims", "6,6,1", "--threshold", value]
    )
    assert rc == 1
    assert "error (UsageError): --threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--bytes-per-ap", "nan"),
        ("--bytes-per-ap", "inf"),
        ("--bytes-per-ap", "1e308"),
        ("--mem-per-rank", "nan"),
        ("--base-mem", "-inf"),
        ("--constant", "nan"),
        ("--constant", "1e308"),
        ("--lambda-cap", "nan"),
        ("--lambda-cap", "inf"),
        ("--lambda-cap", "-3"),
    ],
)
def test_advise_non_finite_or_overflowing_input(flag, value, capsys):
    args = {
        "--n": str(10**10), "--ranks": "8", "--mem-per-rank": "1e9",
        "--bytes-per-ap": "200", "--base-mem": "1e6",
    }
    args[flag] = value
    rc = run_cli(["advise"] + [f"{k}={v}" for k, v in args.items()])
    out = capsys.readouterr()
    assert rc == 1
    assert "error (UsageError)" in out.err and out.out == ""


def test_advise_huge_lambda_is_exact_and_prompt(capsys):
    # lambda_min near 5e25: float stepping could not move past it.
    rc = run_cli(
        [
            "advise", "--n", "1000000", "--ranks", "2", "--mem-per-rank", "2",
            "--bytes-per-ap", "1e20", "--base-mem", "1",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["memory_criterion_lambda_min"] == 5 * 10**25
