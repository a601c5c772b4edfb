import decimal
import json
import math
import os
import subprocess
import sys

import pytest

import divbound
from divbound.cli import main
from divbound.solver import clear_caches

# the directory this session imported divbound from, so child processes run the same code
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(divbound.__file__)))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield


def child_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return env


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_single_triple(capsys):
    code, out, _ = run_main(
        capsys, "bound", "--family", "two-fork", "--mode", "density",
        "--alpha", "10", "--budget", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == pytest.approx(0.5, abs=1e-15)
    assert doc["upper"] == pytest.approx(1.0, abs=1e-12)
    assert doc["family"] == "two-fork"
    assert doc["mode"] == "density"
    assert doc["alpha"] == 10.0
    assert doc["budget"] == 1.0
    assert doc["blocks"] == 1
    assert doc["terms"] == 1
    expected_keys = {
        "family", "mode", "alpha", "budget", "S", "W", "M", "lower", "upper",
        "blocks", "id_pairs", "terms", "slack", "elapsed_seconds",
    }
    assert expected_keys <= set(doc)


def test_bound_beta_reports_exponentials(capsys):
    code, out, _ = run_main(
        capsys, "bound", "--family", "two-fork", "--mode", "beta", "--budget", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exp_lower"] == pytest.approx(math.sqrt(2), rel=1e-12)
    assert doc["exp_upper"] == pytest.approx(math.exp(doc["upper"]), rel=1e-12)
    assert doc["M"] == pytest.approx(math.log(2), rel=1e-15)


@pytest.mark.parametrize("budget", ["1e4", "1e5"])
def test_bound_beta_exponentials_round_outward(capsys, budget):
    # at 1e4 exp rounded to nearest lands above e**lower, at 1e5 below e**upper
    code, out, _ = run_main(
        capsys, "bound", "--family", "two-fork", "--mode", "beta", "--budget", budget,
    )
    assert code == 0
    doc = json.loads(out)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        assert decimal.Decimal(doc["exp_lower"]) <= decimal.Decimal(doc["lower"]).exp()
        assert decimal.Decimal(doc["exp_upper"]) >= decimal.Decimal(doc["upper"]).exp()


def test_bound_pressure_mode(capsys):
    code, out, _ = run_main(
        capsys, "bound", "--family", "two-fork", "--mode", "pressure:1.5",
        "--budget", "100",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == pytest.approx(math.log(2.5), rel=1e-12)
    assert doc["lower"] <= doc["upper"]


def test_bound_csv_projection(capsys):
    code, out, _ = run_main(
        capsys, "bound", "--family", "two-fork", "--budget", "1",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    assert len(cols) == len(vals)
    table = dict(zip(cols, vals))
    assert float(table["lower"]) == pytest.approx(0.5)
    assert table["family"] == "two-fork"


def test_bound_rejects_removed_threads_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound", "--family", "two-fork", "--budget", "1e4", "--threads", "4"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_bound_rejects_removed_exact_reference_flag(capsys):
    # verify's float-vs-rational suite and divbound.exact_reference_series are the
    # exact reference; bound always prints evaluate's bracket
    with pytest.raises(SystemExit) as info:
        main(["bound", "--family", "two-fork", "--budget", "1e3", "--exact-reference"])
    assert info.value.code == 2
    assert "--exact-reference" in capsys.readouterr().err


def test_bound_budget_monotonicity(capsys):
    docs = []
    for budget in ("10", "1e3", "1e5"):
        _, out, _ = run_main(
            capsys, "bound", "--family", "two-fork", "--budget", budget,
        )
        docs.append(json.loads(out))
    for a, b in zip(docs, docs[1:]):
        assert a["lower"] <= b["lower"] + 1e-15
        assert a["upper"] >= b["upper"] - 1e-15


def test_bound_cache_file_round_trip(capsys, tmp_path):
    cache = str(tmp_path / "blocks.tsv")
    args = ["bound", "--family", "two-fork", "--budget", "1e4", "--cache", cache]
    _, out1, _ = run_main(capsys, *args)
    assert os.path.exists(cache)
    clear_caches()
    _, out2, _ = run_main(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2


def test_bound_family_file(capsys, tmp_path):
    doc = {
        "patterns": [
            {
                "vertices": 3,
                "edges": [
                    {"from": 0, "to": 1, "directed": True},
                    {"from": 0, "to": 2, "directed": True},
                ],
            }
        ],
        "forest": False,
    }
    path = tmp_path / "two_fork.json"
    path.write_text(json.dumps(doc))
    _, out_file, _ = run_main(
        capsys, "bound", "--family", f"file:{path}", "--budget", "1e3",
    )
    _, out_builtin, _ = run_main(
        capsys, "bound", "--family", "two-fork", "--budget", "1e3",
    )
    df, db = json.loads(out_file), json.loads(out_builtin)
    for key in ("S", "W", "lower", "upper", "blocks", "terms"):
        assert df[key] == db[key]


def test_bound_invalid_inputs_exit_2(capsys, tmp_path):
    assert run_main(capsys, "bound", "--family", "pentagon")[0] == 2
    assert run_main(capsys, "bound", "--family", "two-fork", "--mode", "wat")[0] == 2
    assert run_main(capsys, "bound", "--family", "two-fork", "--mode", "pressure:0")[0] == 2
    assert run_main(capsys, "bound", "--family", "two-fork", "--mode", "pressure:1e400")[0] == 2
    assert run_main(capsys, "bound", "--family", "two-fork", "--budget", "inf")[0] == 2
    assert run_main(capsys, "bound", "--family", "two-fork", "--alpha", "0.5")[0] == 2
    assert run_main(capsys, "bound", "--family", "file:/no/such/file.json")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_main(capsys, "bound", "--family", f"file:{bad}")[0] == 2


def test_bound_mistyped_pattern_file_exits_2(capsys, tmp_path):
    path = tmp_path / "fam.json"
    edge = {"from": 0, "to": 1, "directed": "false"}
    path.write_text(json.dumps({"patterns": [{"vertices": 2, "edges": [edge]}]}))
    code, out, err = run_main(capsys, "bound", "--family", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "pattern 0" in err and "'directed'" in err


def test_bound_misspelled_pattern_file_key_exits_2(capsys, tmp_path):
    path = tmp_path / "fam.json"
    edges = [{"from": 0, "to": 1, "directed": True}, {"from": 0, "to": 2, "directed": True}]
    path.write_text(json.dumps({"pattern": [{"vertices": 3, "edges": edges}]}))
    code, out, err = run_main(capsys, "bound", "--family", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "'pattern'" in err


def test_bound_cyclic_pattern_file_exits_2(capsys, tmp_path):
    # a directed cycle forbids nothing: no divisor graph contains one
    path = tmp_path / "fam.json"
    edges = [{"from": a, "to": (a + 1) % 3, "directed": True} for a in range(3)]
    path.write_text(json.dumps({"patterns": [{"vertices": 3, "edges": edges}]}))
    code, out, err = run_main(capsys, "bound", "--family", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "pattern 0" in err and "directed cycle" in err


def test_bound_resource_error_exit_3_names_key(capsys, monkeypatch):
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "2")
    code, _, err = run_main(
        capsys, "bound", "--family", "two-fork", "--budget", "1e6",
    )
    assert code == 3
    assert "root" in err


def test_oracle_command(capsys):
    code, out, _ = run_main(capsys, "oracle", "--n", "3", "--family", "two-fork")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == 2
    assert doc["q"] == 7
    assert doc["telescope_pass"] is True

    code, out, _ = run_main(capsys, "oracle", "--n", "1", "--family", "forest")
    doc = json.loads(out)
    assert (doc["f"], doc["q"]) == (1, 2)

    code, out, _ = run_main(capsys, "oracle", "--n", "12", "--family", "chain:2")
    assert json.loads(out)["f"] == 6


def test_oracle_rejects_large_n(capsys):
    assert run_main(capsys, "oracle", "--n", "25", "--family", "two-fork")[0] == 2
    assert run_main(capsys, "oracle", "--n", "0", "--family", "two-fork")[0] == 2


def test_blocks_table(capsys):
    code, out, _ = run_main(
        capsys, "blocks", "--family", "two-fork", "--budget", "1e8", "--top", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["elements", "root", "weight", "increment"]
    assert len(lines) == 6
    first = lines[1].split("\t")
    assert first[0] == "1"
    assert first[1] == "1"
    assert float(first[2]) == pytest.approx(0.5, rel=1e-9)
    assert first[3] == "1"
    weights = [float(ln.split("\t")[2]) for ln in lines[1:]]
    assert weights == sorted(weights, reverse=True)


def test_blocks_top_zero_prints_header_only(capsys):
    code, out, _ = run_main(
        capsys, "blocks", "--family", "two-fork", "--budget", "100", "--top", "0",
    )
    assert code == 0
    assert out.strip().splitlines() == ["elements\troot\tweight\tincrement"]


def test_blocks_counting_mode_increments_in_range(capsys):
    code, out, _ = run_main(
        capsys, "blocks", "--family", "two-fork", "--mode", "beta",
        "--budget", "1e3", "--top", "50",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        h = float(line.split("\t")[3])
        assert -1e-12 <= h <= math.log(2) + 1e-12


def test_verify_quick(capsys):
    code, out, _ = run_main(capsys, "verify", "--level", "quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(": pass" in ln for ln in lines)


def test_verify_fails_on_a_wrong_block_weight(capsys, monkeypatch):
    import divbound.cli as cli

    exact = cli.block_weight_exact

    def wrong_at_3_5(i, d):
        return 2 * exact(i, d) if (i, d) == (3, 5) else exact(i, d)

    monkeypatch.setattr(cli, "block_weight_exact", wrong_at_3_5)
    code, out, _ = run_main(capsys, "verify", "--level", "quick")
    assert code == 1
    assert out.splitlines()[0].startswith("weight-identity: FAIL: weight identity fails at i=3, d=5")


def test_verify_fails_on_a_wrong_retained_mass(capsys, monkeypatch):
    import divbound.series as series

    real = series.block_weight

    # (3, 4) is retained from B = 4 * 3**10 on, so the first budget to show it is 1e6
    def wrong_at_3_4(i, d):
        return 2 * real(i, d) if (i, d) == (3, 4) else real(i, d)

    monkeypatch.setattr(series, "block_weight", wrong_at_3_4)
    code, out, _ = run_main(capsys, "verify", "--level", "quick")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("weight-identity: pass")
    assert lines[1].startswith("mass-normalization: FAIL: W = ")
    assert "at B=1000000.0" in lines[1]


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_console_entry_point_subprocess(tmp_path):
    env = child_env(DIVBOUND_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "divbound.cli", "bound", "--family", "two-fork",
         "--budget", "1e3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    # alpha=10 retains only the (1,1,1) triple below budget 1024
    assert doc["lower"] == pytest.approx(0.5, abs=1e-15)
    assert os.path.exists(os.path.join(str(tmp_path), "blocks.tsv"))


def test_env_node_limit_subprocess():
    env = child_env(DIVBOUND_NODE_LIMIT="1")
    proc = subprocess.run(
        [sys.executable, "-m", "divbound.cli", "bound", "--family", "two-fork",
         "--budget", "1e8"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert "error" in proc.stderr


@pytest.mark.parametrize("raw", ["abc", "1e6"])
def test_env_node_limit_malformed_subprocess(raw):
    env = child_env(DIVBOUND_NODE_LIMIT=raw)
    proc = subprocess.run(
        [sys.executable, "-m", "divbound.cli", "bound", "--family", "two-fork",
         "--budget", "1e8"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert f"DIVBOUND_NODE_LIMIT must be a positive integer, got {raw!r}" in proc.stderr


def test_env_node_limit_malformed_with_filled_cache_subprocess(tmp_path):
    cache = str(tmp_path / "blocks.tsv")
    args = [sys.executable, "-m", "divbound.cli", "bound", "--family", "two-fork",
            "--budget", "1e6", "--cache", cache]
    assert subprocess.run(args, capture_output=True, env=child_env()).returncode == 0
    # every block of the second run is read from the file, none is solved
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env(DIVBOUND_NODE_LIMIT="abc"))
    assert proc.returncode == 2
    assert "DIVBOUND_NODE_LIMIT must be a positive integer, got 'abc'" in proc.stderr
