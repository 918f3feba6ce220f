import json

import pytest

from z2schur import cli, hadamard as hd, weight_ring as wr


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_ring_verify_ok(capsys):
    code, payload = run_json(capsys, "ring", "verify", "--n", "5")
    assert code == 0
    assert payload["n"] == 5
    assert payload["product_ok"] and payload["lambda_ok"]
    assert payload["counterexamples"] == []


def test_ssets_complete_single_weight(capsys):
    code, payload = run_json(capsys, "ssets", "complete", "--n", "8", "--a", "4")
    assert code == 0
    assert [(r["parity"], tuple(r["members"])) for r in payload] == \
        [("even", (2, 4, 6)), ("odd", (3, 5))]


def test_ssets_complete_csv(capsys):
    code, out, err = run(capsys, "ssets", "complete", "--n", "4", "--a", "2",
                         "--format", "csv")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "a,parity,order,members"
    assert lines[1] == "2,even,1,2"
    assert lines[2] == "2,odd,2,1 3"


def test_ssets_complete_sweep_covers_all_targets(capsys):
    code, payload = run_json(capsys, "ssets", "complete", "--n", "6")
    assert code == 0
    targets = {r["a"] for r in payload}
    assert targets == {0, 2, 4, 6}  # odd n - a leaves no room for a set


def test_orbits_census_json(capsys):
    code, payload = run_json(capsys, "orbits", "census", "--n", "6",
                             "--group", "C")
    assert code == 0
    assert payload["n"] == 6 and payload["group"] == "C"
    assert payload["total"] == 14
    assert sum(payload["by_period"].values()) == 14


def test_orbits_census_csv(capsys):
    code, out, _ = run(capsys, "orbits", "census", "--n", "6",
                       "--group", "C", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "period,count,sym,asym"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 14


def test_autocorr_text(capsys):
    code, out, _ = run(capsys, "autocorr", "--seq", "+---", "--format", "text")
    assert code == 0
    assert "theta:" in out and "sum_ok: True" in out


def test_autocorr_json(capsys):
    code, payload = run_json(capsys, "autocorr", "--seq", "+---")
    assert code == 0
    assert payload["theta"] == [4, 0, 0, 0]
    assert payload["sum_ok"] is True


def test_hadamard_check_builtin(capsys):
    code, payload = run_json(capsys, "hadamard", "check", "--builtin", "h12")
    assert code == 0
    assert payload == {"m": 12, "hadamard": True}


def test_hadamard_check_file_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(hd.border_core(hd.paley_core(7)).render() + "\n")
    code, payload = run_json(capsys, "hadamard", "check", "--file", str(good))
    assert code == 0 and payload["hadamard"]

    rows = hd.border_core(hd.paley_core(7)).render().splitlines()
    rows[1] = rows[1][:-1] + ("+" if rows[1][-1] == "-" else "-")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(rows) + "\n")
    code, payload = run_json(capsys, "hadamard", "check", "--file", str(bad))
    assert code == 1
    assert payload["hadamard"] is False
    assert payload["witness"]["rows"] == [0, 1]
    assert payload["witness"]["dot"] != 0


def test_hadamard_check_missing_file(capsys):
    code, out, err = run(capsys, "hadamard", "check", "--file", "/no/such/file")
    assert code == 2 and err.startswith("error:")


def test_hadamard_search_deterministic(capsys):
    code, one = run_json(capsys, "hadamard", "search-circulant",
                         "--order", "16")
    assert code == 0
    code, two = run_json(capsys, "hadamard", "search-circulant",
                         "--order", "16")
    assert code == 0
    for d in (one, two):
        del d["runtime_ms"]
    assert one == two
    assert one["candidates_tested"] == 16016 and one["found"] == []


def test_hadamard_paley_renders_matrix(capsys):
    code, out, err = run(capsys, "hadamard", "paley", "--p", "7")
    assert code == 0 and err == ""
    assert out.rstrip("\n") == hd.border_core(hd.paley_core(7)).render()


def test_hadamard_paley_bad_order(capsys):
    code, _, err = run(capsys, "hadamard", "paley", "--p", "5")
    assert code == 2 and "error:" in err


def test_hadamard_verdict(capsys):
    code, payload = run_json(capsys, "hadamard", "verdict", "--n", "3",
                             "--r", "1", "--a", "2", "--kind", "sym")
    assert code == 0
    assert payload["verdict"] == "excluded-by-parity"
    assert payload["parameters"] == {"n": 3, "r": 1, "a": 2}
    assert "certificate" in payload


def test_verdict_csv_unavailable(capsys):
    code, _, err = run(capsys, "hadamard", "verdict", "--n", "3", "--r", "1",
                       "--a", "2", "--kind", "sym", "--format", "csv")
    assert code == 2 and "csv" in err.lower()


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "theta.json"
    code, out, _ = run(capsys, "autocorr", "--seq", "+---",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["theta"] == [4, 0, 0, 0]


def test_reproduce_small_depth(capsys, tmp_path):
    reports = tmp_path / "reports"
    code, out, _ = run(capsys, "reproduce-paper", "--max-n", "4",
                       "--out", str(reports))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("reports written to")
    assert lines[-2] == "12/12 criteria passed"
    assert sum(1 for l in lines if l.startswith("PASS")) == 12
    assert (reports / "hadamard.json").exists()
    payload = json.loads((reports / "weight_ring.json").read_text())
    assert all(c["passed"] for c in payload["criteria"])


def test_invalid_sequence_exits_two(capsys):
    code, _, err = run(capsys, "autocorr", "--seq", "+x-")
    assert code == 2 and err.startswith("error:")


def test_orbits_census_refuses_empty_length(capsys):
    code, out, err = run(capsys, "orbits", "census", "--n", "0", "--group", "C")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_ring_verify_refuses_lengths_below_one(capsys, n):
    code, out, err = run(capsys, "ring", "verify", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: sequence length must be at least 1, got {n}\n"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_reproduce_refuses_depths_below_one(capsys, monkeypatch, tmp_path, max_n):
    calls = []
    monkeypatch.setattr(wr, "verify_ring", calls.append)
    reports = tmp_path / "reports"
    code, out, err = run(capsys, "reproduce-paper", "--max-n", max_n,
                         "--out", str(reports))
    assert code == 2 and out == ""
    assert err == f"error: max_n must be at least 1, got {max_n}\n"
    assert calls == [] and not reports.exists()


def test_csv_refused_before_the_work(capsys, monkeypatch):
    calls = []
    real = wr.verify_ring

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(wr, "verify_ring", spy)
    code, out, err = run(capsys, "ring", "verify", "--n", "12", "--format", "csv")
    assert code == 2 and out == "" and "csv" in err.lower()
    assert calls == []
