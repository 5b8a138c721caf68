import json

import pytest

from rootforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_e6(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "E", "--rank", "6")
        assert code == 0
        assert "72 roots" in out

    def test_a1(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "A", "--rank", "1")
        assert code == 0
        assert "2 roots" in out

    def test_e9_rejected(self, capsys):
        code, _, err = run(capsys, "build", "--family", "E", "--rank", "9")
        assert code == 2
        assert "NotFiniteType" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "E", "--rank", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"rank": 6, "roots": 72, "positive_roots": 36}

    def test_system_file(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"family": "A", "rank": 3}))
        code, out, _ = run(capsys, "build", "--system-file", str(path))
        assert code == 0
        assert "12 roots" in out


class TestPiSystem:
    def test_name_su22(self, capsys):
        code, out, _ = run(
            capsys, "pisystem", "name", "--family", "E", "--rank", "6",
            "--mark", "1",
            "--gens", "[0,1,2,2,1,1];[1,0,0,0,0,0];[0,1,0,0,0,0]",
        )
        assert code == 0
        assert out.strip() == "su(2,2)"

    def test_name_from_file(self, capsys, tmp_path):
        path = tmp_path / "pi.json"
        path.write_text(json.dumps(
            {"pi_system": [[0, 1, 2, 2, 1, 1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]}
        ))
        code, out, _ = run(
            capsys, "pisystem", "name", "--family", "E", "--rank", "6",
            "--mark", "1", "--gens-file", str(path),
        )
        assert code == 0
        assert out.strip() == "su(2,2)"

    def test_check_dependent_exits_2(self, capsys):
        code, _, err = run(
            capsys, "pisystem", "check", "--family", "E", "--rank", "6",
            "--gens", "[1,0,0,0,0,0];[-1,0,0,0,0,0]",
        )
        assert code == 2
        assert "LinearlyDependent" in err

    def test_generate(self, capsys):
        code, out, _ = run(
            capsys, "pisystem", "generate", "--family", "E", "--rank", "6",
            "--gens", "[0,1,2,2,1,1];[1,0,0,0,0,0];[0,1,0,0,0,0]", "--json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_rebase(self, capsys):
        code, out, _ = run(
            capsys, "pisystem", "rebase", "--family", "E", "--rank", "6",
            "--mark", "1", "--gens", "[-1,0,0,0,0,0]",
        )
        assert code == 0
        assert "noncompact" in out

    def test_equiv_witness(self, capsys):
        code, out, _ = run(
            capsys, "pisystem", "equiv", "--family", "E", "--rank", "6",
            "--gens", "[0,1,2,1,0,1];[1,0,0,0,0,0];[0,1,0,0,0,0]",
            "--gens-b", "[0,1,2,2,1,1];[1,0,0,0,0,0];[0,1,0,0,0,0]",
        )
        assert code == 0
        assert "witness word" in out

    def test_equiv_inequivalent_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "pisystem", "equiv", "--family", "E", "--rank", "6",
            "--gens", "[1,0,0,0,0,0];[0,1,0,0,0,0];[0,0,1,0,0,0]",
            "--gens-b", "[1,0,0,0,0,0];[0,0,1,0,0,0];[0,0,0,0,1,0]",
        )
        assert code == 1
        assert "not Weyl-equivalent" in out


class TestWdd:
    def test_dominate(self, capsys):
        code, out, _ = run(
            capsys, "wdd", "dominate", "--family", "E", "--rank", "6",
            "--weights", "2,-4,1,3,0,0",
        )
        assert code == 0
        assert out.strip() == "1,0,0,0,1;2"

    def test_dominate_negative_leading_entry(self, capsys):
        code, out, _ = run(
            capsys, "wdd", "dominate", "--family", "E", "--rank", "6",
            "--weights=-2,4,-3,3,0,0",
        )
        assert code == 0
        assert out.strip() == "1,0,0,0,1;2"

    def test_dominate_fixed_point(self, capsys):
        code, out, _ = run(
            capsys, "wdd", "dominate", "--family", "E", "--rank", "6",
            "--weights", "0,0,0,0,0,0",
        )
        assert code == 0
        assert out.strip() == "0,0,0,0,0;0"

    def test_admissible_false(self, capsys):
        code, out, _ = run(
            capsys, "wdd", "admissible", "--family", "E", "--rank", "6",
            "--weights", "2,0,0,0,2,4",
        )
        assert code == 0
        assert out.strip() == "false"

    def test_weights(self, capsys):
        code, out, _ = run(
            capsys, "wdd", "weights", "--family", "E", "--rank", "6",
            "--coroot", "2,2,6,6,3,3",
        )
        assert code == 0
        assert out.strip() == "2,-4,1,3,0;0"

    def test_push(self, capsys, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({
            "embedding": [
                [0, 1, 2, 2, 1, 1],
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
            ]
        }))
        code, out, _ = run(
            capsys, "wdd", "push", "--family", "E", "--rank", "6",
            "--embedding", str(path), "--coroot", "3,2,-1",
        )
        assert code == 0
        assert out.strip() == "2,2,6,6,3,3"


class TestCatalogCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--ambient", "e6(-14)")
        assert code == 0
        assert "su(2,4)" in out and "so*(10)" in out

    def test_chains_json(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "chains", "--ambient", "e6(-14)",
            "--target", "su(2,2)", "--depth", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["chains"]) == 6

    def test_bad_ambient_exits_2(self, capsys):
        code, _, err = run(capsys, "catalog", "list", "--ambient", "sp(4,R)")
        assert code == 2
        assert "UnsupportedAmbient" in err


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify-paper", "--json")
        code2, out2, _ = run(capsys, "verify-paper", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["overall"] == "pass"

    def test_only_filter(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "lemma31")
        assert code == 0
        assert "lemma31/" in out
        assert "catalog/" not in out

    def test_unknown_group_exits_2(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--only", "nope")
        assert code == 2


class TestUsage:
    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "build")
        assert code == 2

    def test_bad_vector(self, capsys):
        code, _, err = run(
            capsys, "pisystem", "check", "--family", "A", "--rank", "2",
            "--gens", "nonsense",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,contents,env",
        [
            (["pisystem", "check", "--family", "A", "--rank", "2", "--gens-file", "{file}"],
             '{"x": 1}', {}),
            (["build", "--system-file", "{file}"], "not json", {}),
            (["build", "--system-file", "{file}"], '{"rank": 3}', {}),
            (["wdd", "push", "--family", "A", "--rank", "2", "--embedding", "{file}",
              "--coroot", "1"], '{"embedding": 5}', {}),
            (["wdd", "dominate", "--family", "A", "--rank", "2", "--weights", "1/0,1"],
             None, {}),
            (["pisystem", "equiv", "--family", "A", "--rank", "3", "--gens", "[1,0,0]",
              "--gens-b", "[0,1,0]"], None, {"ROOTFORGE_BFS_BUDGET": "abc"}),
        ],
        ids=["gens-missing-key", "system-not-json", "system-missing-key",
             "embedding-wrong-shape", "weights-zero-denominator", "budget-not-integer"],
    )
    def test_bad_input_exits_2(self, capsys, tmp_path, monkeypatch, argv, contents, env):
        path = tmp_path / "input.json"
        if contents is not None:
            path.write_text(contents)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, _, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ")
