import contextlib
import hashlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rootforge import CartanMatrix, NotFiniteType
from rootforge.cli import main
from rootforge.pisys import BFS_BUDGET_ENV


# sha256 of the whole `verify-paper --json` report, trailing newline included
VERIFY_PAPER_SHA256 = "dc592edafa6e508c9c598d44a0108399a3e01a74dcc36285b31cfb0741add439"


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
        assert hashlib.sha256(out1.encode()).hexdigest() == VERIFY_PAPER_SHA256

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
            (["build", "--system-file", "{file}"], '{"cartan": [[2,-1.9],[-1,2]]}', {}),
            (["build", "--system-file", "{file}"], '{"family": "A", "rank": 2.7}', {}),
            (["build", "--system-file", "{file}"], '{"cartan": [[2,-1],[-1,1e400]]}', {}),
            (["pisystem", "generate", "--family", "A", "--rank", "2", "--gens", "[1.9,0]"],
             None, {}),
            (["pisystem", "generate", "--family", "A", "--rank", "2", "--gens", '["1",0]'],
             None, {}),
            (["pisystem", "generate", "--family", "A", "--rank", "2", "--gens", "[1e400,0]"],
             None, {}),
            (["pisystem", "generate", "--family", "A", "--rank", "2", "--gens-file", "{file}"],
             '{"pi_system": [[1e400,0]]}', {}),
            (["wdd", "push", "--family", "A", "--rank", "2", "--embedding", "{file}",
              "--coroot", "1"], '{"embedding": [[1e400,0]]}', {}),
            (["build", "--family", "E", "--rank", "3"], None, {}),
        ],
        ids=["gens-missing-key", "system-not-json", "system-missing-key",
             "embedding-wrong-shape", "weights-zero-denominator", "budget-not-integer",
             "cartan-not-integer", "rank-not-integer", "cartan-overflow",
             "gens-not-integer", "gens-string", "gens-overflow", "gens-file-overflow",
             "embedding-overflow", "e-rank-3"],
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


# --------------------------------------------------------------------------
# Fuzzed argv and input files: the exit-code contract holds for every input.

BIG = "@big"  # written into JSON text as 1e400, which JSON reads as infinity
JUNK = st.sampled_from([1.5, BIG, "1", "x", None, True, [0], {}])
FAMILIES = ["A", "B", "C", "D", "E"]


def _json_text(value) -> str:
    return json.dumps(value).replace(json.dumps(BIG), "1e400")


def _or_junk(draw, good, odds=5):
    """``good``, or junk in one draw out of ``odds``."""
    return draw(JUNK) if draw(st.integers(1, odds)) == odds else good


def _vectors(draw, n):
    """1-3 coefficient vectors: mostly distinct +-simple roots, else entries in {-1, 0, 1, 2}."""
    out = []
    nodes = draw(st.permutations(range(n)))
    for i in nodes[:draw(st.integers(1, min(3, n)))]:
        if draw(st.integers(1, 4)) < 4:
            sign = draw(st.sampled_from([1, -1]))
            out.append([sign * int(j == i) for j in range(n)])
        else:
            out.append([_or_junk(draw, draw(st.sampled_from([0, 1, -1, 2])), 40)
                        for _ in range(draw(st.sampled_from([n, n, n + 1])))])
    return out


def _numbers_text(draw, n) -> str:
    values = [_or_junk(draw, draw(st.sampled_from(["0", "1", "-1", "2", "1/2"])), 20)
              for _ in range(draw(st.sampled_from([n, n, n, n - 1])))]
    return ",".join(str(v) for v in values)


def _system_file(draw, family, n):
    if draw(st.booleans()):
        return {"family": family, "rank": _or_junk(draw, n)}
    try:
        cartan = [list(row) for row in CartanMatrix.from_family(family, n).entries]
    except NotFiniteType:
        cartan = [[2]]
    i, j = draw(st.integers(0, len(cartan) - 1)), draw(st.integers(0, len(cartan) - 1))
    cartan[i][j] = _or_junk(draw, cartan[i][j], 2)
    return {"cartan": cartan}


@st.composite
def _argv(draw):
    """(argv, file contents by placeholder) over the documented subcommands."""
    family = _or_junk(draw, draw(st.sampled_from(FAMILIES)), 10)
    n = draw(st.integers(1, 4))
    files = {}
    if draw(st.booleans()):
        files["{system}"] = _json_text(_or_junk(draw, _system_file(draw, str(family), n), 10))
        system = ["--system-file", "{system}"]
    else:
        system = ["--family", str(family), "--rank", str(_or_junk(draw, n, 10))]

    command = draw(st.sampled_from(["build", "pisystem", "wdd", "catalog", "verify-paper"]))
    if command == "build":
        argv = ["build"] + system
    elif command == "pisystem":
        action = draw(st.sampled_from(["check", "generate", "rebase", "name", "equiv"]))
        argv = ["pisystem", action] + system + ["--mark", str(draw(st.integers(0, n + 1)))]
        if draw(st.booleans()):
            files["{file}"] = _json_text({"pi_system": _vectors(draw, n)})
            argv += ["--gens-file", "{file}"]
        else:
            argv += ["--gens", ";".join(_json_text(v) for v in _vectors(draw, n))]
        argv += ["--gens-b", ";".join(_json_text(v) for v in _vectors(draw, n))]
    elif command == "wdd":
        action = draw(st.sampled_from(["weights", "dominate", "admissible", "push"]))
        argv = ["wdd", action] + system + ["--weights", _numbers_text(draw, n)]
        if action in ("weights", "push"):
            argv += ["--coroot", _numbers_text(draw, n if action == "weights" else 2)]
        if action == "push":
            files["{file}"] = _json_text({"embedding": _vectors(draw, n)})
            argv += ["--embedding", "{file}"]
    elif command == "catalog":
        argv = ["catalog", draw(st.sampled_from(["list", "chains"])), "--ambient",
                draw(st.sampled_from(["e6(-14)", "su(2,2)", "su(1,3)", "su(2,3)", "so*(8)",
                                      "so(6,2)", "sp(4,R)", "su(0,2)", "x"])),
                "--target", draw(st.sampled_from(["su(2,2)", "su(1,1)", "su(1,2)", "so*(8)",
                                                  "e6(-14)", "x"])),
                "--depth", str(draw(st.integers(-1, 3)))]
    else:
        argv = ["verify-paper"]
        if draw(st.booleans()):
            argv += ["--only", draw(st.sampled_from(["roots", "lemma31", "admissible",
                                                     "chains", "catalog", "filters", "nope"]))]
    if draw(st.booleans()):
        argv.append("--json")
    for key in files:
        if draw(st.integers(1, 10)) == 10:
            files[key] = draw(st.sampled_from(["not json", "", "[[[1]]]", "5"]))
    return argv, files


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_argv(), budget=st.sampled_from([None, None, None, "abc", "0", "5"]))
def test_fuzzed_input_keeps_exit_contract(tmp_path_factory, case, budget):
    argv, files = case
    directory = tmp_path_factory.mktemp("fuzz")
    for key, contents in files.items():
        path = directory / key.strip("{}")
        path.write_text(contents)
        argv = [str(path) if a == key else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(BFS_BUDGET_ENV, None)
        if budget is not None:
            os.environ[BFS_BUDGET_ENV] = budget
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert argv[0] == "verify-paper" or argv[:2] == ["pisystem", "equiv"], argv
