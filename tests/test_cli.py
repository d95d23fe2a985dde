import json
import sys

import pytest

from pathcoalg.cli import main
from pathcoalg.coalgebra import path_coalgebra

from test_coalgebra import covering_example, square_tilde, two_loop_subcoalgebra

# Python caps int() at this many digits; 0 means no cap
INT_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


class TestVerifyHopf:
    def test_pass(self, capsys):
        code, out = run_cli(
            capsys, "verify-hopf", "-m", "0", "-n", "0", "--lambda", "1",
            "--s", "1", "--t", "1", "--k", "5", "-N", "1",
        )
        assert code == 0
        assert out["ok"] is True
        assert out["params"]["s"] == "1"

    def test_lambda_order_violation(self, capsys):
        code, out = run_cli(
            capsys, "verify-hopf", "-m", "4", "-n", "2", "--lambda", "z3",
        )
        assert code == 2
        assert out["error"] == "LambdaOrderViolation"

    def test_forbidden_pair(self, capsys):
        code, out = run_cli(capsys, "verify-hopf", "-m", "1", "-n", "1")
        assert code == 2
        assert out["error"] == "ForbiddenPair"

    def test_negative_radius(self, capsys):
        code, out = run_cli(capsys, "verify-hopf", "-m", "0", "-n", "0", "-N", "-1")
        assert code == 2
        assert out["error"] == "WindowTooSmall"


class TestClassify:
    def test_family_5a(self, capsys):
        code, out = run_cli(
            capsys, "classify", "-m", "0", "-n", "0", "--lambda", "1",
            "--s", "4", "--t", "9",
        )
        assert code == 0
        assert out["family"] == "5A"
        assert out["witness"] == {"kind": "phi", "alpha": "2", "beta": "3"}

    def test_family_5b(self, capsys):
        code, out = run_cli(
            capsys, "classify", "-m", "0", "-n", "0", "--lambda", "1",
            "--s", "1", "--t", "1", "--k", "2",
        )
        assert code == 0
        assert out["family"] == "5B"

    def test_not_discrete(self, capsys):
        code, out = run_cli(capsys, "classify", "-m", "2", "-n", "2")
        assert code == 2
        assert out["error"] == "NotDiscreteParams"


class TestIso:
    def test_isomorphic(self, capsys):
        code, out = run_cli(
            capsys, "iso", "-m", "0", "-n", "0", "--s", "4", "--t", "9",
            "-m2", "0", "-n2", "0", "--s2", "1", "--t2", "1",
        )
        assert code == 0
        assert out["isomorphic"] is True
        assert out["witness"]["alpha"] == "2"

    def test_self(self, capsys):
        code, out = run_cli(
            capsys, "iso", "-m", "2", "-n", "0", "-m2", "2", "-n2", "0",
        )
        assert code == 0
        assert out["witness"] == {"kind": "phi", "alpha": "1", "beta": "1"}

    def test_not_isomorphic(self, capsys):
        code, out = run_cli(
            capsys, "iso", "-m", "2", "-n", "0", "-m2", "4", "-n2", "2",
        )
        assert code == 1
        assert out == {"isomorphic": False}


class TestAut:
    def test_d4_row(self, capsys):
        code, out = run_cli(
            capsys, "aut", "-m", "2", "-n", "-2", "--lambda", "1",
            "--s", "1", "--t", "1",
        )
        assert code == 0
        assert out["group_name"] == "D_4"
        assert out["includes_swap"] is True

    def test_not_canonical(self, capsys):
        code, out = run_cli(
            capsys, "aut", "-m", "0", "-n", "0", "--s", "4", "--t", "1",
        )
        assert code == 2
        assert out["error"] == "NotCanonical"


class TestEnumerate:
    def test_nine_simples(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "-m", "0", "-n", "0", "-N", "1",
            "--max-dim", "1",
        )
        assert code == 0
        assert out["discrete"] is True
        assert out["count"] == 9
        assert all(m["kind"] == "simple" for m in out["modules"])

    def test_not_discrete_band_witness(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-m", "2", "-n", "2")
        assert code == 1
        assert out["discrete"] is False
        assert len(out["witness"]["modules"]) == 3
        assert out["witness"]["pairwise_hom_orthogonal"] is True

    def test_folded_stable_counts(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "-m", "3", "-n", "1", "-N", "2",
            "--max-dim", "4",
        )
        assert code == 0
        code2, out2 = run_cli(
            capsys, "enumerate", "-m", "3", "-n", "1", "-N", "2",
            "--max-dim", "4",
        )
        assert out == out2  # deterministic


class TestQuiver:
    def test_a3_dynkin(self, capsys, tmp_path):
        f = tmp_path / "a3.quiver"
        f.write_text("v 1\nv 2\nv 3\na al 1 2\na be 2 3\n")
        code, out = run_cli(capsys, "quiver", str(f))
        assert code == 0
        assert out["graph_class"] == "A3"
        assert out["nondynkin_cover"] is None
        assert out["verdict"] == "no obstruction found"

    def test_kronecker(self, capsys, tmp_path):
        f = tmp_path / "kron.quiver"
        f.write_text("v 1\nv 2\na al 1 2\na be 1 2\n")
        code, out = run_cli(capsys, "quiver", str(f))
        assert code == 0
        assert out["graph_class"] == "A~1"
        # degrees count neighbours, not arrows
        assert out["degrees"] == {"1": {"out": 1, "in": 0, "loops": 0},
                                  "2": {"out": 0, "in": 1, "loops": 0}}

    @pytest.mark.parametrize("bound, verdict", [("0", "no obstruction found"),
                                                ("1", "no obstruction found"),
                                                ("2", "infinite type")])
    def test_kronecker_cover_bound(self, capsys, tmp_path, bound, verdict):
        # the cover has two vertices, so bounds 0 and 1 find none
        f = tmp_path / "kron.quiver"
        f.write_text("v 1\nv 2\na a 1 2\na b 1 2\n")
        code, out = run_cli(capsys, "quiver", str(f), "--bound", bound)
        assert code == 0
        assert out["verdict"] == verdict
        assert (out["nondynkin_cover"] is None) == (bound != "2")

    def test_three_arrows_cover(self, capsys, tmp_path):
        # one vertex, three loops: a cover with non-Dynkin underlying graph
        f = tmp_path / "loops.quiver"
        f.write_text("v 1\na x 1 1\na y 1 1\na z 1 1\n")
        code, out = run_cli(capsys, "quiver", str(f), "--bound", "6")
        assert code == 0
        assert out["nondynkin_cover"] is not None
        assert out["verdict"] == "infinite type"

    @pytest.mark.parametrize("name, text", [("empty.quiver", ""),
                                            ("empty.json", '{"vertices": [], "arrows": []}')])
    def test_no_vertices(self, capsys, tmp_path, name, text):
        # check_homogeneous once returned no per_vertex key on an empty
        # quiver, and the command died with a KeyError traceback
        f = tmp_path / name
        f.write_text(text)
        code, out = run_cli(capsys, "quiver", str(f))
        assert code == 0
        assert out == {"graph_class": "Disconnected", "is_homogeneous": True, "degrees": {},
                       "nondynkin_cover": None, "verdict": "no obstruction found"}

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.quiver"
        f.write_text("vertex oops\n")
        code, out = run_cli(capsys, "quiver", str(f))
        assert code == 2
        assert out["error"] == "ParseError"


class TestCovering:
    @pytest.fixture
    def files(self, tmp_path):
        c, d, _pi = covering_example()
        dom = tmp_path / "dom.json"
        cod = tmp_path / "cod.json"
        mp = tmp_path / "map.json"
        dom.write_text(json.dumps(c.to_json()))
        cod.write_text(json.dumps(d.to_json()))
        mp.write_text(json.dumps({
            "vertex_map": {"1": "1", "2": "2", "3": "1", "4": "2"},
            "arrow_map": {"bt": "be", "gt": "ga", "at": "al", "dt": "be"},
        }))
        return str(dom), str(cod), str(mp)

    def test_example_covering(self, capsys, files):
        code, out = run_cli(capsys, "covering", *files, "--separability")
        assert code == 0
        assert out["covering"] is True
        assert out["separability"] is True

    def test_identity(self, capsys, tmp_path):
        d = two_loop_subcoalgebra()
        f = tmp_path / "c.json"
        f.write_text(json.dumps(d.to_json()))
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps({
            "vertex_map": {v: v for v in d.quiver.vertices},
            "arrow_map": {a[0]: a[0] for a in d.quiver.arrows},
        }))
        code, out = run_cli(capsys, "covering", str(f), str(f), str(mp),
                            "--separability")
        assert code == 0
        assert out["covering"] is True

    def test_glued_counterexample(self, capsys, tmp_path):
        # folding the square onto a single two-loop vertex merges diamonds
        q = square_tilde()
        c = path_coalgebra(q, 2)
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps(c.to_json()))
        loop = {
            "vertices": ["1"],
            "arrows": [["u", "1", "1"], ["w", "1", "1"]],
        }
        from pathcoalg.quiver import Quiver
        from pathcoalg.coalgebra import path_coalgebra as pc
        cod_c = pc(Quiver(loop["vertices"], [tuple(a) for a in loop["arrows"]]), 2)
        cod = tmp_path / "cod.json"
        cod.write_text(json.dumps(cod_c.to_json()))
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps({
            "vertex_map": {"1": "1", "2": "1", "3": "1", "4": "1"},
            "arrow_map": {"bt": "u", "gt": "w", "at": "w", "dt": "u"},
        }))
        code, out = run_cli(capsys, "covering", str(dom), str(cod), str(mp))
        assert code == 1
        assert out["covering"] is False
        assert out["report"]["counterexample"] is not None


class TestMalformedInput:
    def test_zero_denominator(self, capsys):
        code, out = run_cli(capsys, "classify", "-m", "0", "-n", "0", "--s", "1/0", "--t", "1")
        assert code == 2
        assert out["error"] == "ParseError"

    def test_conductor_past_the_cap(self, capsys):
        code, out = run_cli(capsys, "classify", "-m", "0", "-n", "0", "--lambda", "z100000")
        assert code == 2
        assert out["error"] == "CapacityExceeded"

    def test_square_root_past_the_promotion_bound(self, capsys):
        # the witness root needs conductor 11964: this exited 0 with a
        # witness that verify_witness could not multiply
        code, out = run_cli(capsys, "classify", "-m", "0", "-n", "0", "--s", "-z997*z3")
        assert code == 2
        assert out == {"detail": "conductor 11964 exceeds 4000", "error": "CapacityExceeded"}

    @pytest.mark.skipif(not INT_DIGIT_CAP, reason="int() has no digit cap here")
    @pytest.mark.parametrize("scalar", ["1" * 5000, "z4^" + "1" * 5000],
                             ids=["rational", "root-exponent"])
    def test_over_long_literal(self, capsys, scalar):
        # int() refuses it; this was a traceback and exit 1, a "no" verdict's code
        scalar += "1" * max(0, INT_DIGIT_CAP + 1 - 5000)
        code, out = run_cli(capsys, "classify", "-m", "0", "-n", "0", "--s", scalar, "--t", "1")
        assert code == 2
        assert out["error"] == "ParseError"
        assert out["detail"].startswith("too many digits in '")

    @pytest.mark.parametrize("basis", [None, [[["e_1"]]], [[["e_1", "1"], ["e_1", "2"]]],
                                       [[[5, "1"]]]],
                             ids=["no-basis", "no-scalar", "path-twice", "path-number"])
    def test_malformed_coalgebra_file(self, capsys, tmp_path, basis):
        # a number as a path was an AttributeError traceback and exit 1
        data = two_loop_subcoalgebra().to_json()
        if basis is None:
            del data["basis"]
        else:
            data["basis"] = basis
        f = tmp_path / "c.json"
        f.write_text(json.dumps(data))
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps({"vertex_map": {}, "arrow_map": {}}))
        code, out = run_cli(capsys, "covering", str(f), str(f), str(mp))
        assert code == 2
        assert out["error"] == "ParseError"

    @pytest.mark.parametrize("fold", [
        {"vertex_map": {}},
        {"vertex_map": {"1": ["1"], "2": "2"}, "arrow_map": {"al": "al", "be": "be", "ga": "ga"}},
        {"vertex_map": {"1": "1", "2": "2"}, "arrow_map": {"al": "al", "be": {"x": 1}, "ga": "ga"}},
        {"vertex_map": [["1", "1"], ["2", "2"]], "arrow_map": {"al": "al", "be": "be", "ga": "ga"}},
        [],
    ], ids=["no-arrow-map", "list-image", "object-image", "vertex-pairs", "not-an-object"])
    def test_malformed_map_file(self, capsys, tmp_path, fold):
        # a list or object image was a TypeError traceback and exit 1, a "no"
        # verdict's code; a vertex_map of pairs was read as a dict, exit 0
        f = tmp_path / "c.json"
        f.write_text(json.dumps(two_loop_subcoalgebra().to_json()))
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(fold))
        code, out = run_cli(capsys, "covering", str(f), str(f), str(mp))
        assert code == 2
        assert out["error"] == "ParseError"

    @pytest.mark.parametrize("data", [
        {"vertices": ["a", "b"], "arrows": [[1, "a", "b"], ["x", "b", "a"]]},
        {"vertices": [1, "b"], "arrows": [["p", 1, "b"], ["q", "b", 1]]},
        {"vertices": "ab", "arrows": [["p", "a", "b"]]},
        {"vertices": ["a", "b"], "arrows": ["pab"]},
    ], ids=["int-arrow-id", "int-vertex", "vertex-string", "arrow-string"])
    def test_quiver_field_types(self, capsys, tmp_path, data):
        # integer labels were a TypeError traceback and exit 1, a "no"
        # verdict's code; strings were read as lists of characters, exit 0
        f = tmp_path / "q.json"
        f.write_text(json.dumps(data))
        code, out = run_cli(capsys, "quiver", str(f))
        assert code == 2
        assert out["error"] == "ParseError"

    def test_quiver_arrow_without_target(self, capsys, tmp_path):
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"vertices": ["1"], "arrows": [["al", "1"]]}))
        code, out = run_cli(capsys, "quiver", str(f))
        assert code == 2
        assert out["error"] == "ParseError"


class TestArguments:
    @pytest.mark.parametrize("separate, attached", [
        ("classify -m 0 -n 0 --s -1/4 --t 1", "classify -m 0 -n 0 --s=-1/4 --t 1"),
        ("classify -m 0 -n 0 --s -z4 --t 1", "classify -m 0 -n 0 --s=-z4 --t 1"),
        ("iso -m 0 -n 0 --s 1 --t 1 --k 1 -m2 0 -n2 0 --s2 1 --t2 1 --k2 -5/3",
         "iso -m 0 -n 0 --s 1 --t 1 --k 1 -m2 0 -n2 0 --s2 1 --t2 1 --k2=-5/3"),
        ("verify-hopf -m 2 -n 0 --lambda -1 --s -1/2 --t -z3 -N 1",
         "verify-hopf -m 2 -n 0 --lambda=-1 --s=-1/2 --t=-z3 -N 1"),
        ("classify -m 0 -n 0 --lam -z4", "classify -m 0 -n 0 --lam=-z4"),
    ])
    def test_negative_scalar_as_separate_argument(self, capsys, separate, attached):
        code = main(separate.split())
        out = capsys.readouterr().out
        assert (code, out) == (main(attached.split()), capsys.readouterr().out)
        assert code in (0, 1)
        json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["classify", "-n", "0"],
        ["classify", "-m", "0", "-n", "0", "--bogus", "1"],
        ["classify", "-m", "zero", "-n", "0"],
        ["frobnicate"],
    ])
    def test_usage_error_is_json(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"] == "UsageError"
        assert out["detail"]
