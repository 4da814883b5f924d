import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from stcg import cli
from stcg.cli import main
from stcg.contraction import UnresolvedSingularityError
from stcg.presets import get_preset

JC_DOC = {
    "name": "jc",
    "modes": [
        {"name": "a", "kind": "bosonic", "truncation": 5},
        {"name": "q", "kind": "two_level"},
    ],
    "symbols": {"w": "2pi*1GHz", "g": "2pi*50MHz"},
    "filter": {"kind": "gaussian", "tau": "0.2ns"},
    "terms": [
        {"coupling": "g/2", "frequency": "0", "operator": "a*sp"},
        {"coupling": "g/2", "frequency": "0", "operator": "a'*sm"},
        {"coupling": "g/2", "frequency": "2*w", "operator": "a*sm"},
        {"coupling": "g/2", "frequency": "-2*w", "operator": "a'*sp"},
    ],
}


REPO = Path(__file__).resolve().parents[1]
BENCH_DATA = REPO / "perfbench" / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "jc.json"
    path.write_text(json.dumps(JC_DOC))
    return str(path)


class TestExitCodes:
    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_usage_error_on_missing_required(self, capsys):
        assert main(["simulate", "--preset", "rabi"]) == 2
        capsys.readouterr()

    def test_validation_error_on_missing_file(self, capsys):
        assert main(["derive", "--model", "/no/such/file.json"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_validation_error_on_bad_params(self, model_path, capsys):
        code = main(
            ["derive", "--model", model_path, "--threshold", "1.0",
             "--params", "nonsense"]
        )
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("window", ["-5ns", "0s"])
    def test_validation_error_on_empty_pruning_window(
        self, window, model_path, capsys
    ):
        code = main(
            ["derive", "--model", model_path, "--order", "1", "--threshold",
             "1", f"--window={window}"]
        )
        assert code == 3
        assert "pruning window must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--params=nonsense", "--params=gg=1", "--window=5ns"]
    )
    def test_validation_error_on_pruning_flag_without_threshold(
        self, flag, capsys
    ):
        code = main(["derive", "--preset", "rabi", "--order", "1", flag])
        assert code == 3
        name = flag.split("=")[0]
        assert f"{name} applies only with --threshold" in (
            capsys.readouterr().err
        )

    def test_validation_error_without_model_source(self, capsys):
        assert main(["derive", "--order", "1"]) == 3
        capsys.readouterr()

    def test_numerical_error_on_unstable_run(self, model_path, tmp_path, capsys):
        import numpy as np

        with np.errstate(all="ignore"):
            code = main(
                ["simulate", "--model", model_path, "--initial", "fock(1)*g",
                 "--t1", "1000ns", "--dt", "0.3ns", "--samples", "11",
                 "--params", "g=2pi*10GHz"]
            )
        assert code == 4
        capsys.readouterr()

    def test_validation_error_on_too_few_samples(self, model_path, capsys):
        code = main(
            ["simulate", "--model", model_path, "--initial", "fock(0)*g",
             "--t1", "1ns", "--samples", "1"]
        )
        assert code == 3
        assert "at least 2 samples" in capsys.readouterr().err

    def test_validation_error_on_negative_fock(self, capsys):
        code = main(
            ["simulate", "--preset", "rabi", "--initial", "fock(-1)*g",
             "--t1", "0.1ns"]
        )
        assert code == 3
        assert "outside truncation" in capsys.readouterr().err

    def test_validation_error_on_non_finite_amplitude(self, capsys):
        code = main(
            ["simulate", "--preset", "rabi", "--initial", "coherent(nan)*e",
             "--t1", "0.1ns"]
        )
        assert code == 3
        assert "must be finite" in capsys.readouterr().err

    def test_validation_error_on_zero_step(self, capsys):
        code = main(
            ["simulate", "--preset", "rabi", "--initial", "fock(0)*e",
             "--t1", "0.1ns", "--dt=0"]
        )
        assert code == 3
        assert "step must be finite and > 0" in capsys.readouterr().err

    def test_validation_error_on_unresolved_singularity(
        self, monkeypatch, capsys
    ):
        def diverging(model, order):
            raise UnresolvedSingularityError("regulator poles survive")

        monkeypatch.setattr(cli, "assemble", diverging)
        assert main(["derive", "--preset", "rabi", "--order", "2"]) == 3
        assert "error: regulator poles survive" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["t", "tau"])
    def test_validation_error_on_reserved_symbol(self, name, capsys):
        doc = get_preset("rabi")
        doc["symbols"][name] = "0.3ns"
        code = main(["derive", "--model", json.dumps(doc), "--order", "1"])
        assert code == 3
        assert f"reserved name(s) ['{name}']" in capsys.readouterr().err

    def test_validation_error_on_non_finite_tau(self, capsys):
        code = main(
            ["derive", "--preset", "rabi", "--order", "2", "--tau=1e400ns"]
        )
        assert code == 3
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_validation_error_on_order_below_one(self, order, capsys):
        code = main(["derive", "--preset", "rabi", "--order", order])
        assert code == 3
        assert "order must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_validation_error_on_bad_threshold(self, threshold, capsys):
        code = main(
            ["derive", "--preset", "rabi", "--order", "1",
             f"--threshold={threshold}"]
        )
        assert code == 3
        assert "threshold must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("coupling", ["foo(g)", "foo(g*t)"])
    def test_validation_error_on_coefficient_that_is_not_a_number(
        self, coupling, capsys
    ):
        doc = dict(JC_DOC, terms=[
            {"coupling": coupling, "frequency": "0", "operator": "a*sp"},
            {"coupling": f"conjugate({coupling})", "frequency": "0",
             "operator": "a'*sm"},
        ])
        text = json.dumps(doc)
        assert main(["derive", "--model", text, "--order", "1"]) == 0
        code = main(
            ["simulate", "--model", text, "--initial", "fock(0)*e",
             "--t1", "0.1ns", "--samples", "3"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"coefficient {coupling} " in err and "frequency 0" in err

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("terms", 0, "frequency"), 0, "frequency must be a string"),
            *(
                (("modes", 0, "truncation"), bad,
                 "truncation must be an integer")
                for bad in ("6", 2.5, 6.0, True)
            ),
            (("filter",), "gaussian", '"filter" must be an object'),
            (("terms", 0, "operator"), 5, "operator must be a string"),
            (("terms", 0, "coupling"), None, "coupling must be a string"),
            (("symbols",), ["w", "g"], '"symbols" must be an object'),
            *(
                ((key,), [1], f'"{key}" must be a list of objects')
                for key in ("modes", "terms", "ramps")
            ),
        ],
    )
    def test_validation_error_on_wrong_typed_field(
        self, path, value, message, capsys
    ):
        doc = json.loads(json.dumps(JC_DOC))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code = main(["derive", "--model", json.dumps(doc), "--order", "1"])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_validation_error_on_undeclared_param(self, model_path, capsys):
        code = main(
            ["simulate", "--model", model_path, "--initial", "fock(0)*e",
             "--t1", "0.1ns", "--samples", "3", "--params", "gg=2GHz"]
        )
        assert code == 3
        assert "declares no symbol(s) ['gg']" in capsys.readouterr().err

    def test_validation_error_on_undeclared_effective_param(
        self, model_path, tmp_path, capsys
    ):
        eff = tmp_path / "eff.json"
        assert main(
            ["derive", "--model", model_path, "--order", "1", "-o", str(eff)]
        ) == 0
        common = ["simulate", "--effective", str(eff), "--initial",
                  "fock(0)*e", "--t1", "0.1ns", "--samples", "3"]
        assert main(
            [*common, "--params", "g=2pi*40MHz,w=2pi*1.1GHz"]
        ) == 0
        capsys.readouterr()
        assert main([*common, "--params", "gg=2GHz"]) == 3
        assert "declares no symbol(s) ['gg']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--params", "tau=0.5ns"]], ids=["params"]
    )
    def test_validation_error_on_tau_of_numeric_tau_effective_model(
        self, flag, capsys
    ):
        # derived at tau = 0.2ns: its coefficients hold tau as numbers
        code = main(
            ["simulate", "--effective", str(BENCH_DATA / "rabi_order1.json"),
             "--initial", "coherent(1)*e", "--t1", "1ns", "--samples", "5",
             *flag]
        )
        assert code == 3
        assert "tau is already numeric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,value",
        [
            (("ramps", 0, "duration"), 5),
            (("ramps", 0, "symbol"), 3),
        ],
        ids=["duration", "symbol"],
    )
    def test_validation_error_on_ramp_field_that_is_not_a_string(
        self, path, value, capsys
    ):
        doc = get_preset("parametron")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code = main(["derive", "--model", json.dumps(doc), "--order", "1"])
        assert code == 3
        assert f'"{path[-1]}" must be a string, got {value}' in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "path,message",
        [
            (("terms", 0, "coupling"), 'model term has no "coupling" field'),
            (("terms", 1, "frequency"), 'model term has no "frequency"'),
            (("terms", 2, "operator"), 'model term has no "operator"'),
            (("modes", 0, "name"), 'model mode has no "name" field'),
            (("modes", 0, "kind"), 'model mode has no "kind" field'),
            (("ramps", 1, "duration"), 'model ramp has no "duration" field'),
        ],
        ids=["coupling", "frequency", "operator", "name", "kind", "duration"],
    )
    def test_validation_error_on_missing_model_field(
        self, path, message, capsys
    ):
        doc = get_preset("parametron")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        code = main(["derive", "--model", json.dumps(doc), "--order", "1"])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,what",
        [
            (("modes",), "effective model"),
            (("hamiltonian",), "effective model"),
            (("dissipators",), "effective model"),
            (("modes", 0, "kind"), "effective model mode"),
            (("hamiltonian", 0, "frequency"), "effective model term"),
            (("hamiltonian", 0, "operator"), "effective model term"),
            (("hamiltonian", 0, "coeff"), "effective model term"),
            (("dissipators", 0, "L"), "effective model term"),
        ],
        ids=["modes", "hamiltonian", "dissipators", "mode-kind",
             "term-frequency", "term-operator", "term-coeff", "term-L"],
    )
    def test_validation_error_on_missing_effective_field(
        self, path, what, tmp_path, capsys
    ):
        doc = json.loads((BENCH_DATA / "rabi_order3.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        eff = tmp_path / "eff.json"
        eff.write_text(json.dumps(doc))
        code = main(
            ["simulate", "--effective", str(eff), "--initial",
             "coherent(1)*e", "--t1", "0.1ns", "--samples", "3"]
        )
        assert code == 3
        assert f'{what} has no "{path[-1]}" field' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,path,value",
        [
            ("rabi_order1.json", ("hamiltonian", 0, "coeff"), 5),
            ("rabi_order1.json", ("order",), "1"),
            ("rabi_order1.json", ("order",), True),
            ("rabi_order1.json", ("order",), 0),
            ("rabi_order3.json", ("dissipators", 0, "rate"), 0.5),
            ("rabi_order3.json", ("dissipators", 0, "L"), None),
            ("rabi_order3.json", ("dissipators", 0, "J"), 3),
            ("rabi_order1.json", ("modes",), [1]),
            ("rabi_order1.json", ("hamiltonian",), [1]),
            ("rabi_order3.json", ("dissipators",), [1]),
            ("rabi_order1.json", ("params",), [1]),
            ("rabi_order1.json", ("params", "g"), True),
            ("rabi_order1.json", ("params", "g"), "2pi*50MHz"),
            ("rabi_order1.json", ("params", "g"), float("inf")),
            pytest.param(
                "rabi_order1.json", ("params", "g"), 10**400,
                id="rabi_order1.json-params-g-huge-int",
            ),
        ],
    )
    def test_validation_error_on_wrong_typed_effective_field(
        self, name, path, value, tmp_path, capsys
    ):
        doc = json.loads((BENCH_DATA / name).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        eff = tmp_path / name
        eff.write_text(json.dumps(doc))
        code = main(
            ["simulate", "--effective", str(eff), "--initial",
             "coherent(1)*e", "--t1", "0.1ns", "--samples", "3"]
        )
        assert code == 3
        assert f'"{path[-1]}" must be' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["derive", "--model"],
            ["simulate", "--initial", "fock(0)*e", "--t1", "0.1ns",
             "--effective"],
        ],
        ids=["derive", "simulate"],
    )
    def test_validation_error_on_document_that_is_not_an_object(
        self, args, tmp_path, capsys
    ):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main([*args, str(path)]) == 3
        assert "must be a json object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "observe,message",
        [
            (["n=a'*a", "n=t(e,e)"], "repeat a column name"),
            (["t=t(e,e)"], "repeat a column name"),
            # <a> is complex here, so its column splits into x_re, x_im
            (["x=a", "x_re=a'*a"], "repeat a column name"),
            (["a,b=a"], "must be a csv column name"),
            (["=a"], "must be a csv column name"),
            ([" =a"], "must be a csv column name"),
            (["x\ny=a"], "must be a csv column name"),
        ],
        ids=["repeated", "time", "split-complex", "comma", "empty", "blank",
             "line-break"],
    )
    def test_validation_error_on_observe_label_collision(
        self, observe, message, model_path, capsys
    ):
        args = ["simulate", "--model", model_path, "--initial",
                "coherent(1)*e", "--t1", "0.1ns", "--samples", "3"]
        for entry in observe:
            args += ["--observe", entry]
        assert main(args) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--initial", "fock(0)*e", "--t1", "0.1ns",
             "--samples", "3"],
            ["derive", "--order", "1", "--threshold", "1.0"],
        ],
        ids=["simulate", "derive"],
    )
    def test_validation_error_on_repeated_param(self, args, model_path, capsys):
        code = main([*args, "--model", model_path, "--params", "g=1GHz,g=2GHz"])
        assert code == 3
        assert "--params names 'g' more than once" in capsys.readouterr().err

    def test_validation_error_on_repeated_compare_column(
        self, tmp_path, capsys
    ):
        ref, test = tmp_path / "ref.csv", tmp_path / "test.csv"
        ref.write_text("t,t\n0,0\n1,1\n")
        test.write_text("t,t\n0,1\n1,0\n")
        assert main(["compare", "--ref", str(ref), "--test", str(test)]) == 3
        assert "repeated column name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"symbols": {"w": 10**400, "g": "2pi*50MHz"}}, "must be finite"),
            ({"filter": {"kind": "gaussian", "tau": 10**400}},
             "must be finite"),
            ({"terms": [
                {"coupling": "g", "frequency": "1/0*w", "operator": "a'"},
                {"coupling": "g", "frequency": "-1/0*w", "operator": "a"},
            ]}, "cannot parse frequency expression '1/0*w'"),
        ],
        ids=["huge-symbol", "huge-tau", "zero-denominator"],
    )
    def test_validation_error_on_bad_model_number(
        self, edit, message, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(JC_DOC, **edit)))
        assert main(["derive", "--model", str(path), "--order", "1"]) == 3
        assert message in capsys.readouterr().err

    def test_validation_error_on_non_finite_time(self, capsys):
        code = main(
            ["simulate", "--preset", "rabi", "--initial", "coherent(1)*g",
             "--t1", "1e400ns", "--samples", "3"]
        )
        assert code == 3
        assert "must be finite" in capsys.readouterr().err


class TestDerive:
    def test_json_stdout(self, model_path, capsys):
        assert main(["derive", "--model", model_path, "--order", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 1
        assert payload["hamiltonian"]
        assert payload["params"]["g"] == pytest.approx(
            2 * 3.141592653589793 * 50e6
        )

    def test_deterministic_output(self, model_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["derive", "--model", model_path, "-o", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_tau_zero_echoes_input(self, model_path, capsys):
        assert main(
            ["derive", "--model", model_path, "--order", "1", "--tau", "0s",
             "--format", "text"]
        ) == 0
        text = capsys.readouterr().out
        # with no filtering every input term survives with unit weight
        assert text.count("coeff g/2") == 4
        assert "freq 2*w" in text and "freq -2*w" in text

    def test_text_format(self, model_path, capsys):
        assert main(
            ["derive", "--model", model_path, "--format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "order" in out.lower() or "H" in out

    def test_rabi_order1_matches_stored_export(self, tmp_path):
        # the order-1 rabi model, byte for byte
        out = tmp_path / "rabi1.json"
        assert main(
            ["derive", "--preset", "rabi", "--order", "1", "-o", str(out)]
        ) == 0
        stored = TEST_DATA / "rabi_order1.json"
        assert out.read_bytes() == stored.read_bytes()

    def test_rabi_order3_matches_stored_export(self, tmp_path):
        # the order-3 rabi model, byte for byte
        out = tmp_path / "rabi3.json"
        assert main(
            ["derive", "--preset", "rabi", "--order", "3", "-o", str(out)]
        ) == 0
        stored = TEST_DATA / "rabi_order3.json"
        assert out.read_bytes() == stored.read_bytes()

    def test_parametron_order1_matches_stored_export(self, tmp_path):
        # pins the ramp limit end to end: the ramped pump's order-1 terms
        out = tmp_path / "parametron1.json"
        assert main(
            ["derive", "--preset", "parametron", "--order", "1", "-o", str(out)]
        ) == 0
        stored = TEST_DATA / "parametron_order1.json"
        assert out.read_bytes() == stored.read_bytes()

    def test_duffing_order2_matches_stored_export(self, tmp_path):
        # pins the order-2 Hamiltonian and dissipators of a static model
        out = tmp_path / "duffing2.json"
        assert main(
            ["derive", "--preset", "duffing", "--order", "2", "-o", str(out)]
        ) == 0
        stored = TEST_DATA / "duffing_order2.json"
        assert out.read_bytes() == stored.read_bytes()

    def test_ramped_squeeze_order1_matches_stored_export(self, tmp_path):
        # pins the ramp limit of a model file: a ramped squeeze drive at
        # +-2*wp beside a static Kerr term
        out = tmp_path / "ramped1.json"
        assert main(
            ["derive", "--model", str(TEST_DATA / "ramped_squeeze.json"),
             "--order", "1", "-o", str(out)]
        ) == 0
        stored = TEST_DATA / "ramped_squeeze_order1.json"
        assert out.read_bytes() == stored.read_bytes()

    def test_python_m_stcg_from_checkout(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "stcg", "derive", "--preset", "rabi",
             "--order", "1"],
            cwd=REPO, env=env, capture_output=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr.decode()
        stored = TEST_DATA / "rabi_order1.json"
        assert run.stdout == stored.read_bytes()

    def test_preset_derive(self, capsys):
        assert main(["derive", "--preset", "rabi", "--order", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hamiltonian"]


class TestSimulateAndCompare:
    def test_exact_and_effective_pipeline(self, model_path, tmp_path, capsys):
        eff_path = tmp_path / "eff.json"
        assert main(
            ["derive", "--model", model_path, "--order", "2",
             "-o", str(eff_path)]
        ) == 0

        ref_csv = tmp_path / "exact.csv"
        test_csv = tmp_path / "eff.csv"
        common = ["--initial", "fock(0)*e", "--t1", "4ns", "--samples", "41",
                  "--observe", "pe=t(e,e)"]
        assert main(
            ["simulate", "--model", model_path, *common, "-o", str(ref_csv)]
        ) == 0
        assert main(
            ["simulate", "--effective", str(eff_path), *common,
             "-o", str(test_csv)]
        ) == 0

        header = ref_csv.read_text().splitlines()[0]
        assert header.startswith("t,pe")

        out_json = tmp_path / "metrics.json"
        assert main(
            ["compare", "--ref", str(ref_csv), "--test", str(test_csv),
             "-o", str(out_json)]
        ) == 0
        metrics = json.loads(out_json.read_text())
        # resonant exchange dominates; the coarse-grained run tracks it
        assert metrics["pe"]["max_abs"] < 0.05

    def test_effective_tau_option(self, tmp_path, capsys):
        # derived with symbolic tau: --params supplies it; simulate has no
        # --tau (it filters nothing on the model path)
        doc = {k: v for k, v in JC_DOC.items() if k != "filter"}
        model = tmp_path / "jc_symbolic.json"
        model.write_text(json.dumps(doc))
        eff = tmp_path / "eff.json"
        assert main(
            ["derive", "--model", str(model), "--order", "1", "-o", str(eff)]
        ) == 0
        common = ["simulate", "--effective", str(eff), "--initial",
                  "fock(0)*e", "--t1", "1ns", "--samples", "11"]
        by_params = tmp_path / "params.csv"
        assert main(
            [*common, "--params", "tau=0.2ns", "-o", str(by_params)]
        ) == 0
        assert by_params.read_text().count("\n") == 12
        assert main([*common, "--tau", "0.2ns"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "--preset", "rabi", "--order", "1", "--threshold",
             "0"],
            ["simulate", "--preset", "rabi", "--initial", "coherent(1)*e",
             "--t1", "0.2ns", "--samples", "3"],
        ],
        ids=["derive", "simulate"],
    )
    def test_tau_override_of_numeric_tau_model(self, argv, capsys):
        # the preset's filter fixes tau = 0.2ns; an override would be
        # recorded but never used
        assert main([*argv, "--params", "tau=0.5ns"]) == 3
        assert "tau is already numeric" in capsys.readouterr().err

    def test_tau_override_of_model_without_tau_coupling(
        self, tmp_path, capsys
    ):
        # tau left symbolic, but the exact integration never reads it
        doc = {k: v for k, v in JC_DOC.items() if k != "filter"}
        model = tmp_path / "jc_symbolic.json"
        model.write_text(json.dumps(doc))
        argv = ["simulate", "--model", str(model), "--initial", "fock(0)*e",
                "--t1", "0.2ns", "--samples", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--params", "tau=0.5ns"]) == 3
        assert "no coupling of the model uses tau" in capsys.readouterr().err

    def test_ramp_entry_that_matches_no_term(self, tmp_path, capsys):
        # nothing is ramped, so the model integrates exactly
        doc = {
            "name": "drive",
            "modes": [{"name": "a", "kind": "bosonic", "truncation": 4}],
            "symbols": {"w": "2pi*1GHz", "g": "2pi*10MHz"},
            "ramps": [{"symbol": "other", "duration": "T"}],
            "terms": [
                {"coupling": "g", "frequency": "w", "operator": "a'"},
                {"coupling": "g", "frequency": "-w", "operator": "a"},
            ],
        }
        model = tmp_path / "drive.json"
        model.write_text(json.dumps(doc))
        assert main(
            ["simulate", "--model", str(model), "--initial", "fock(0)",
             "--t1", "0.2ns", "--samples", "3"]
        ) == 0
        assert capsys.readouterr().out.startswith("t,n_a")

    def test_effective_coefficient_with_functions(self, tmp_path, capsys):
        # the factor cancels on parsing, so the run matches the stored file
        factor = "log(2)*Abs(w)*sin(1)*cos(w*tau)*Min(1, w)"
        doc = json.loads((BENCH_DATA / "rabi_order1.json").read_text())
        for entry in doc["hamiltonian"]:
            if entry["coeff"] == "g/2":
                entry["coeff"] = f"g*{factor}/(2*{factor})"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        common = ["simulate", "--initial", "fock(0)*e", "--t1", "0.2ns",
                  "--samples", "3"]
        out = {}
        for name, path in (("stored", BENCH_DATA / "rabi_order1.json"),
                           ("edited", edited)):
            out[name] = tmp_path / f"{name}.csv"
            assert main(
                [*common, "--effective", str(path), "-o", str(out[name])]
            ) == 0
        assert out["edited"].read_bytes() == out["stored"].read_bytes()
        capsys.readouterr()

    def test_compare_identical_files(self, model_path, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        assert main(
            ["simulate", "--model", model_path, "--initial", "fock(0)*g",
             "--t1", "1ns", "--samples", "11", "-o", str(csv)]
        ) == 0
        assert main(
            ["compare", "--ref", str(csv), "--test", str(csv)]
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        for column in metrics.values():
            assert column["rms"] == 0.0
            assert column["max_abs"] == 0.0

    def test_compare_grid_mismatch(self, model_path, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, t1 in ((a, "1ns"), (b, "2ns")):
            assert main(
                ["simulate", "--model", model_path, "--initial", "fock(0)*g",
                 "--t1", t1, "--samples", "11", "-o", str(path)]
            ) == 0
        assert main(["compare", "--ref", str(a), "--test", str(b)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "times,code",
        [("0,1.000009e-09,2.000018e-09", 3), ("0,1e-09,2.000000000001e-09", 0)],
        ids=["9e-6-apart", "5e-13-apart"],
    )
    def test_compare_grid_tolerance(self, times, code, tmp_path, capsys):
        # Times are written to 12 significant digits; grids must agree to
        # 1e-9 of the largest |t|.
        ref, test = tmp_path / "ref.csv", tmp_path / "test.csv"
        ref.write_text("t,x\n0,1\n1e-09,2\n2e-09,3\n")
        rows = zip(times.split(","), "123")
        test.write_text("t,x\n" + "".join(f"{t},{x}\n" for t, x in rows))
        assert main(["compare", "--ref", str(ref), "--test", str(test)]) == code
        if code:
            assert "time grids differ" in capsys.readouterr().err
        else:
            assert json.loads(capsys.readouterr().out)["x"]["rms"] == 0.0

    @pytest.mark.parametrize("bad", ["ref", "test"])
    def test_compare_rejects_non_finite(self, bad, tmp_path, capsys):
        paths = {}
        for name in ("ref", "test"):
            paths[name] = tmp_path / f"{name}.csv"
            value = "nan" if name == bad else "2"
            paths[name].write_text(f"t,x\n0,1\n1e-09,{value}\n")
        args = ["compare", "--ref", str(paths["ref"]), "--test",
                str(paths["test"])]
        assert main(args) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,width",
        [("t,x,y\n0,1\n1e-09,2\n", 2), ("t,x,y\n", 0)],
        ids=["narrow-rows", "header-only"],
    )
    def test_compare_rejects_header_width_mismatch(
        self, text, width, tmp_path, capsys
    ):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(text)
        good.write_text("t,x,y\n0,1,2\n1e-09,2,3\n")
        for ref, test in ((bad, good), (good, bad)):
            args = ["compare", "--ref", str(ref), "--test", str(test)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(args) == 3
            assert not caught, [str(w.message) for w in caught]
            err = capsys.readouterr().err
            assert f"3 column name(s), {width} in rows" in err

    def test_default_observables(self, model_path, capsys):
        assert main(
            ["simulate", "--model", model_path, "--initial", "fock(0)*g",
             "--t1", "1ns", "--samples", "5"]
        ) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "n_a" in header and "p_e_q" in header
