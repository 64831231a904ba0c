import json
import subprocess
import sys

import pytest

from polyinv import simplex
from polyinv.cli import CliConfig, run
from polyinv.errors import DomainError

from conftest import subprocess_env

TRI = json.dumps(
    {"name": "tri", "ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
).encode()


def run_ok(config, data=b""):
    code, out = run(config, data)
    assert code == 0, out.decode()
    return out


class TestConstruct:
    def test_simplex_zero(self):
        out = run_ok(CliConfig(command="construct", family="simplex", dim=0))
        doc = json.loads(out)
        assert doc["ambient_dim"] == 0
        assert doc["vertices"] == [[]]

    def test_cube_square(self):
        out = run_ok(CliConfig(command="construct", family="cube", dim=2))
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4

    def test_invalid_hypersimplex_is_domain_error(self):
        code, out = run(
            CliConfig(command="construct", family="hypersimplex", k=4, n=4)
        )
        assert code == 2
        assert b"hypersimplex" in out

    def test_missing_family_parameter(self):
        code, out = run(CliConfig(command="construct", family="simplex"))
        assert code == 2

    def test_join_from_files(self, tmp_path):
        paths = []
        for i, length in enumerate((2, 2, 3)):
            p = tmp_path / f"seg{i}.json"
            p.write_bytes(
                run_ok(
                    CliConfig(
                        command="construct", family="cube", dim=1, length=length
                    )
                )
            )
            paths.append(str(p))
        out = run_ok(
            CliConfig(command="join", summands=tuple(paths), name="fig2")
        )
        doc = json.loads(out)
        assert doc["name"] == "fig2"
        assert doc["ambient_dim"] == 3
        assert len(doc["vertices"]) == 6
        code, rep = run(CliConfig(command="classify"), out)
        assert code == 0
        repdoc = json.loads(rep)
        assert repdoc["verdict"] == "defect"
        assert repdoc["defect"] == 1

    def test_join_leaves_the_config_as_given(self, tmp_path):
        p = tmp_path / "seg.json"
        p.write_bytes(run_ok(CliConfig(command="construct", family="cube", dim=1, length=2)))
        summands = (str(p), str(p))
        config = CliConfig("join", summands=summands)
        out = run_ok(config)
        assert config.family is None
        assert out == run_ok(CliConfig("construct", family="join", summands=summands))

    def test_product_needs_two_summands(self, tmp_path):
        p = tmp_path / "seg.json"
        p.write_bytes(
            run_ok(CliConfig(command="construct", family="cube", dim=1))
        )
        code, _ = run(
            CliConfig(command="construct", family="product", summands=(str(p),))
        )
        assert code == 2


class TestPipelines:
    def test_simplex_invariants_pipe(self):
        poly = run_ok(CliConfig(command="construct", family="simplex", dim=3))
        rep = json.loads(run_ok(CliConfig(command="invariants"), poly))
        assert rep["c"] == 0
        assert rep["format_version"] == 1

    def test_hypersimplex_invariants_pipe(self):
        poly = run_ok(
            CliConfig(command="construct", family="hypersimplex", k=3, n=6)
        )
        rep = json.loads(run_ok(CliConfig(command="invariants"), poly))
        assert rep["c"] == 136
        assert rep["f_coefficients"][-1] == 136
        assert rep["c_star"] is None

    def test_pipe_stability(self):
        # construct output re-ingested yields identical derived data
        poly = run_ok(
            CliConfig(command="construct", family="hypersimplex", k=2, n=4)
        )
        info1 = run_ok(CliConfig(command="info"), poly)
        doc = json.loads(poly)
        poly2 = json.dumps(doc).encode()
        info2 = run_ok(CliConfig(command="info"), poly2)
        assert info1 == info2

    def test_pipe_stability_facet_data(self):
        # the derived facet representation itself round-trips exactly
        from polyinv import Polytope, hypersimplex, projective_join
        from conftest import segment

        for P in (
            hypersimplex(2, 4),
            projective_join([segment(2), segment(3)]),
        ):
            Q = Polytope.from_dict(json.loads(json.dumps(P.to_dict())))
            assert Q.vertices == P.vertices
            assert set(Q.facets) == set(P.facets)
            assert set(Q.span_equations) == set(P.span_equations)
            assert Q.f_vector == P.f_vector

    def test_info_fields(self):
        out = json.loads(run_ok(CliConfig(command="info"), TRI))
        assert out["n_vertices"] == 3
        assert out["is_delzant"] is True
        assert out["volume"] == "1/2"

    def test_ehrhart_with_extra_dilations(self):
        out = json.loads(
            run_ok(CliConfig(command="ehrhart", dilation_max=6), TRI)
        )
        assert out["samples"]["6"] == 28
        assert out["polynomial"] == ["1", "3/2", "1/2"]

    def test_sheared_simplex_projection_pinned(self):
        # a unimodular simplex is the join case k = r: its projection rows
        # are facet normals in facet order
        verts = [[0, 0, 0], [1, 0, 0], [80, 1, 0], [6400, 80, 1]]
        doc = json.dumps({"ambient_dim": 3, "vertices": verts}).encode()
        dec = json.loads(run_ok(CliConfig(command="classify"), doc))["decomposition"]
        proj = dec["projection"]
        assert proj["matrix"] == [[0, 0, 1], [0, 1, -80], [1, -80, 0]]
        assert proj["shift"] == [0, 0, 0]
        images = sorted(
            tuple(
                sum(a * x for a, x in zip(row, v)) + s
                for row, s in zip(proj["matrix"], proj["shift"])
            )
            for v in verts
        )
        assert images == list(simplex(3).vertices)

    def test_invariants_t_range(self):
        out = json.loads(
            run_ok(CliConfig(command="invariants", t_range=(0, 1)), TRI)
        )
        assert set(out["c_t"]) == {"0", "1"}


class TestErrorPaths:
    def test_malformed_json(self):
        code, out = run(CliConfig(command="info"), b"{not json")
        assert code == 1
        assert b"JSON" in out

    def test_missing_vertices_field_named(self):
        code, out = run(CliConfig(command="info"), b'{"ambient_dim": 2}')
        assert code == 1
        assert b"vertices" in out

    def test_wrong_vertex_shape(self):
        code, out = run(
            CliConfig(command="info"),
            b'{"ambient_dim": 2, "vertices": [[1, 2, 3]]}',
        )
        assert code == 1
        assert b"vertices" in out

    def test_bad_t_range_rejected(self):
        with pytest.raises(Exception):
            CliConfig(command="invariants", t_range=(-1,))

    def test_empty_t_range_rejected(self):
        with pytest.raises(DomainError, match="t-range"):
            CliConfig(command="invariants", t_range=())

    def test_reversed_t_range_rejected(self, tmp_path, capsys):
        from polyinv.cli import main

        p = tmp_path / "tri.json"
        p.write_bytes(TRI)
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--t-range", "3..1", str(p)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "'3..1'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "value,bad", [("1..x", "'x'"), ("x", "'x'"), ("1..2..3", "'2..3'")]
    )
    def test_malformed_t_range_names_the_option(self, value, bad, tmp_path, capsys):
        from polyinv.cli import main

        p = tmp_path / "tri.json"
        p.write_bytes(TRI)
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--t-range", value, str(p)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"polyinv invariants: error: argument --t-range: invalid int value: {bad}"
        )


class TestDeterminism:
    def test_run_twice_byte_identical(self):
        poly = run_ok(
            CliConfig(command="construct", family="hypersimplex", k=2, n=5)
        )
        a = run_ok(CliConfig(command="classify"), poly)
        b = run_ok(CliConfig(command="classify"), poly)
        assert a == b

    def test_subprocess_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "polyinv",
            "construct",
            "--family",
            "simplex",
            "--dim",
            "3",
        ]
        env = subprocess_env()
        r1 = subprocess.run(cmd, capture_output=True, check=True, env=env)
        r2 = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert r1.stdout == r2.stdout

    def test_table_mode_deterministic(self):
        a = run_ok(CliConfig(command="info", output_format="table"), TRI)
        b = run_ok(CliConfig(command="info", output_format="table"), TRI)
        assert a == b
        assert b"is_delzant = true" in a


class TestMainEntry:
    def test_main_reads_file_and_writes_stdout(self, tmp_path, capsys):
        from polyinv.cli import main

        p = tmp_path / "tri.json"
        p.write_bytes(TRI)
        code = main(["info", str(p)])
        assert code == 0
        captured = capsys.readouterr()
        assert '"n_vertices": 3' in captured.out

    def test_main_missing_file(self, capsys):
        from polyinv.cli import main

        code = main(["info", "/nonexistent/file.json"])
        assert code == 1
        assert "input" in capsys.readouterr().err


class TestMainMatchesRun:
    """Flags given through `main` reach the command as the `CliConfig`
    fields they fill, and `--help` names each option and its metavar."""

    # (argv, CliConfig fields); "IN" stands for a file holding TRI and "SEG"
    # for one holding a segment
    CASES = [
        (["info", "IN"], dict(command="info")),
        (["info", "IN", "--format", "table"], dict(command="info", output_format="table")),
        (["invariants", "IN"], dict(command="invariants")),
        (["invariants", "--t-range", "1..2", "IN"], dict(command="invariants", t_range=(1, 2))),
        (["invariants", "IN", "--t-range", "3", "--format", "table"],
         dict(command="invariants", t_range=(3,), output_format="table")),
        (["ehrhart", "IN"], dict(command="ehrhart")),
        (["ehrhart", "--dilations", "3", "IN"], dict(command="ehrhart", dilation_max=3)),
        (["classify", "--format", "table", "IN"], dict(command="classify", output_format="table")),
        (["construct", "--family", "simplex", "--dim", "2", "--name", "s"],
         dict(command="construct", family="simplex", dim=2, name="s")),
        (["construct", "--family", "cube", "--dim", "2"],
         dict(command="construct", family="cube", dim=2)),
        (["construct", "--family", "cube", "--dim", "2", "--len", "3"],
         dict(command="construct", family="cube", dim=2, length=3)),
        (["construct", "--family", "hypersimplex", "--k", "2", "--n", "4", "--format", "table"],
         dict(command="construct", family="hypersimplex", k=2, n=4, output_format="table")),
        (["construct", "--family", "product", "--summand", "SEG", "--summand", "SEG"],
         dict(command="construct", family="product", summands=("SEG", "SEG"))),
        (["construct", "--family", "join", "--summand", "SEG", "--summand", "SEG", "--name", "j"],
         dict(command="construct", family="join", summands=("SEG", "SEG"), name="j")),
        (["join", "--summand", "SEG", "--summand", "SEG", "--summand", "SEG", "--format", "table"],
         dict(command="join", summands=("SEG",) * 3, output_format="table")),
    ]

    @pytest.mark.parametrize("argv, fields", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_same_stdout(self, argv, fields, tmp_path, capsys):
        from polyinv.cli import main

        paths = {"IN": tmp_path / "tri.json", "SEG": tmp_path / "seg.json"}
        paths["IN"].write_bytes(TRI)
        paths["SEG"].write_text(json.dumps({"ambient_dim": 1, "vertices": [[0], [2]]}))
        argv = [str(paths.get(a, a)) for a in argv]
        if "summands" in fields:
            fields = {**fields, "summands": tuple(str(paths[s]) for s in fields["summands"])}
        assert main(argv) == 0
        data = b"" if fields["command"] in ("construct", "join") else TRI
        assert capsys.readouterr().out.encode() == run_ok(CliConfig(**fields), data)

    # each command's usage line: the metavars name the options (input,
    # DILATIONS), not the CliConfig fields they fill
    USAGES = {
        "": "usage: polyinv [-h] {info,invariants,ehrhart,classify,construct,join} ...",
        "info": "usage: polyinv info [-h] [--format {json,table}] [input]",
        "invariants": (
            "usage: polyinv invariants [-h] [--format {json,table}] [--t-range T_RANGE] [input]"
        ),
        "ehrhart": (
            "usage: polyinv ehrhart [-h] [--format {json,table}] [--dilations DILATIONS] [input]"
        ),
        "classify": "usage: polyinv classify [-h] [--format {json,table}] [input]",
        "construct": (
            "usage: polyinv construct [-h] [--format {json,table}] --family"
            " {simplex,cube,hypersimplex,product,join} [--dim DIM] [--k K] [--n N]"
            " [--len LENGTH] [--summand SUMMANDS] [--name NAME]"
        ),
        "join": (
            "usage: polyinv join [-h] [--format {json,table}] [--summand SUMMANDS] [--name NAME]"
        ),
    }

    @pytest.mark.parametrize("command", list(USAGES))
    def test_help_lists_the_options(self, command, monkeypatch, capsys):
        from polyinv.cli import main

        monkeypatch.setenv("COLUMNS", "1000")  # the usage on one line
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == self.USAGES[command]


@pytest.fixture
def int_digit_limit():
    """Python's default int<->str digit limit, 4300, for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int<->str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


class TestPastPythonLimits:
    """Input past Python's nesting or digit limits is malformed input, and
    a result past the digit limit a domain error; neither ends in a
    traceback."""

    def test_deep_nesting(self):
        code, out = run(CliConfig(command="info"), b"[" * 100000 + b"]" * 100000)
        assert code == 1 and out.startswith(b"error: input: ")

    def test_long_integer_literal(self, int_digit_limit):
        doc = '{"ambient_dim": 1, "vertices": [[0], [' + "9" * 5000 + "]]}"
        code, out = run(CliConfig(command="info"), doc.encode())
        assert code == 1 and out.startswith(b"error: input: ")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_long_result(self, fmt, int_digit_limit, tmp_path, capsys):
        from polyinv.cli import main

        # c_t of the unit triangle at t = 2000 has more than 4300 digits
        p = tmp_path / "tri.json"
        p.write_bytes(TRI)
        assert main(["invariants", "--t-range", "2000", "--format", fmt, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "sys.get_int_max_str_digits() = 4300" in captured.err
        assert "PYTHONINTMAXSTRDIGITS" in captured.err

    def test_long_t_range_stops_at_the_first_long_result(
        self, int_digit_limit, monkeypatch, tmp_path, capsys
    ):
        from polyinv import cli, invariants

        # of the unit triangle's c_t for t = 0..5000, those past t = 1,556
        # have more than 4300 digits: the first of them ends the command
        seen = []

        def recorded(P, t):
            seen.append(t)
            return c_t(P, t)

        c_t = invariants.c_t
        monkeypatch.setattr(invariants, "c_t", recorded)
        p = tmp_path / "tri.json"
        p.write_bytes(TRI)
        assert cli.main(["invariants", "--t-range", "0..5000", str(p)]) == 2
        assert seen == list(range(seen[-1] + 1))
        assert len(str(c_t(simplex(2), seen[-1] - 1))) <= 4300
        sys.set_int_max_str_digits(0)
        assert len(str(c_t(simplex(2), seen[-1]))) > 4300
        captured = capsys.readouterr()
        assert captured.out == "" and "sys.get_int_max_str_digits() = 4300" in captured.err

    def test_no_digit_limit_computes_every_t(self, int_digit_limit, tmp_path, capsys):
        from polyinv.cli import main

        sys.set_int_max_str_digits(0)
        p = tmp_path / "tri.json"
        p.write_bytes(TRI)
        assert main(["invariants", "--t-range", "1999..2001", str(p)]) == 0
        c_t = json.loads(capsys.readouterr().out)["c_t"]
        assert list(c_t) == ["1999", "2000", "2001"] and len(str(c_t["2001"])) > 4300

    def test_other_value_errors_are_not_caught(self, monkeypatch):
        from polyinv import cli

        def broken(P):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(cli, "_cmd_info", broken)
        with pytest.raises(ValueError, match="not a digit limit"):
            run(CliConfig(command="info"), TRI)


HAND_MADE_DOCS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[], [{}], {"d": {}}]},
    [[], {}, [[]]],
    {"name": "café 日本 \U0001f600  ", "x": "\x00\x01\x1f\x7f\n\t\r\b\f"},
    {"name": 'quote " back \\ slash \\" /'},
    {"big": 10**200, "neg": -(10**50), "zero": 0, "list": [1, -1, 2**64]},
    {"none": None, "true": True, "false": False, "mixed": [None, True, False, 0, 1]},
    {"tuple": (1, (2, 3), ()), "nested": ({"k": ()},)},
    "top-level string",
    7,
    None,
]


class TestJsonRenderer:
    """`cli._json` against the stdlib's `json.dumps(doc, indent=2)`."""

    @pytest.mark.parametrize("doc", HAND_MADE_DOCS)
    def test_hand_made(self, doc):
        from polyinv.cli import _json

        assert _json(doc, "") == json.dumps(doc, indent=2)

    def test_unsupported_type_raises(self):
        from fractions import Fraction

        from polyinv.cli import _json

        with pytest.raises(TypeError):
            json.dumps({"x": [Fraction(1, 2)]})
        with pytest.raises(TypeError):
            _json({"x": [Fraction(1, 2)]}, "")

    def test_corpora_outputs(self, small_corpus, join_corpus):
        from polyinv import cli

        config = CliConfig(command="invariants")
        docs = []
        for P in small_corpus + [J for J, _, _ in join_corpus]:
            docs.append(P.to_dict())
            for make in (
                cli._cmd_info,
                cli._cmd_classify,
                lambda P: cli._cmd_invariants(P, config),
                lambda P: cli._cmd_ehrhart(P, config),
            ):
                try:
                    docs.append(make(P))
                except DomainError:
                    pass
        assert len(docs) > 4 * len(small_corpus)
        for doc in docs:
            assert cli._render(doc, "json") == (json.dumps(doc, indent=2) + "\n").encode()
