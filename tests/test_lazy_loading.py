"""What each CLI command loads, the package's lazy exports, and the
library's value classes, each a namedtuple record."""

import copy
import json
import pickle
import subprocess
import sys

import pytest

import polyinv
from polyinv import (
    AffineNormalization, ClassificationReport, InvariantReport, JoinDecomposition,
    classify, cube, simplex,
)
from polyinv.cli import CliConfig
from polyinv.errors import DomainError
from polyinv.linalg import affine_normalize

from conftest import subprocess_env

# runs `cli.main(argv)` and prints, after the command's own output, the
# modules that importing and running it added
HARNESS = """
import sys
before = set(sys.modules)
from polyinv import cli
code = cli.main(sys.argv[1:])
print()
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

HEAVY = {"polyinv.classifier", "polyinv.equivalence", "polyinv.invariants", "dataclasses"}


def loaded_by(*argv):
    r = subprocess.run(
        [sys.executable, "-c", HARNESS, *argv],
        capture_output=True, env=subprocess_env(), timeout=60,
    )
    assert r.returncode == 0, r.stderr.decode()
    return set(r.stdout.decode().splitlines()[-1].split())


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy") / "square.json"
    path.write_text(json.dumps(cube(2, 1).to_dict()))
    return str(path)


class TestModulesPerCommand:
    def test_construct(self):
        mods = loaded_by("construct", "--family", "simplex", "--dim", "1")
        assert "polyinv.constructions" in mods
        assert not mods & (HEAVY | {"polyinv.volumes", "fractions"})

    @pytest.mark.parametrize("command", ["info", "ehrhart"])
    def test_volume_commands(self, command, square_file):
        mods = loaded_by(command, square_file)
        assert "polyinv.volumes" in mods
        assert not mods & HEAVY

    def test_invariants(self, square_file):
        mods = loaded_by("invariants", square_file)
        assert "polyinv.invariants" in mods
        assert not mods & {"polyinv.classifier", "polyinv.equivalence", "dataclasses"}

    def test_classify(self, square_file):
        mods = loaded_by("classify", square_file)
        assert "polyinv.classifier" in mods
        assert "dataclasses" not in mods
        # the classifier's certificate map lives in linalg, not equivalence
        assert "polyinv.equivalence" not in mods

    def test_run_loads_every_command(self):
        # the in-process entry holds one module set whatever it has run
        code = (
            "import sys; from polyinv import cli;"
            " cli.run(cli.CliConfig('construct', family='simplex', dim=1));"
            " print(' '.join(sys.modules))"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           env=subprocess_env(), timeout=60, check=True)
        assert {f"polyinv.{m}" for m in ("classifier", "constructions", "equivalence",
                "invariants", "volumes")} <= set(r.stdout.decode().split())


class TestLazyExports:
    def test_every_name_resolves(self):
        for name in polyinv.__all__:
            value = getattr(polyinv, name)
            assert getattr(value, "__module__", "").startswith("polyinv."), name

    def test_dir_covers_all(self):
        assert set(polyinv.__all__) <= set(dir(polyinv))

    def test_star_import_binds_the_same_objects(self):
        ns = {}
        exec("from polyinv import *", ns)
        del ns["__builtins__"]
        assert set(ns) == set(polyinv.__all__)
        assert all(ns[name] is getattr(polyinv, name) for name in ns)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'polyinv' has no attribute 'nope'"):
            polyinv.nope
        assert not hasattr(polyinv, "nope")


class TestPlainClasses:
    def test_cli_config(self):
        assert CliConfig("info").output_format == "json"
        config = CliConfig("ehrhart", "p.json", "table", (2,), 3)
        assert (config.input_path, config.output_format, config.t_range) == ("p.json", "table", (2,))
        assert (config.dilation_max, config.family, config.summands) == (3, None, ())
        assert CliConfig("construct").length == 1
        with pytest.raises(AttributeError):
            config.family = "join"
        with pytest.raises(AttributeError):
            config.extra = 1
        assert config._replace(family="join").family == "join" and config.family is None
        assert config == CliConfig(command="ehrhart", input_path="p.json", output_format="table",
                                   t_range=(2,), dilation_max=3)
        assert pickle.loads(pickle.dumps(config)) == config == copy.copy(config)
        for bad in ({"dilation_max": 0}, {"t_range": ()}, {"t_range": (1, -1)}):
            with pytest.raises(DomainError):
                CliConfig(command="invariants", **bad)
            # checked however a config is made
            with pytest.raises(DomainError):
                config._replace(**bad)

    def test_face(self):
        P = cube(2, 1)
        Q = cube(2, 1)
        a, b = P.faces(1)[:2]
        assert a == P.faces(1)[0] and not a != P.faces(1)[0]
        assert a != b and not a == b
        assert a == Q.faces(1)[0] and hash(a) == hash(Q.faces(1)[0])
        assert a != simplex(2).faces(1)[0]
        assert a != a.mask and not a == a.mask
        assert repr(a) == "Face(dim=1, vertices=2)"
        with pytest.raises(AttributeError):
            a.mask = 0
        with pytest.raises(AttributeError):
            del a.dim
        with pytest.raises(AttributeError):
            a.extra = 1
        assert (a.owner, a.mask, a.dim) == (P, P.faces(1)[0].mask, 1)
        assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)

    def test_affine_normalization(self):
        norm = affine_normalize([(0, 0), (2, 2)])
        assert norm == AffineNormalization(matrix=((0, 1),), base=(0, 0), basis=((1, 1),), dim=1)
        assert norm == AffineNormalization(((0, 1),), (0, 0), ((1, 1),), 1)
        assert repr(norm) == (
            "AffineNormalization(matrix=((0, 1),), base=(0, 0), basis=((1, 1),), dim=1)"
        )
        assert norm.forward((1, 1)) == (1,) and norm.backward((1,)) == (1, 1)
        with pytest.raises(AttributeError):
            norm.dim = 2

    def test_invariant_report(self):
        rep = InvariantReport(c=3, c_t_values={1: 3}, f_coefficients=(1, 3))
        assert (rep.c_star, rep.dual_degree, rep.notes) == (None, None, ())
        assert rep == InvariantReport(3, {1: 3}, (1, 3), None, None, ())
        assert rep.to_dict()["c_t"] == {"1": 3}
        with pytest.raises(AttributeError):
            rep.c = 4

    def test_classification_report(self):
        rep = ClassificationReport(dim=2, is_simple=True, is_delzant=True, c=1, verdict="non-defect")
        assert (rep.c_star, rep.defect, rep.dual_degree, rep.decomposition, rep.notes) == (
            None, None, None, None, ()
        )
        assert rep == ClassificationReport(2, True, True, 1, "non-defect", None, None, None, None, ())
        assert repr(rep).startswith("ClassificationReport(dim=2, is_simple=True,")
        with pytest.raises(AttributeError):
            rep.verdict = "defect"
        with pytest.raises(AttributeError):
            rep.extra = 1
        assert list(rep.to_dict()) == [
            "dim", "is_simple", "is_delzant", "c", "c_star", "verdict", "defect",
            "dual_degree", "decomposition", "notes",
        ]
        full = classify(simplex(2))
        assert pickle.loads(pickle.dumps(full)) == full == copy.copy(full)
        assert full._replace(notes=("n",)).notes == ("n",) and full.notes == ()

    def test_join_decomposition(self):
        dec = classify(simplex(2)).decomposition
        assert isinstance(dec, JoinDecomposition)
        fields = dict(k=2, defect=2, projection_matrix=dec.projection_matrix,
                      projection_shift=dec.projection_shift, fibers=dec.fibers)
        assert dec == JoinDecomposition(**fields) == JoinDecomposition(*fields.values())
        with pytest.raises(TypeError):
            JoinDecomposition(k=2, defect=2)
        with pytest.raises(AttributeError):
            dec.k = 3
        with pytest.raises(AttributeError):
            dec.extra = 1
        assert list(dec.to_dict()) == ["k", "defect", "projection", "simplex_image", "fibers"]
        assert pickle.loads(pickle.dumps(dec)) == dec == copy.copy(dec)
