"""Lazy exports and per-command imports: each command starts a fresh
interpreter, and without a bytecode cache every module it loads is
compiled from source, so a command loads only the modules it runs."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import statusindex
from statusindex import cli, verify
from statusindex.closed_forms import CLOSED_FORMS
from statusindex.families import FAMILIES

#: Every name the package exported when it imported all its modules.
EXPORTED = (
    "BoundsReport", "ClosedFormReport", "DEFAULT_MAX_VERTICES", "DEFAULT_SEED", "DEMO_TAG",
    "Diam2Formulas", "DisconnectedGraphError", "ERRATA", "Erratum", "FamilyError",
    "FamilySpec", "FormulaValue", "Graph", "GraphError", "IndexBundle", "ParseError",
    "TransmissionProfile", "VerificationCase", "VerificationReport", "VertexCapError",
    "closed_forms_for", "complement_bounds", "compute_index_bundle", "default_grid",
    "demo_graph", "diam2_coindex_formulas", "edge_sums", "format_edge_list", "generate",
    "hypercube_closed_forms", "intersection_closed_forms", "kneser_closed_forms",
    "nanotorus_closed_forms", "nonedge_sums", "parse_edge_list", "random_connected_graph",
    "random_corpus", "status_coindices_direct", "status_coindices_identity",
    "status_indices", "transmission_profile", "transmission_regular_indices",
    "verify_family", "verify_grid", "verify_identities", "verify_random_suite",
    "zagreb_coindices", "zagreb_coindices_identity", "zagreb_indices",
)


def loaded_after(code: str) -> list[str]:
    """The ``statusindex.*`` modules and ``random`` that a fresh
    interpreter loads to run ``code``; without ``site`` (``-S``), which
    can load ``random`` itself, through packages that a ``.pth`` file imports."""
    probe = (
        f"import json, sys\nbefore = set(sys.modules)\n{code}\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before "
        "if m.startswith('statusindex.') or m == 'random')), file=sys.stderr)"
    )
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            check=True)
    return json.loads(result.stderr.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_after("import statusindex") == []


def test_every_export_resolves_and_is_listed():
    assert len(EXPORTED) == 49
    assert sorted(statusindex.__all__) == sorted(EXPORTED)
    listed = dir(statusindex)
    for name in EXPORTED:
        assert name in listed, name
        value = getattr(statusindex, name)
        home = sys.modules[f"statusindex.{statusindex._MODULE_OF[name]}"]
        assert value is getattr(home, name), name


def test_modules_are_attributes():
    assert statusindex.graph is sys.modules["statusindex.graph"]
    assert statusindex.cli.main is cli.main
    assert {"cli", "closed_forms", "families", "graph", "indices", "verify"} <= set(
        dir(statusindex)
    )


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        statusindex.no_such_name
    with pytest.raises(ImportError):
        exec("from statusindex import no_such_name", {})


def test_building_the_parser_loads_no_table():
    code = "from statusindex import cli\ncli.build_parser()"
    assert loaded_after(code) == ["statusindex.cli", "statusindex.graph"]


@pytest.mark.parametrize("command", ("compute", "bounds"))
def test_compute_and_bounds_load_graph_and_indices_only(c5_path, command):
    code = f"from statusindex.cli import main\nassert main([{command!r}, {str(c5_path)!r}]) == 0"
    assert loaded_after(code) == ["statusindex.cli", "statusindex.graph",
                                  "statusindex.indices"]


def test_generate_loads_graph_and_families_only(tmp_path):
    out = str(tmp_path / "q3.edges")
    code = ("from statusindex.cli import main\n"
            f"assert main(['generate', '--family', 'hypercube', '--n', '3', '-o', {out!r}]) == 0")
    assert loaded_after(code) == ["statusindex.cli", "statusindex.families",
                                  "statusindex.graph"]


def test_closed_form_loads_the_tables_and_indices():
    code = ("from statusindex.cli import main\n"
            "assert main(['closed-form', '--family', 'hypercube', '--n', '3']) == 0")
    assert loaded_after(code) == ["statusindex.cli", "statusindex.closed_forms",
                                  "statusindex.families", "statusindex.graph",
                                  "statusindex.indices"]


def test_verify_loads_every_module(c5_path):
    for argv in (["verify", "--family", "random", "--count", "1"], ["identities", str(c5_path)]):
        code = f"from statusindex.cli import main\nassert main({argv!r}) == 0"
        assert loaded_after(code) == ["random", "statusindex.cli", "statusindex.closed_forms",
                                      "statusindex.families", "statusindex.graph",
                                      "statusindex.indices", "statusindex.verify"], argv


def test_a_graph_constant_loads_graph_only():
    code = "import statusindex\nstatusindex.DEFAULT_MAX_VERTICES"
    assert loaded_after(code) == ["statusindex.graph"]


def test_written_out_choices_and_defaults_are_the_tables():
    assert cli._FAMILY_CHOICES == tuple(sorted(FAMILIES))
    assert cli._CLOSED_FORM_CHOICES == tuple(sorted(CLOSED_FORMS))
    assert cli._VERIFY_CHOICES == (*sorted(CLOSED_FORMS), "random")
    assert cli._PARAM_FLAGS == tuple(
        dict.fromkeys(name for family in FAMILIES.values() for name in family.params)
    )
    assert (cli.DEFAULT_COUNT, cli.DEFAULT_SEED) == (verify.DEFAULT_COUNT, verify.DEFAULT_SEED)
