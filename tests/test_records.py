"""The result records: cheap to import, immutable field by field."""
from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

import statusindex
from statusindex import (
    ERRATA,
    FamilySpec,
    Graph,
    VerificationReport,
    complement_bounds,
    compute_index_bundle,
    diam2_coindex_formulas,
    generate,
    hypercube_closed_forms,
    transmission_profile,
    verify_identities,
)
from statusindex.graph import Value
from statusindex.verify import demo_graph


def test_cli_import_loads_no_dataclasses_inspect_or_traceback():
    # each command starts a fresh interpreter, so these imports are start-up cost
    probe = (
        "import sys; before = set(sys.modules); import statusindex.cli; "
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True)
    assert result.stdout == "[]\n"


def records():
    g = demo_graph()
    tp = transmission_profile(g)
    closed = hypercube_closed_forms(3)
    return [
        tp,
        compute_index_bundle(g, tp),
        complement_bounds(generate(FamilySpec.cycle(5))),
        diam2_coindex_formulas(g, tp),
        closed,
        closed.indices["s1"],
        ERRATA[0],
        verify_identities(g).cases[0],
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    for name in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 0


def test_only_the_value_base_defines_value_methods():
    # Graph, FamilySpec and VerificationReport take these from graph.Value;
    # NamedTuples bring their own
    methods = {"__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}
    found = []
    for info in pkgutil.iter_modules(statusindex.__path__):
        module = importlib.import_module(f"statusindex.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and cls is not Value and not issubclass(cls, tuple)):
                found += [f"{cls.__qualname__}.{name}" for name in methods & vars(cls).keys()]
    assert found == []
    assert {Graph, FamilySpec, VerificationReport} <= set(Value.__subclasses__())
