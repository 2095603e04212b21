import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["make_witnesses", "anneal_witness"])
def test_witness_scripts_import(name):
    # the scripts import package helpers, private ones too; a renamed helper
    # must fail here, not at the next regeneration of the witness corpus
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
