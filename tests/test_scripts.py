"""The experiment scripts reject a trial count that leaves them nothing to report."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def exit_code(script: str, monkeypatch, *argv: str):
    """The exit status of ``scripts/<script>.py`` run in-process with ``argv``."""
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *argv])
    with pytest.raises(SystemExit) as exited:
        module.main()
    return exited.value.code


def test_weighting_comparison_rejects_zero_seeds(monkeypatch, capsys):
    assert exit_code("weighting_comparison", monkeypatch, "--seeds", "0") == 2
    assert "--seeds must be at least 1, got 0" in capsys.readouterr().err


def test_purity_experiment_rejects_zero_seeds(monkeypatch, capsys):
    assert exit_code("purity_experiment", monkeypatch, "--seeds", "0") == 2
    assert "--seeds must be at least 1, got 0" in capsys.readouterr().err
