"""Tests for the lazy ``wergm`` namespace.

``import wergm`` loads no submodule; each exported name and each submodule
name is imported on first access through the module ``__getattr__``.  These
tests pin that the public API is the same as an eager package would give:
every name resolves to its defining module's object, ``from wergm import *``
binds them all, and the benchmark tracer can reach every layer.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wergm

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SUBMODULES = ["cramer", "critical", "errors", "gaussian_directed", "graphs",
              "phase_curve", "variational", "cli"]

#: Where each exported name is defined.
DEFINED_IN = {
    "cramer": ["BERNOULLI_HALF", "UNIFORM01", "DualPair", "EdgeDistribution",
               "dual_theta", "endpoint_rate", "finite_support", "log_mgf",
               "log_mgf_d1", "log_mgf_d2", "rate", "rate_d1", "rate_d2",
               "support_interval"],
    "critical": ["CriticalData", "critical_table", "find_theta0"],
    "errors": ["WergmError"],
    "gaussian_directed": ["GaussianModelParams", "directed_stats", "psi_inf",
                          "psi_n_exact", "psi_n_monte_carlo"],
    "graphs": ["EDGE", "TRIANGLE", "TWO_STAR", "MetropolisChain", "SubgraphSpec",
               "WeightedGraph", "concentration_report", "enumerate_gibbs",
               "hom_density", "run_sampler", "sample_prior"],
    "phase_curve": ["BoundingPoint", "PhaseCurvePoint", "bounding_point",
                    "jump_profile", "r_of_beta1", "trace_curve"],
    "variational": ["MaximizerSet", "ModelParams", "PhaseClass", "objective",
                    "objective_d1", "objective_d2", "psi_gradient", "solve_psi"],
}
EXPORTS = [(name, module) for module, names in DEFINED_IN.items() for name in names]


def test_all_lists_every_export_once():
    assert sorted(wergm.__all__) == sorted(name for name, _ in EXPORTS)
    assert len(set(wergm.__all__)) == len(wergm.__all__)


@pytest.mark.parametrize("name, module", EXPORTS, ids=[name for name, _ in EXPORTS])
def test_export_is_its_defining_modules_object(name, module):
    defining = importlib.import_module(f"wergm.{module}")
    # Through the hook itself, whether or not the name is cached yet.
    assert wergm.__getattr__(name) is getattr(defining, name)
    assert getattr(wergm, name) is getattr(defining, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wergm import *", namespace)
    for name, module in EXPORTS:
        assert namespace[name] is getattr(importlib.import_module(f"wergm.{module}"), name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve(name):
    module = importlib.import_module(f"wergm.{name}")
    assert wergm.__getattr__(name) is module
    assert getattr(wergm, name) is module


def test_dir_covers_exports_and_submodules():
    listed = set(dir(wergm))
    assert set(wergm.__all__) <= listed
    assert set(SUBMODULES) <= listed


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        wergm.no_such_name  # noqa: B018
    assert not hasattr(wergm, "no_such_name")


FRESH_TRACER_SCRIPT = """
import sys

import wergm

assert not [m for m in sys.modules if m.startswith("wergm.")]
sys.path.insert(0, sys.argv[1])
from tracing import LAYERS, Tracer

Tracer(wergm)
wergm.critical.find_theta0.cache_clear()
assert {f"wergm.{layer}" for layer in LAYERS} <= set(sys.modules)
from wergm import MetropolisChain

print("resolved")
"""


def test_tracer_builds_in_a_fresh_interpreter():
    # In a fresh interpreter nothing is loaded yet, so each of the tracer's
    # LAYERS goes through the module __getattr__.
    result = subprocess.run(
        [sys.executable, "-c", FRESH_TRACER_SCRIPT, str(PERFBENCH)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "resolved\n"


def test_importtime_lists_the_lazily_loaded_layers():
    # cli's ``from . import cramer`` and the psi handler's ``from . import
    # variational`` go through the module __getattr__; each layer loaded
    # there must show on its own line.
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "wergm",
         "psi", "--p", "2", "--beta1", "-5", "--beta2", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for module in ("wergm.cramer", "wergm.variational"):
        assert re.search(rf"\|\s+{re.escape(module)}$", result.stderr, re.M), module


def test_every_traced_name_resolves():
    # The benchmark's traced run wraps each of these by name, so deleting
    # one breaks it; load the tracer without putting perfbench on sys.path.
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.PUBLIC.items():
        for name in names:
            assert callable(getattr(getattr(wergm, layer), name)), f"{layer}.{name}"
    assert callable(wergm.graphs.MetropolisChain.sweep)
