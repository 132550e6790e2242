"""The benchmark tracer's view of the package.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table and
the entries of ``verify.SUITES`` by name.  A rename or deletion of one of
them would break only the traced benchmark run, so this test pins the names.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from zetacan import verify

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("mod", sorted(tracer.TRACED))
def test_traced_names_exist(mod):
    home = importlib.import_module(f"zetacan.{mod}")
    missing = [name for name in tracer.TRACED[mod]
               if not callable(getattr(home, name, None))]
    assert not missing, f"zetacan.{mod} lacks {missing}"


def test_traced_suites_are_the_verify_suites():
    assert tracer.SUITES == tuple(verify.SUITES)
