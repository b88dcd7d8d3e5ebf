import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def kluyver():
    """Kluyver's W_q(1) = E|e^{i t_1} + ... + e^{i t_q}| for independent
    uniform phases, for every q that a test reads, computed once per run by
    ``perfbench/refs.py`` (loaded by path; it does not import ``bohrap``),
    which checks W_1 = 1 and W_2 = 4/pi to 1e-9."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_refs", path)
    refs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refs)
    return refs.checked_kluyver([2, 4, 16, 64, 256])
