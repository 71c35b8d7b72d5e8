import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))
# pyproject's pythonpath puts src/ on this interpreter's path; the CLI tests
# also start `python -m normone.cli` in child interpreters, which find the
# package in a checkout without an install only through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")) if p)

settings.register_profile(
    "normone",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("normone")
