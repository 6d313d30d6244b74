"""The quick demos run to completion from a checkout.

``05_full_experiment.py`` (about 23 s) is left out to keep tier-1 short:
it is the desk run that ``test_end_to_end_ordering`` already makes.
``03_virtual_motion_gan.py`` takes about 20 s and runs too, so a change
to the pipeline calls it makes cannot break it unseen.
"""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_signal_chains.py", "02_gradient_check.py", "03_virtual_motion_gan.py",
                                  "04_fusion_classifier.py"])
def test_demo_exits_cleanly(demo):
    # conftest.py puts src/ on the subprocess's PYTHONPATH
    done = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
