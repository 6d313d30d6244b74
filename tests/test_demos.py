"""The quick demos run to completion from a checkout.

``03_virtual_motion_gan.py`` (about 13 s) and ``05_full_experiment.py``
(about 23 s) are left out to keep tier-1 short. The fifth is the desk run
that ``test_end_to_end_ordering`` already makes, and the third trains the
desk generator through ``train_generator_bundle``, as that run does.
"""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_signal_chains.py", "02_gradient_check.py", "04_fusion_classifier.py"])
def test_demo_exits_cleanly(demo):
    # conftest.py puts src/ on the subprocess's PYTHONPATH
    done = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
