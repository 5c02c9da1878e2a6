import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))

from cra.analytic import ProtocolParams


@pytest.fixture
def fig_params():
    """Reference operating point used throughout the figure experiments:
    N=31, M=256, tau=4, L=310, p_md=p_fa=0.01, load of 1 per (N+M)."""
    return ProtocolParams(preamble_len=31, payload_len=256, pool_size=310,
                          feedback_len=4.0, arrival_rate=1.0 / 287.0,
                          p_md=0.01, p_fa=0.01)
