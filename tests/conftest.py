"""Session-wide fixtures shared across test modules.

Both fixtures hold seed-7 simulations that several modules read, so
each full-horizon app run happens once per session instead of once per
module.
"""

import pytest

from repro.core.study import CharacterizationStudy
from repro.runner import BatchRunner, ResultCache


@pytest.fixture(scope="session")
def study():
    """One seed-7 characterization study: each app simulates once."""
    return CharacterizationStudy(seed=7)


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    """One shared cached runner: Tables III-V and Figures 9-10 reuse its runs."""
    cache = ResultCache(root=str(tmp_path_factory.mktemp("study-cache")))
    return BatchRunner(workers=1, cache=cache)
