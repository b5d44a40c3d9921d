import pytest

from imexssp.problems import total_variation


class LevelRecord:
    """An integrate() observer that keeps every level's max norm and total
    variation, as tvd prints them, and the last level it saw."""

    def __init__(self):
        self.max_norm, self.tv, self.last = [], [], None

    def __call__(self, _, y, norm):
        self.max_norm.append(norm)
        self.tv.append(total_variation(y))
        self.last = y


@pytest.fixture
def level_record():
    """LevelRecord itself: each call gives a fresh observer."""
    return LevelRecord
