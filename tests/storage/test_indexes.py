"""Tests for unique and non-unique hash indexes."""

import pytest

from repro.errors import StorageError
from repro.storage import HashIndex, UniqueIndex


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex(("a",))
        index.insert((1,), 10)
        index.insert((1,), 11)
        probe = index.prober()
        assert sorted(probe((1,))) == [10, 11]
        assert probe((2,)) is None
        assert len(index) == 2

    def test_remove(self):
        index = HashIndex(("a",))
        index.insert((1,), 10)
        index.remove((1,), 10)
        assert not index.contains((1,))
        with pytest.raises(StorageError):
            index.remove((1,), 10)

    def test_key_of(self):
        index = HashIndex(("a", "b"))
        assert index.key_of({"a": 1, "b": 2, "c": 3}) == (1, 2)

    def test_requires_columns(self):
        with pytest.raises(StorageError):
            HashIndex(())


class TestUniqueIndex:
    def test_unique_violation(self):
        index = UniqueIndex(("a",))
        index.insert((1,), 10)
        with pytest.raises(StorageError, match="unique index violation"):
            index.insert((1,), 11)
        with pytest.raises(StorageError, match="unique index violation"):
            index.check_unique((1,))
        assert index.prober()((1,)) == 10

    def test_lookups(self):
        index = UniqueIndex(("a",))
        index.insert((1,), 10)
        assert index.prober()((1,)) == 10 and index.prober()((2,)) is None
        assert list(index.items()) == [((1,), (10,))]
        assert len(index) == 1

    def test_remove_checks_the_row_id(self):
        index = UniqueIndex(("a",))
        index.insert((1,), 10)
        with pytest.raises(StorageError, match="row 11 not present"):
            index.remove((1,), 11)
        index.remove((1,), 10)
        assert not index.contains((1,))
        with pytest.raises(StorageError):
            index.remove((1,), 10)

    def test_requires_columns(self):
        with pytest.raises(StorageError):
            UniqueIndex(())
