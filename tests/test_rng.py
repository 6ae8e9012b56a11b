import numpy as np

from alp.rng import RandomStream


def test_same_seed_and_label_reproduce_draws():
    a = RandomStream(7, "x").generator().uniform(size=10)
    b = RandomStream(7, "x").generator().uniform(size=10)
    assert np.array_equal(a, b)


def test_different_labels_decorrelate():
    a = RandomStream(7, "x").generator().uniform(size=10)
    b = RandomStream(7, "y").generator().uniform(size=10)
    assert not np.array_equal(a, b)


def test_child_streams_are_order_independent():
    root = RandomStream(7)
    first = root.child("u1", "2020-01-01").generator().uniform()
    _ = root.child("u2", "2020-01-01").generator().uniform()
    again = root.child("u1", "2020-01-01").generator().uniform()
    assert first == again

