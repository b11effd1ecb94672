import itertools
from fractions import Fraction

import pytest

from flagnef import make_hn_type
from flagnef.corpus import iter_hn_types


def reference_types(max_rank, max_abs_degree):
    """Every HN type in the bounds, from itertools.product and Fraction
    slopes: total rank, then rank composition, then degrees, each ascending
    lexicographically."""
    degrees = range(-max_abs_degree, max_abs_degree + 1)
    types = []
    for n in range(1, max_rank + 1):
        compositions = sorted(
            ranks
            for length in range(1, n + 1)
            for ranks in itertools.product(range(1, n + 1), repeat=length)
            if sum(ranks) == n
        )
        for ranks in compositions:
            for degs in itertools.product(degrees, repeat=len(ranks)):
                slopes = [Fraction(d, k) for k, d in zip(ranks, degs)]
                if all(a > b for a, b in zip(slopes, slopes[1:])):
                    types.append(make_hn_type(zip(ranks, degs)))
    return types


@pytest.mark.parametrize("max_rank,max_abs_degree", [(4, 2), (5, 3)])
def test_matches_the_product_reference_in_order(max_rank, max_abs_degree):
    assert list(iter_hn_types(max_rank, max_abs_degree)) == reference_types(max_rank, max_abs_degree)
