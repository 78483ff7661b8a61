"""Order formulas: BN products vs closed forms vs enumeration."""

import pytest

from isocensus import census, orderform
from isocensus.ffield import make_field
from isocensus.matgroup import SLSpec, SpSpec, rational_points


def test_bn_order_sl2_examples():
    data = orderform.BN_CATALOG["SL2"]
    assert orderform.bn_order(data, 2) == 6
    assert orderform.bn_order(data, 5) == 120
    for q in (2, 3, 4, 5, 7, 9):
        assert orderform.bn_order(data, q) == q**3 - q


def test_bn_data_validation():
    with pytest.raises(ValueError):
        orderform.OrderFormula("bad", 1, 1, ())
    with pytest.raises(ValueError):
        orderform.OrderFormula("bad", 1, 1, (1, 2))
    with pytest.raises(ValueError):
        orderform.bn_order(orderform.BN_CATALOG["SL2"], 1)


def test_bn_matches_closed_forms_for_catalog():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        assert orderform.bn_order(orderform.BN_CATALOG["SL2"], q) == \
            orderform.closed_order("SL", q, 1, 2)
        assert orderform.bn_order(orderform.BN_CATALOG["SL3"], q) == \
            orderform.closed_order("SL", q, 1, 3)
        assert orderform.bn_order(orderform.BN_CATALOG["Sp4"], q) == \
            orderform.closed_order("Sp", q, 1, 4)


def test_closed_orders_match_enumeration():
    f3 = make_field(3, 1)
    sl3 = rational_points(SLSpec(3, 3), 1, f3, order_bound=10**5)
    assert len(sl3) == orderform.closed_order("SL", 3, 1, 3) == 5616
    sp4 = rational_points(SpSpec(4, 2), 1, make_field(2, 1))
    assert len(sp4) == orderform.closed_order("Sp", 2, 1, 4) == 720


def test_center_orders_match_census():
    for q, e in ((2, 1), (3, 1), (4, 2), (5, 1), (7, 1), (9, 2)):
        p = 2 if q in (2, 4, 8) else (3 if q == 9 else q)
        field = make_field(p, e)
        group = rational_points(SLSpec(2, p, e), 1, field)
        assert len(census.center(group)) == orderform.center_order("SL", q, 1)


def test_center_order_formulas():
    assert orderform.center_order("SL", 5, 1, 2) == 2
    assert orderform.center_order("SL", 4, 1, 2) == 1
    assert orderform.center_order("GL", 7, 1, 2) == 6
    assert orderform.center_order("SU", 2, 1, 3) == 3
    assert orderform.center_order("Gm", 7, 2) == 48


def test_ratio_to_center_strictly_increases():
    ratios = [orderform.closed_order("SL", 2, n) // orderform.center_order("SL", 2, n)
              for n in range(1, 7)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_norm_torus_orders_by_class():
    assert orderform.closed_order("NormTorus", 7, 1) == 36
    assert orderform.closed_order("NormTorus", 5, 1) == 24
    assert orderform.closed_order("NormTorus", 3, 1) == 6
    assert orderform.closed_order("NormTorusCover", 7, 1) == 36


def test_unknown_tags_raise():
    with pytest.raises(ValueError):
        orderform.closed_order("E8", 2, 1)
    with pytest.raises(ValueError):
        orderform.center_order("E8", 2, 1)
    with pytest.raises(ValueError):
        orderform.closed_order("SO", 4, 1, 4)
    with pytest.raises(ValueError):
        orderform.closed_order("SO", 2, 1, 3)


@pytest.mark.parametrize("args,named", [
    ((6, 1), "q=6"), ((1, 1), "q=1"), ((0, 1), "q=0"), ((-4, 1), "q=-4"),
    ((4, 0), "n=0"), ((4, -1), "n=-1"), ((4, 1, 0), "m=0"), ((4, 1, -2), "m=-2"),
])
def test_impossible_arguments_raise_naming_the_value(args, named):
    for fn in (orderform.closed_order, orderform.center_order):
        for tag in ("GL", "SL", "Gm"):
            with pytest.raises(ValueError, match=named):
                fn(tag, *args)
    if len(args) == 2 and args[1] == 1:
        with pytest.raises(ValueError, match=named):
            orderform.bn_order(orderform.BN_CATALOG["SL2"], args[0])


def test_so_and_su_closed_orders():
    assert orderform.closed_order("SO", 3, 1, 3) == 24
    assert orderform.closed_order("SU", 2, 1, 2) == 6
    assert orderform.closed_order("SU", 2, 1, 3) == 216
