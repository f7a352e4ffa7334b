import pytest

import twospeed as ts


@pytest.fixture(scope="session")
def gt_fields():
    """The classic constant-speed pair with unit cross-section."""
    return (
        ts.FieldSpec.constant(1.0),
        ts.FieldSpec.constant(-1.0),
        ts.FieldSpec.constant(1.0),
    )


@pytest.fixture(scope="session")
def variant_fields():
    """Non-proportional velocity pair: b2 = -1 + 0.4 sin(2 pi x)."""
    return (
        ts.FieldSpec.constant(1.0),
        ts.FieldSpec.trigonometric(-1.0, 0.4),
        ts.FieldSpec.constant(1.0),
    )


@pytest.fixture(scope="session")
def gen_gt_64(gt_fields):
    return ts.assemble(*gt_fields, ts.Grid(64))


@pytest.fixture(scope="session")
def gen_gt_96(gt_fields):
    return ts.assemble(*gt_fields, ts.Grid(96))


@pytest.fixture(scope="session")
def gen_gt_128(gt_fields):
    return ts.assemble(*gt_fields, ts.Grid(128))


@pytest.fixture(scope="session")
def gen_variant_64(variant_fields):
    return ts.assemble(*variant_fields, ts.Grid(64))


@pytest.fixture(scope="session")
def gen_variant_128(variant_fields):
    return ts.assemble(*variant_fields, ts.Grid(128))
