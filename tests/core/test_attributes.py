"""Unit tests for attribute definitions and schemas."""

import pytest

from repro.core.attributes import (
    AttributeDefinition,
    AttributeSchema,
    categorical,
    numeric,
)
from repro.util.errors import ConfigurationError


def make_schema(max_level=3):
    return AttributeSchema.regular(
        [numeric("cpu", 0, 80), numeric("mem", 0, 160)], max_level=max_level
    )


class TestAttributeDefinition:
    def test_numeric_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            AttributeDefinition(name="bad", lower=5, upper=5)

    def test_numeric_encode_passthrough(self):
        definition = numeric("cpu", 0, 80)
        assert definition.encode(12) == 12.0
        assert definition.encode(12.5) == 12.5

    def test_numeric_rejects_string(self):
        with pytest.raises(ConfigurationError):
            numeric("cpu", 0, 80).encode("fast")

    def test_categorical_encode_decode_roundtrip(self):
        definition = categorical("os", ["linux", "windows", "macos"])
        for index, label in enumerate(["linux", "windows", "macos"]):
            assert definition.encode(label) == float(index)
            assert definition.decode(float(index)) == label

    def test_categorical_unknown_label(self):
        with pytest.raises(ConfigurationError):
            categorical("os", ["linux"]).encode("plan9")

    def test_categorical_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            categorical("os", ["linux", "linux"])

    def test_categorical_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            categorical("os", [])

    def test_categorical_domain_derived(self):
        definition = categorical("os", ["a", "b", "c"])
        assert definition.lower == 0.0
        assert definition.upper == 3.0

    def test_decode_out_of_range_ordinal(self):
        with pytest.raises(ConfigurationError):
            categorical("os", ["a"]).decode(5.0)


class TestAttributeSchema:
    def test_dimensions_and_cells(self):
        schema = make_schema(max_level=3)
        assert schema.dimensions == 2
        assert schema.cells_per_dimension == 8

    def test_requires_attributes(self):
        with pytest.raises(ConfigurationError):
            AttributeSchema(definitions=[])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            AttributeSchema.regular([numeric("a", 0, 1), numeric("a", 0, 1)])

    def test_rejects_zero_max_level(self):
        with pytest.raises(ConfigurationError):
            AttributeSchema.regular([numeric("a", 0, 1)], max_level=0)

    def test_rejects_geometry_whose_cell_keys_overflow_int64(self):
        definitions = [numeric(f"a{dim}", 0, 1) for dim in range(21)]
        with pytest.raises(ConfigurationError, match="int64"):
            AttributeSchema.regular(definitions, max_level=3)  # 63 bits

    def test_accepts_geometry_that_packs_into_62_bits(self):
        definitions = [numeric(f"a{dim}", 0, 1) for dim in range(31)]
        schema = AttributeSchema.regular(definitions, max_level=2)
        assert schema.dimensions * schema.max_level == 62

    def test_dimension_lookup(self):
        schema = make_schema()
        assert schema.dimension_of("cpu") == 0
        assert schema.dimension_of("mem") == 1
        with pytest.raises(ConfigurationError):
            schema.dimension_of("disk")

    def test_regular_boundaries_evenly_spaced(self):
        schema = make_schema(max_level=3)
        assert schema.boundaries[0] == [10, 20, 30, 40, 50, 60, 70]

    def test_cell_index_regular(self):
        schema = make_schema()
        assert schema.cell_index(0, 0.0) == 0
        assert schema.cell_index(0, 9.99) == 0
        assert schema.cell_index(0, 10.0) == 1
        assert schema.cell_index(0, 79.9) == 7

    def test_values_beyond_domain_clamp_to_extreme_cells(self):
        # Paper: "we do not impose an upper bound on attribute values".
        schema = make_schema()
        assert schema.cell_index(0, -5.0) == 0
        assert schema.cell_index(0, 500.0) == 7

    def test_coordinates(self):
        schema = make_schema()
        assert schema.coordinates((15.0, 80.0)) == (1, 4)

    def test_coordinates_wrong_arity(self):
        with pytest.raises(ConfigurationError):
            make_schema().coordinates((1.0,))

    def test_encode_values_missing_attribute(self):
        with pytest.raises(ConfigurationError):
            make_schema().encode_values({"cpu": 1})

    def test_index_range_projection(self):
        schema = make_schema()
        assert schema.index_range(0, 15.0, 35.0) == (1, 3)
        assert schema.index_range(0, None, None) == (0, 7)
        assert schema.index_range(0, 70.0, None) == (7, 7)

    def test_explicit_boundaries_validated(self):
        with pytest.raises(ConfigurationError):
            AttributeSchema(
                definitions=[numeric("a", 0, 1)],
                max_level=2,
                boundaries=[[0.1, 0.2]],  # needs 3 split points
            )

    def test_explicit_boundaries_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            AttributeSchema(
                definitions=[numeric("a", 0, 1)],
                max_level=2,
                boundaries=[[0.5, 0.2, 0.7]],
            )

    def test_quantile_boundaries_balance_population(self):
        # A pile-up near zero should get fine cells near zero.
        samples = [{"a": (i / 100.0) ** 3} for i in range(100)]
        schema = AttributeSchema.from_quantiles(
            [numeric("a", 0, 1)], samples, max_level=2
        )
        counts = [0, 0, 0, 0]
        for sample in samples:
            counts[schema.cell_index(0, sample["a"])] += 1
        assert max(counts) - min(counts) <= 2

    def test_quantile_requires_samples(self):
        with pytest.raises(ConfigurationError):
            AttributeSchema.from_quantiles([numeric("a", 0, 1)], [])

    def test_snap_range_widens_to_boundaries(self):
        schema = make_schema()
        low, high = schema.snap_range(0, 12.0, 29.0)
        assert low == 10.0
        assert high == 30.0

    def test_snap_range_open_ends(self):
        schema = make_schema()
        assert schema.snap_range(0, None, None) == (None, None)
        low, high = schema.snap_range(0, 5.0, 75.0)
        assert low is None  # below the first split point
        assert high is None  # above the last split point
