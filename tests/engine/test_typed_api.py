"""The typed surface: IndexKind / DistanceMode enums.

Pins the contract: constructors take the enums only, plain strings and
unknown values fail eagerly with an error naming the member to use, and
the enums serialise as their plain string values.
"""

import json
import warnings

import pytest

from repro.distance.suite import make_suite
from repro.index import SeriesDatabase
from repro.kinds import (
    DistanceMode,
    IndexKind,
    coerce_distance_mode,
    coerce_index_kind,
)
from repro.reduction import PAA, SAPLAReducer


class TestEnums:
    def test_members_compare_equal_to_their_strings(self):
        assert IndexKind.DBCH == "dbch"
        assert IndexKind.RTREE == "rtree"
        assert DistanceMode.LB == "lb"
        assert str(DistanceMode.PAR) == "par"

    def test_json_round_trip_as_plain_strings(self):
        payload = json.dumps({"index": IndexKind.DBCH, "mode": DistanceMode.AE})
        assert json.loads(payload) == {"index": "dbch", "mode": "ae"}


class TestCoercion:
    def test_enum_values_pass_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coerce_index_kind(IndexKind.RTREE) is IndexKind.RTREE
            assert coerce_index_kind(None) is None
            assert coerce_index_kind(IndexKind.NONE) is None
            assert coerce_distance_mode(DistanceMode.AE) is DistanceMode.AE

    def test_strings_are_rejected_naming_the_enum(self):
        with pytest.raises(ValueError, match=r"IndexKind\.DBCH"):
            coerce_index_kind("dbch")
        with pytest.raises(ValueError, match=r"DistanceMode\.LB"):
            coerce_distance_mode("lb")

    @pytest.mark.parametrize("value", ["kdtree", "", "DBCH "])
    def test_unknown_index_kind_raises(self, value):
        with pytest.raises(ValueError):
            coerce_index_kind(value)

    @pytest.mark.parametrize("value", ["euclid", "", "PAR "])
    def test_unknown_distance_mode_raises(self, value):
        with pytest.raises(ValueError):
            coerce_distance_mode(value)


class TestDatabaseSurface:
    def test_string_arguments_are_rejected(self):
        with pytest.raises(ValueError, match=r"IndexKind\.DBCH"):
            SeriesDatabase(SAPLAReducer(6), index="dbch")
        with pytest.raises(ValueError, match=r"DistanceMode\.LB"):
            SeriesDatabase(SAPLAReducer(6), distance_mode="lb")
        with pytest.raises(ValueError, match=r"DistanceMode\.AE"):
            make_suite(SAPLAReducer(6), "ae")

    def test_make_suite_validates_mode_eagerly(self):
        with pytest.raises(ValueError):
            make_suite(SAPLAReducer(6), "not-a-mode")

    def test_aligned_suites_expose_the_batch_bound(self):
        suite = make_suite(PAA(6))
        assert suite.stack is not None
        assert suite.query_bound_batch is not None

    def test_adaptive_suites_have_no_batch_bound(self):
        suite = make_suite(SAPLAReducer(6), DistanceMode.LB)
        assert suite.query_bound_batch is None
