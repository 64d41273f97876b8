"""Tests for repro.utils: units, tables, rng, checks."""

from __future__ import annotations

import random

import pytest

from repro.utils.checks import is_count
from repro.utils.rng import make_rng
from repro.utils.tables import render_table
from repro.utils.units import (
    BRAM18K_BITS,
    bits_to_bram18k,
    format_count,
    format_engineering,
    gop,
)


class TestUnits:
    def test_gop_counts_two_ops_per_mac(self):
        assert gop(1e9) == pytest.approx(2.0)

    def test_gop_includes_extra_ops(self):
        assert gop(0, extra_ops=5e8) == pytest.approx(0.5)

    def test_bram_blocks_round_up(self):
        assert bits_to_bram18k(1) == 1
        assert bits_to_bram18k(BRAM18K_BITS) == 1
        assert bits_to_bram18k(BRAM18K_BITS + 1) == 2

    def test_bram_blocks_zero_for_empty(self):
        assert bits_to_bram18k(0) == 0
        assert bits_to_bram18k(-5) == 0

    def test_format_engineering_giga(self):
        assert format_engineering(13.6e9) == "13.6G"

    def test_format_engineering_small(self):
        assert format_engineering(42.0) == "42.0"

    def test_format_count_mega(self):
        assert format_count(7_200_000) == "7.2M"

    def test_format_count_kilo(self):
        assert format_count(2048) == "2.0k"


class TestTables:
    def test_renders_headers_and_rows(self):
        text = render_table(["a", "bb"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "a"
        assert "3" in lines[-1]

    def test_title_is_included(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_floats_formatted_to_one_decimal(self):
        text = render_table(["x"], [[1.2345]])
        assert "1.2" in text
        assert "1.2345" not in text

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError, match="columns"):
            render_table(["a", "b"], [[1]])

    def test_columns_align(self):
        text = render_table(["name", "v"], [["long-name", 1], ["s", 22]])
        lines = [line for line in text.splitlines() if "|" in line]
        pipes = [line.index("|") for line in lines]
        assert len(set(pipes)) == 1
        assert len(lines) == 3  # header + two rows (rule uses '+')


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(7), make_rng(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough_of_existing_rng(self):
        rng = random.Random(3)
        assert make_rng(rng) is rng

    def test_none_seed_builds_rng(self):
        assert isinstance(make_rng(None), random.Random)


class TestChecks:
    def test_is_count_takes_only_integers(self):
        import numpy as np

        assert is_count(1) and is_count(np.int64(3))
        assert is_count(0, minimum=0) and not is_count(0)
        # A bool is not a count, nor is a float, even a whole one.
        for value in (-1, True, 2.0, 1.5, float("nan"), float("inf"), "2"):
            assert not is_count(value), value
