"""Tests for the renderers and the generated results book.

The golden files under ``tests/golden/`` pin the rendered wire-traffic
table and ASCII heat map for the small grid, and every metric table of
the small fault grid, byte-for-byte: any engine or renderer change that
moves the numbers (or the formatting) must be a conscious golden update,
never drift.
"""

import xml.etree.ElementTree as ET
from pathlib import Path

from repro.report.aggregate import aggregate
from repro.report.book import BOOK_NAME, book_artifacts, check_book, write_book
from repro.report.grid import get_grid, run_grid
from repro.report.render import (
    ascii_heatmap,
    markdown_metric_table,
    svg_heatmap,
)

GOLDEN = Path(__file__).parent / "golden"


def _small_tables(cache_dir=None):
    grid = get_grid("table1-small")
    results = run_grid(grid, cache_dir=cache_dir)
    return grid, results, aggregate(grid, results)


def test_golden_markdown_table_small_grid():
    _, _, tables = _small_tables()
    rendered = markdown_metric_table(tables["wire_kb"]) + "\n"
    assert rendered == (GOLDEN / "table1_small_wire_kb.md").read_text()


def test_golden_ascii_heatmap_small_grid():
    _, _, tables = _small_tables()
    rendered = ascii_heatmap(tables["wire_kb"]) + "\n"
    assert rendered == (GOLDEN / "table1_small_wire_kb_heatmap.txt").read_text()


def test_golden_fault_book_small_grid():
    """Every metric of ``x11-faults-small``, one markdown table each."""
    grid = get_grid("x11-faults-small")
    tables = aggregate(grid, run_grid(grid))
    rendered = "\n".join(
        f"## {key}\n\n{markdown_metric_table(table)}\n"
        for key, table in tables.items()
    )
    assert rendered == (GOLDEN / "x11_faults_small_book.md").read_text()


def test_book_bit_identical_on_warm_cache_rerun(tmp_path):
    cache = tmp_path / "cache"
    grid, results, _ = _small_tables(cache_dir=cache)
    cold = book_artifacts(grid, results)
    grid, results, _ = _small_tables(cache_dir=cache)  # all cache hits
    warm = book_artifacts(grid, results)
    assert cold == warm


def test_book_contains_one_heatmap_per_metric():
    grid, results, _ = _small_tables()
    artifacts = book_artifacts(grid, results)
    svgs = [path for path in artifacts if path.endswith(".svg")]
    assert len(svgs) == 5
    book = artifacts[BOOK_NAME]
    for path in svgs:
        assert path in book  # every heat map is linked from the book
    assert "Paper crosswalk" in book
    assert "push-invalidate" in book


def test_svg_heatmaps_are_well_formed_and_deterministic():
    _, _, tables = _small_tables()
    table = tables["stale_fraction"]
    first, second = svg_heatmap(table), svg_heatmap(table)
    assert first == second
    root = ET.fromstring(first)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    rects = root.iter(ns + "rect")
    width, height = float(root.get("width")), float(root.get("height"))
    for rect in rects:
        assert float(rect.get("x", 0)) + float(rect.get("width")) <= width
        assert float(rect.get("y", 0)) + float(rect.get("height")) <= height
    # One tooltip per cell.
    titles = list(root.iter(ns + "title"))
    assert len(titles) == len(table.rows) * len(table.cols)


def test_ascii_heatmap_shades_follow_magnitude():
    _, _, tables = _small_tables()
    heatmap = ascii_heatmap(tables["wire_kb"])
    lines = heatmap.splitlines()
    assert lines[0].startswith("protocol")
    assert "RH2" in lines[0] and "WH4" in lines[0]
    # The maximum cell renders the densest shade character.
    assert "@@" in heatmap
    assert "scale:" in heatmap


def test_check_book_roundtrip_and_staleness(tmp_path):
    grid, results, _ = _small_tables()
    artifacts = book_artifacts(grid, results)
    write_book(artifacts, tmp_path)
    assert check_book(artifacts, tmp_path) == []
    (tmp_path / BOOK_NAME).write_text("tampered\n")
    stale = check_book(artifacts, tmp_path)
    assert stale == [f"{BOOK_NAME} (out of date)"]
    (tmp_path / BOOK_NAME).unlink()
    assert check_book(artifacts, tmp_path) == [f"{BOOK_NAME} (missing)"]
    # A corrupt (non-UTF-8) artifact reports stale instead of crashing.
    (tmp_path / BOOK_NAME).write_bytes(b"\xff\xfe broken")
    assert check_book(artifacts, tmp_path) == [f"{BOOK_NAME} (out of date)"]


def test_check_book_flags_orphaned_heatmaps(tmp_path):
    grid, results, _ = _small_tables()
    artifacts = book_artifacts(grid, results)
    write_book(artifacts, tmp_path)
    orphan_globs = [f"results/heatmaps/{grid.name}/*.svg"]
    assert check_book(artifacts, tmp_path, orphan_globs=orphan_globs) == []
    # A heat map the render no longer produces (renamed metric, say)
    # must be flagged, not silently left committed forever.
    orphan = tmp_path / "results" / "heatmaps" / grid.name / "old.svg"
    orphan.write_text("<svg/>")
    assert check_book(artifacts, tmp_path, orphan_globs=orphan_globs) == [
        f"results/heatmaps/{grid.name}/old.svg (orphaned)"
    ]
